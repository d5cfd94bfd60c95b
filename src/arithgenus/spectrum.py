"""Geodesic lengths and rational length spectra of quaternionic surfaces.

For a quaternion division algebra over Q split at the real place, the
admissible d are the squarefree d > 1 with Q(sqrt(d)) a maximal subfield;
each contributes the generator log(eta(d)) of a ray of rational lengths.
By the class-number formula eta(d) = eps(d)^(2h), so a generator is the
length of the closed geodesic of eps(d)^h; every length here is correctly
rounded by interval enclosure.  Two surfaces of this family are
length-commensurable exactly when their algebras are isomorphic (Reid;
Prasad-Rapinchuk), that is, when the classes are equal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arith import is_squarefree
from .brauer import BrauerClass, global_index
from .genus import _embeds
from .quadfield import (
    QuadField, QuadUnit, _bracket, _check_precision, _class_data, fundamental_unit,
)

if TYPE_CHECKING:  # mpmath is imported where a real value is made, not at start-up
    import mpmath

# Largest bound on d of the admissible set and the spectrum generators; at
# 1024 bits (quadfield.MAX_PREC_BITS) the generators up to it take about 2 s
MAX_SPECTRUM_BOUND = 10**4


@dataclass(frozen=True)
class HyperbolicGeodesic:
    """A closed geodesic datum: the eigenvalue > 1 of a hyperbolic element
    and its winding number."""

    eigenvalue: QuadUnit
    winding: int = 1

    def __post_init__(self):
        if self.winding < 1:
            raise ValueError("winding number must be a positive integer")
        if self.eigenvalue.compare_real(1) <= 0:
            raise ValueError("eigenvalue must exceed 1")


@dataclass(frozen=True)
class SpectrumGenerator:
    d: int
    log_eta: mpmath.mpf

    def __post_init__(self):
        if self.log_eta <= 0:
            raise ValueError("log eta must be positive")


@dataclass(frozen=True)
class WeylQuery:
    dim: int
    volume: float
    lam: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        if not self.volume > 0:
            raise ValueError("volume must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")


def geodesic_length(g: HyperbolicGeodesic, precision: int = 128) -> mpmath.mpf:
    """(2/winding) * log(eigenvalue), the hyperbolic length, correctly rounded
    to `precision` bits: the logs of the ends of the integer bracket of the
    eigenvalue, rounded down and up, enclose it, and each end of the
    enclosure is rounded once to nearest; the bracket widens until both
    round alike (Ziv, ACM TOMS 17, 1991).  Rounding is monotone, so the
    common value is the rounded length.  The log of an algebraic number other
    than 1 is transcendental, never a rounding boundary, so this ends.  The
    enclosure trusts mpmath's mpf_log to round in the direction asked.
    """
    from mpmath import mp
    from mpmath.libmp import (
        from_man_exp, mpf_div, mpf_log, round_ceiling, round_floor, round_nearest,
    )

    _check_precision(precision)
    half_winding = from_man_exp(g.winding, -1)  # (2/winding) * x = x / (winding/2)
    bits = precision + 32  # the first width only sets the cost, not the result
    while True:
        n, k = _bracket(g.eigenvalue, bits)  # eigenvalue in (n, n + 1) * 2^-(k+1)
        lo, hi = (mpf_div(mpf_log(from_man_exp(end, -k - 1), bits, rounding), half_winding,
                          precision, round_nearest)
                  for end, rounding in ((n, round_floor), (n + 1, round_ceiling)))
        if lo == hi:
            return mp.make_mpf(lo)
        bits *= 2


def _check_surface_algebra(algebra: BrauerClass) -> None:
    if global_index(algebra) != 2:
        raise ValueError("algebra must be a quaternion division class (index 2)")
    if any(v.is_real for v in algebra.support):
        raise ValueError("algebra must split at the real place")


def admissible_set(algebra: BrauerClass, bound: int) -> list[int]:
    """The squarefree d in [2, bound] with Q(sqrt(d)) a maximal subfield
    (``embeds_quadratic``); the algebra and each d are checked once."""
    _check_surface_algebra(algebra)
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound > MAX_SPECTRUM_BOUND:
        raise ValueError(f"bound {bound} exceeds the supported bound {MAX_SPECTRUM_BOUND}")
    return [d for d in range(2, bound + 1) if _embeds(d, algebra) and is_squarefree(d)]


def spectrum_generators(
    algebra: BrauerClass, bound: int, precision: int = 128
) -> list[SpectrumGenerator]:
    """One generator (d, log eta(d)) per admissible d up to the bound, where
    log eta(d) = 2h * log eps(d) is the length of the geodesic of eps(d)^h,
    correctly rounded by ``geodesic_length``."""
    _check_precision(precision)
    generators = []
    for d in admissible_set(algebra, bound):
        eps = fundamental_unit(QuadField._known_squarefree(d))  # admissible_set tested d
        geodesic = HyperbolicGeodesic(eps ** _class_data(eps).class_number)
        generators.append(SpectrumGenerator(d, geodesic_length(geodesic, precision)))
    return generators


def default_commensurability_bound(a1: BrauerClass, a2: BrauerClass) -> int:
    """max(200, p^2) for the largest ramified prime p, echoed by ``lencomm``."""
    largest = max(
        (v.prime for v in a1.support + a2.support if v.prime is not None),
        default=2,
    )
    return max(200, largest * largest)


def length_commensurable(a1: BrauerClass, a2: BrauerClass) -> bool:
    """Whether the two quaternionic surfaces have the same rational length
    spectrum: exactly when the classes are equal, as distinct ramification
    sets differ on some admissible d; no bound on d enters the verdict."""
    _check_surface_algebra(a1)
    _check_surface_algebra(a2)
    return a1 == a2


def weyl_main_term(q: WeylQuery) -> float:
    """Leading eigenvalue-count term vol/((4 pi)^(n/2) Gamma(n/2+1)) * lam^n,
    in floats; where a factor leaves the float range, or the quotient falls
    below it, from its log in mpmath, rounded once: 0.0 below the range."""
    n = q.dim
    try:
        quotient = q.volume / ((4 * math.pi) ** (n / 2) * math.gamma(n / 2 + 1))
        term = quotient * q.lam**n
    except OverflowError:
        quotient = term = math.nan
    if not (quotient >= sys.float_info.min and math.isfinite(term) and (term or not q.lam)):
        from mpmath import mp

        with mp.workprec(64 + n.bit_length()):  # the log grows as n log n
            half = mp.mpf(n) / 2
            term = float(mp.exp(mp.log(q.volume) + n * mp.log(q.lam) - half * mp.log(4 * mp.pi)
                                - mp.loggamma(half + 1)))
    if not math.isfinite(term):
        raise OverflowError("Weyl main term is not a finite float")
    return term
