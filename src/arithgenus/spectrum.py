"""Geodesic lengths and rational length spectra of quaternionic surfaces.

For a quaternion division algebra over Q split at the real place, the
admissible d are the squarefree d > 1 with Q(sqrt(d)) a maximal subfield;
each contributes the generator log(eta(d)) of a ray of rational lengths.
By the class-number formula eta(d) = eps(d)^(2h), so a generator is h times
the length of the closed geodesic of the fundamental unit.  Two surfaces of
this family are length-commensurable exactly when their algebras are
isomorphic (Reid; Prasad-Rapinchuk), that is, when the classes are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp

from .arith import is_squarefree
from .brauer import BrauerClass, global_index
from .genus import embeds_quadratic
from .quadfield import _GUARD_BITS, QuadUnit, _class_data, fundamental_unit, unit_real_value


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
    """(2/winding) * log(eigenvalue), the hyperbolic length."""
    value = unit_real_value(g.eigenvalue, precision + 16)
    with mp.workprec(precision):
        return 2 * mp.log(value) / g.winding


def _check_surface_algebra(algebra: BrauerClass) -> None:
    if global_index(algebra) != 2:
        raise ValueError("algebra must be a quaternion division class (index 2)")
    if any(v.is_real for v in algebra.support):
        raise ValueError("algebra must split at the real place")


def admissible_d(algebra: BrauerClass, d: int) -> bool:
    """Whether Q(sqrt(d)), d squarefree > 1, is a maximal subfield of the
    (real-split) quaternion division algebra."""
    _check_surface_algebra(algebra)
    if d <= 1 or not is_squarefree(d):
        raise ValueError("d must be a squarefree integer > 1")
    return embeds_quadratic(d, algebra)


def admissible_set(algebra: BrauerClass, bound: int) -> list[int]:
    _check_surface_algebra(algebra)
    if bound < 2:
        raise ValueError("bound must be at least 2")
    return [
        d for d in range(2, bound + 1) if is_squarefree(d) and embeds_quadratic(d, algebra)
    ]


def spectrum_generators(
    algebra: BrauerClass, bound: int, precision: int = 128
) -> list[SpectrumGenerator]:
    """One generator (d, log eta(d)) per admissible d up to the bound, where
    log eta(d) = h(d) * length(eps(d)), rounded once from guard bits."""
    generators = []
    for d in admissible_set(algebra, bound):
        eps = fundamental_unit(d)
        h = _class_data(eps).class_number
        geodesic = HyperbolicGeodesic(eps)
        with mp.workprec(precision + _GUARD_BITS):
            log_eta = h * geodesic_length(geodesic, precision + _GUARD_BITS)
        with mp.workprec(precision):
            generators.append(SpectrumGenerator(d, +log_eta))
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
    """Leading eigenvalue-count term vol/((4 pi)^(n/2) Gamma(n/2+1)) * lam^n."""
    n = q.dim
    term = q.volume / ((4 * math.pi) ** (n / 2) * math.gamma(n / 2 + 1)) * q.lam**n
    if not math.isfinite(term):
        raise OverflowError("Weyl main term is not a finite float")
    return term
