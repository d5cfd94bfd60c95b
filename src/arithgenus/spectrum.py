"""Rational length spectra of quaternionic surfaces.

For a quaternion division algebra over Q split at the real place, the
admissible d are the squarefree d > 1 with Q(sqrt(d)) a maximal subfield,
sieved by residue classes; each contributes the generator log(eta(d)) of a
ray of rational lengths.  By the class-number formula eta(d) = eps(d)^(2h),
so a generator is 2 log(eps(d)^h), the length of the closed geodesic of
eps(d)^h, correctly rounded by an interval enclosure that takes one
logarithm per try.  Two surfaces of
this family are length-commensurable exactly when their algebras are
isomorphic (Reid; Prasad-Rapinchuk), that is, when the classes are equal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .arith import _jacobi
from .brauer import BrauerClass, global_index
from .quadfield import (
    QuadField, QuadUnit, _bracket, _check_precision, _class_data, fundamental_unit,
)

if TYPE_CHECKING:  # mpmath is imported where a real value is made, not at start-up
    import mpmath

# Largest bound on d of the admissible set and the spectrum generators; at
# 1024 bits (quadfield.MAX_PREC_BITS) the generators up to it take about 1 s
MAX_SPECTRUM_BOUND = 10**4


@dataclass(frozen=True)
class SpectrumGenerator:
    d: int
    log_eta: mpmath.mpf

    def __post_init__(self):
        if self.log_eta <= 0:
            raise ValueError("log eta must be positive")

    @classmethod
    def _proven(cls, d: int, log_eta: mpmath.mpf) -> "SpectrumGenerator":
        generator = object.__new__(cls)  # the log of a unit > 1 is positive: no check
        vars(generator).update(d=d, log_eta=log_eta)
        return generator


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


def _rounded_logs(units: list[QuadUnit], precision: int) -> list[mpmath.mpf]:
    """2 log u for each unit u > 1, correctly rounded to `precision` bits.
    With u in (n, n + 1) * 2^-(k+1) and L = log(n * 2^-(k+1)) rounded down
    to `bits` bits, log u lies in [L, L + ulp(L) + 2^(1 - len(n))), as
    log(1 + 1/n) < 1/n <= 2^(1 - len(n)); both ends are exact sums, each is
    rounded once to nearest, and the bracket widens until both round alike
    (Ziv, ACM TOMS 17, 1991).  Rounding is monotone, so the common value is
    the rounded log, and doubling it is exact.  The log of an algebraic
    number other than 1 is transcendental, never a rounding boundary, so
    this ends.  The enclosure trusts mpmath's mpf_log to round down when
    asked."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp, mpf_log, mpf_shift, normalize, round_floor, round_nearest

    logs = []
    for u in units:
        bits = precision + 32  # the first width only sets the cost, not the result
        while True:
            n, k = _bracket(u, bits)  # u in (n, n + 1) * 2^-(k+1)
            _, man, exp, bc = mpf_log(from_man_exp(n, -k - 1), bits, round_floor)  # L > 0
            lo = normalize(0, man, exp, bc, precision, round_nearest)
            # L + ulp(L) + 2^(1 - len(n)), over the common exponent of its terms
            ulp, tail = exp + bc - bits, 1 - n.bit_length()
            low = min(ulp, tail)
            hi = from_man_exp((man << exp - low) + (1 << ulp - low) + (1 << tail - low), low,
                              precision, round_nearest)
            if lo == hi:
                break
            bits *= 2
        logs.append(mp.make_mpf(mpf_shift(lo, 1)))
    return logs


def _check_surface_algebra(algebra: BrauerClass) -> None:
    if global_index(algebra) != 2:
        raise ValueError("algebra must be a quaternion division class (index 2)")
    if any(v.is_real for v in algebra.support):
        raise ValueError("algebra must split at the real place")


def admissible_set(algebra: BrauerClass, bound: int) -> list[int]:
    """The squarefree d in [2, bound] with Q(sqrt(d)) a maximal subfield, by a
    sieve: no multiple of a p^2, nor a nonzero square mod a ramified p (1 mod 8 at 2)."""
    _check_surface_algebra(algebra)
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound > MAX_SPECTRUM_BOUND:
        raise ValueError(f"bound {bound} exceeds the supported bound {MAX_SPECTRUM_BOUND}")
    sieve = bytearray([1]) * (bound + 1)
    for p in range(2, math.isqrt(bound) + 1):
        sieve[p * p::p * p] = bytes(len(range(p * p, bound + 1, p * p)))
    for p in (v.prime for v in algebra.support):
        step = 8 if p == 2 else p
        for r in [1] if p == 2 else [r for r in range(1, min(p, bound + 1)) if _jacobi(r, p) == 1]:
            sieve[r::step] = bytes(len(range(r, bound + 1, step)))
    return [d for d in range(2, bound + 1) if sieve[d]]


def spectrum_generators(algebra: BrauerClass, bound: int,
                        precision: int = 128) -> list[SpectrumGenerator]:
    """One generator (d, log eta(d)) per admissible d up to the bound, where
    log eta(d) = 2h * log eps(d) is the length of the geodesic of eps(d)^h,
    correctly rounded by ``_rounded_logs``."""
    _check_precision(precision)
    admissible, units = admissible_set(algebra, bound), []
    for d in admissible:
        eps = fundamental_unit(QuadField._known_squarefree(d))  # admissible_set sieved d
        h = _class_data(eps).class_number
        units.append(eps if h == 1 else eps ** h)
    return [SpectrumGenerator._proven(d, log_eta)
            for d, log_eta in zip(admissible, _rounded_logs(units, precision))]


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
