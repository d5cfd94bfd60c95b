"""Real quadratic fields Q(sqrt(d)), 1 < d <= MAX_D, from the reduced
quadratic irrationals of the fundamental discriminant D: one continued
fraction period of omega = (b + sqrt(D))/2 gives the fundamental unit, and
the narrow class number counts the cycles of the reduced forms (a, b, c),
whose |a| lies in one interval for each 0 < b < sqrt(D).  The analytic unit
eta(d) = eps(d)^(2h) of the class-number formula follows from both.

The unit and class-number computations are exact, and a real embedding is
correctly rounded from one integer square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath import mp

from .arith import is_squarefree

MAX_D = 10**6
# Most working bits of eta and the spectrum generators (the CLI's --prec and
# ARITHGENUS_PREC_BITS); a spectrum at the bound limit and 1024 bits takes
# about 2 s
MAX_PREC_BITS = 1024
_CF_ITERATION_CAP = 10**7


@dataclass(frozen=True)
class QuadField:
    """The field Q(sqrt(d)) for squarefree d > 1."""

    d: int

    def __post_init__(self):
        if self.d <= 1 or not is_squarefree(self.d):
            raise ValueError("d must be a squarefree integer > 1")

    @classmethod
    def _known_squarefree(cls, d: int) -> "QuadField":
        # for a d > 1 its caller has already found squarefree: skips the test
        field = object.__new__(cls)
        object.__setattr__(field, "d", d)
        return field

    @property
    def fundamental_discriminant(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d


@dataclass(frozen=True)
class QuadUnit:
    """A unit x + y*sqrt(d) of the ring of integers of Q(sqrt(d)).

    For d = 2, 3 mod 4 the coordinates are integers; for d = 1 mod 4 they are
    half-integers with 2x and 2y of equal parity.  The norm x^2 - d*y^2 is +1
    or -1.
    """

    field: QuadField
    x: Fraction
    y: Fraction
    norm: int

    def __post_init__(self):
        d = self.field.d
        if self.x * self.x - d * self.y * self.y != self.norm:
            raise ValueError("norm does not match the coordinates")
        if self.norm not in (1, -1):
            raise ValueError("a unit has norm +1 or -1")
        two_x, two_y = 2 * self.x, 2 * self.y
        if two_x.denominator != 1 or two_y.denominator != 1:
            raise ValueError("coordinates must be half-integers")
        if d % 4 != 1:
            if self.x.denominator != 1 or self.y.denominator != 1:
                raise ValueError("coordinates must be integers for d = 2,3 mod 4")
        elif (two_x.numerator - two_y.numerator) % 2:
            raise ValueError("2x and 2y must have equal parity for d = 1 mod 4")

    @classmethod
    def make(cls, field: QuadField, x, y) -> "QuadUnit":
        x, y = Fraction(x), Fraction(y)
        norm = x * x - field.d * y * y
        if norm.denominator != 1 or norm.numerator not in (1, -1):
            raise ValueError(f"{x} + {y}*sqrt({field.d}) is not a unit")
        return cls(field, x, y, int(norm))

    def __mul__(self, other: "QuadUnit") -> "QuadUnit":
        if self.field != other.field:
            raise ValueError("units of different fields cannot be multiplied")
        d = self.field.d
        x = self.x * other.x + d * self.y * other.y
        y = self.x * other.y + self.y * other.x
        return QuadUnit(self.field, x, y, self.norm * other.norm)

    def conjugate(self) -> "QuadUnit":
        return QuadUnit(self.field, self.x, -self.y, self.norm)

    def inverse(self) -> "QuadUnit":
        # u * conj(u) = norm, and norm is +-1
        conj = self.conjugate()
        if self.norm == 1:
            return conj
        return QuadUnit(self.field, -conj.x, -conj.y, self.norm)

    def __pow__(self, k: int) -> "QuadUnit":
        # square-and-multiply over the bits of |k|
        base = self if k >= 0 else self.inverse()
        result = QuadUnit(self.field, Fraction(1), Fraction(0), 1)
        k = abs(k)
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def compare_real(self, t) -> int:
        """Sign of (x + y*sqrt(d)) - t for rational t, computed exactly."""
        t = Fraction(t)
        lhs = t - self.x  # compare y*sqrt(d) against this
        d = self.field.d
        if self.y >= 0:
            if lhs < 0:
                return 1
            diff = d * self.y * self.y - lhs * lhs
        else:
            if lhs >= 0:
                return -1
            diff = lhs * lhs - d * self.y * self.y
        return (diff > 0) - (diff < 0)

    def __str__(self) -> str:
        return f"{self.x} + {self.y}*sqrt({self.field.d})"


def _check_precision(precision: int) -> None:
    # the precision asked of eta or the spectrum; guard bits may go beyond it
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    if precision > MAX_PREC_BITS:
        raise ValueError(f"precision {precision} bits exceeds the supported bound {MAX_PREC_BITS}")


def unit_real_value(u: QuadUnit, precision: int = 128) -> mpmath.mpf:
    """The real embedding x + y*sqrt(d), correctly rounded to `precision` bits.

    With X = 2x and Y = 2y, n = floor(2^k * (X + Y*sqrt(d))) takes one integer
    square root.  sqrt(d) is irrational, so the value lies strictly between
    n and n + 1 (in units of 2^-(k+1)); once n has precision + 2 bits no
    rounding boundary lies between them, and (2n + 1) * 2^-(k+2) rounds like
    the value itself.  k grows until n is that long.
    """
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    big_x = 2 * u.x.numerator // u.x.denominator
    big_y = 2 * u.y.numerator // u.y.denominator
    if big_y == 0:
        return mpmath.mpf(big_x // 2)  # the units +-1
    square, k = big_y * big_y * u.field.d, 0
    while True:
        root = isqrt(square << 2 * k)
        n = (big_x << k) + (root if big_y > 0 else ~root)  # ~root = floor(-2^k |Y| sqrt(d))
        missing = precision + 2 - abs(n).bit_length()
        if missing <= 0:
            with mp.workprec(precision):
                return mpmath.mpf((2 * n + 1, -k - 2))
        # |n| <= 1 tells nothing of the scale, so k at least doubles
        k += missing if abs(n) > 1 else max(missing, k)


# ---------------------------------------------------------------------------
# Fundamental unit by one period of a reduced quadratic irrational.


def _check_d(d: int | QuadField) -> QuadField:
    # a QuadField was checked when it was built; QuadField(d) refuses d that
    # is not a squarefree integer > 1
    field = d if isinstance(d, QuadField) else QuadField(d)
    if field.d > MAX_D:
        raise ValueError(f"d = {field.d} exceeds the supported bound {MAX_D}")
    return field


def fundamental_unit(d: int | QuadField) -> QuadUnit:
    """The unit > 1 generating the units of Q(sqrt(d)) modulo +-1.

    omega = (b + sqrt(D))/2, with b the largest integer below sqrt(D) and
    b = D mod 2, is reduced, so its continued fraction is purely periodic
    (Buchmann-Vollmer, Binary Quadratic Forms, ch. 6).  Over one period the
    quotient (P + sqrt(D))/Q runs from (b, 2) back to (b, 2); with q1, q2 the
    last two convergent denominators, eps = q1*omega + q2.

    Here and in ``norm_one_unit``, ``class_number`` and ``eta_analytic``, d
    may be given as a built QuadField, whose d is then not tested again.
    """
    field = _check_d(d)
    big_d = field.fundamental_discriminant
    root = isqrt(big_d)
    b = root - (root - big_d) % 2
    p, q = b, 2
    q1, q2 = 0, 1
    for _ in range(_CF_ITERATION_CAP):
        a = (p + root) // q
        p = a * q - p
        q = (big_d - p * p) // q
        q1, q2 = a * q1 + q2, q1
        if p == b and q == 2:
            # sqrt(D) = s*sqrt(d) with s = 2 for D = 4d and s = 1 for D = d
            s = 2 if big_d != field.d else 1
            unit = QuadUnit.make(field, Fraction(q1 * b + 2 * q2, 2), Fraction(q1 * s, 2))
            assert unit.compare_real(1) > 0
            return unit
    raise RuntimeError(f"continued fraction of sqrt({field.d}) did not cycle within the cap")


def norm_one_unit(d: int | QuadField) -> QuadUnit:
    """The smallest unit > 1 of norm +1: the fundamental unit or its square."""
    eps = fundamental_unit(d)
    return eps if eps.norm == 1 else eps * eps


# ---------------------------------------------------------------------------
# Class numbers by cycles of reduced indefinite binary quadratic forms.


@dataclass(frozen=True)
class ClassData:
    field: QuadField
    narrow_class_number: int
    class_number: int

    def __post_init__(self):
        if self.narrow_class_number < 1 or self.class_number < 1:
            raise ValueError("class numbers are positive")
        if self.narrow_class_number not in (
            self.class_number,
            2 * self.class_number,
        ):
            raise ValueError("narrow class number must be h or 2h")


def _reduced_forms(disc: int) -> set[tuple[int, int, int]]:
    # (a, b, c) with b^2 - 4ac = disc and 0 < b < sqrt(disc) is reduced when
    # sqrt(disc) - b < 2|a| < sqrt(disc) + b, i.e. lo <= |a| <= hi.  |a|, |c|
    # run over divisor pairs a <= n/a of n = (disc - b^2)/4; n/a <= hi forces
    # a >= n/hi > (sqrt(disc) - b)/2, so only a >= lo can meet [lo, hi]
    root = isqrt(disc)
    forms = set()
    for b in range(root - (root - disc) % 2, 0, -2):
        n = (disc - b * b) // 4
        lo, hi = (root - b) // 2 + 1, (root + b) // 2
        for a in range(lo, isqrt(n) + 1):
            if n % a == 0:
                for x in (a, n // a):
                    if lo <= x <= hi:
                        forms.update(((x, b, -n // x), (-x, b, n // x)))
    return forms


def _rho(form: tuple[int, int, int], disc: int, root: int) -> tuple[int, int, int]:
    # reduction step: (a,b,c) -> (c, r, (r^2-disc)/(4c)) where r = -b mod 2|c|
    # is the largest residue below sqrt(disc), and root = isqrt(disc)
    _, b, c = form
    modulus = 2 * abs(c)
    r = root - (root - (-b) % modulus) % modulus
    return (c, r, (r * r - disc) // (4 * c))


def class_number(d: int | QuadField) -> ClassData:
    """Narrow class number as the cycle count of reduced forms of the
    fundamental discriminant; the wide class number follows from the norm of
    the fundamental unit."""
    return _class_data(fundamental_unit(d))


def _class_data(eps: QuadUnit) -> ClassData:
    field = eps.field
    disc = field.fundamental_discriminant
    forms = _reduced_forms(disc)
    root = isqrt(disc)
    remaining = set(forms)
    cycles = 0
    while remaining:
        cycles += 1
        start = min(remaining)
        current = start
        while True:
            remaining.discard(current)
            current = _rho(current, disc, root)
            if current not in forms:
                raise RuntimeError(f"reduction left the reduced set at {current}")
            if current == start:
                break
    if eps.norm == -1:
        h = cycles
    else:
        if cycles % 2:
            raise RuntimeError("narrow class number must be even when N(eps) = +1")
        h = cycles // 2
    return ClassData(field, cycles, h)


# ---------------------------------------------------------------------------
# The analytic unit, by the class-number formula.


def eta_analytic(d: int | QuadField, precision: int = 128) -> mpmath.mpf:
    """The unit eta(d) = eps(d)^(2h) of the class-number formula, which
    equals prod_{r=1}^{disc-1} sin(pi*r/disc)^(-chi(r)) for the fundamental
    discriminant disc of Q(sqrt(d)) and chi(r) the Kronecker symbol (disc/r).

    eta is an exact unit of the ring of integers, so ``unit_real_value``
    rounds it correctly from its integer coordinates.
    """
    eps = fundamental_unit(d)  # checks d before the precision
    _check_precision(precision)
    return unit_real_value(eps ** (2 * _class_data(eps).class_number), precision)
