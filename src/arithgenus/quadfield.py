"""Real quadratic fields Q(sqrt(d)): fundamental units by continued
fractions, narrow class numbers by cycles of reduced indefinite forms, and
the analytic unit eta(d) = eps(d)^(2h) of the class-number formula.

The unit and class-number computations are exact; only real embeddings use
(high-precision) floating point via mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath import mp

from .arith import is_squarefree

DEFAULT_MAX_D = 10**6
_GUARD_BITS = 64
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


def unit_real_value(u: QuadUnit, precision: int = 128) -> mpmath.mpf:
    """The real embedding x + y*sqrt(d) at the requested precision in bits."""
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    with mp.workprec(precision + _GUARD_BITS):
        value = (
            mpmath.mpf(u.x.numerator) / u.x.denominator
            + mpmath.mpf(u.y.numerator) / u.y.denominator * mp.sqrt(u.field.d)
        )
    with mp.workprec(precision):
        return +value


# ---------------------------------------------------------------------------
# Fundamental unit by the continued fraction of sqrt(d) or (1+sqrt(d))/2.


def _check_d(d: int | QuadField, max_d: int) -> QuadField:
    # a QuadField was checked when it was built; QuadField(d) refuses d that
    # is not a squarefree integer > 1
    field = d if isinstance(d, QuadField) else QuadField(d)
    if field.d > max_d:
        raise ValueError(f"d = {field.d} exceeds the supported bound {max_d}")
    return field


def fundamental_unit(d: int | QuadField, max_d: int = DEFAULT_MAX_D) -> QuadUnit:
    """The unit > 1 generating the units of Q(sqrt(d)) modulo +-1.

    Runs the continued-fraction recurrence on (P + sqrt(D))/Q starting from
    sqrt(d) (D = 4d) or (1 + sqrt(d))/2 (D = d, for d = 1 mod 4).  The first
    recurrence of a complete quotient closes one primitive period; the
    corresponding convergent matrix fixes that quotient and its bottom row
    yields the fundamental unit.

    Here and in ``norm_one_unit``, ``class_number`` and ``eta_analytic``, d
    may be given as a built QuadField, whose d is then not tested again.
    """
    field = _check_d(d, max_d)
    d = field.d
    if d % 4 == 1:
        big_d, p_cur, q_cur = d, 1, 2
    else:
        big_d, p_cur, q_cur = 4 * d, 0, 2
    sqrt_big_d = isqrt(big_d)

    # convergent state: (p_{i-1}, p_{i-2}, q_{i-1}, q_{i-2}) entering step i
    conv = (1, 0, 0, 1)
    seen: dict[tuple[int, int], tuple[int, tuple[int, int, int, int]]] = {}
    for step in range(_CF_ITERATION_CAP):
        state = (p_cur, q_cur)
        if state in seen:
            first_step, first_conv = seen[state]
            return _unit_from_period(field, big_d, state, first_step, first_conv, step, conv)
        seen[state] = (step, conv)
        a = (p_cur + sqrt_big_d) // q_cur
        p_next = a * q_cur - p_cur
        q_next = (big_d - p_next * p_next) // q_cur
        p1, p2, q1, q2 = conv
        conv = (a * p1 + p2, p1, a * q1 + q2, q1)
        p_cur, q_cur = p_next, q_next
    raise RuntimeError(f"continued fraction of sqrt({d}) did not cycle within the cap")


def _unit_from_period(field, big_d, state, m, conv_m, n, conv_n) -> QuadUnit:
    # conv_m and conv_n are the convergent matrices M_m, M_n with
    # M_i = [[p_{i-1}, p_{i-2}], [q_{i-1}, q_{i-2}]].  The complete quotient
    # beta at steps m and n coincides, so N = M_m^{-1} M_n fixes beta and
    # N21*beta + N22 is a unit of the order of discriminant big_d.
    pm1, pm2, qm1, qm2 = conv_m
    pn1, pn2, qn1, qn2 = conv_n
    det_m = 1 if m % 2 == 0 else -1
    n21 = det_m * (-qm1 * pn1 + pm1 * qn1)
    n22 = det_m * (-qm1 * pn2 + pm1 * qn2)
    p_state, q_state = state
    # beta = (p_state + sqrt(big_d)) / q_state, sqrt(big_d) in terms of sqrt(d)
    sqrt_scale = 2 if big_d == 4 * field.d else 1
    x = Fraction(n21 * p_state, q_state) + n22
    y = Fraction(n21 * sqrt_scale, q_state)
    unit = QuadUnit.make(field, abs(x), abs(y))
    assert unit.compare_real(1) > 0
    return unit


def norm_one_unit(d: int | QuadField, max_d: int = DEFAULT_MAX_D) -> QuadUnit:
    """The smallest unit > 1 of norm +1: the fundamental unit or its square."""
    eps = fundamental_unit(d, max_d)
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
    # (a, b, c) with b^2 - 4ac = disc, 0 < b < sqrt(disc) and
    # sqrt(disc) - b < 2|a| < sqrt(disc) + b
    root = isqrt(disc)
    forms = set()
    for b in range(1, root + 1):
        if (disc - b * b) % 4 or b * b >= disc:
            continue
        ac = (b * b - disc) // 4  # negative
        for a in range(1, isqrt(-ac) + 1):
            if ac % a:
                continue
            for first, second in ((a, ac // a), (ac // a, a)):
                for sign in (1, -1):
                    aa, cc = sign * first, sign * second
                    lower_ok = (2 * abs(aa) + b) ** 2 > disc
                    upper_ok = 2 * abs(aa) < b or (2 * abs(aa) - b) ** 2 < disc
                    if lower_ok and upper_ok:
                        forms.add((aa, b, cc))
    return forms


def _rho(form: tuple[int, int, int], disc: int) -> tuple[int, int, int]:
    # reduction step: (a,b,c) -> (c, r, (r^2-disc)/(4c)) where r = -b mod 2|c|
    # is the largest residue below sqrt(disc)
    _, b, c = form
    modulus = 2 * abs(c)
    bound = isqrt(disc)
    r = bound - (bound - (-b) % modulus) % modulus
    return (c, r, (r * r - disc) // (4 * c))


def class_number(d: int | QuadField, max_d: int = DEFAULT_MAX_D) -> ClassData:
    """Narrow class number as the cycle count of reduced forms of the
    fundamental discriminant; the wide class number follows from the norm of
    the fundamental unit."""
    return _class_data(fundamental_unit(d, max_d))


def _class_data(eps: QuadUnit) -> ClassData:
    field = eps.field
    disc = field.fundamental_discriminant
    forms = _reduced_forms(disc)
    remaining = set(forms)
    cycles = 0
    while remaining:
        cycles += 1
        start = min(remaining)
        current = start
        while True:
            remaining.discard(current)
            current = _rho(current, disc)
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


def eta_analytic(
    d: int | QuadField, precision: int = 128, max_d: int = DEFAULT_MAX_D
) -> mpmath.mpf:
    """The unit eta(d) = eps(d)^(2h) of the class-number formula, which
    equals prod_{r=1}^{disc-1} sin(pi*r/disc)^(-chi(r)) for the fundamental
    discriminant disc of Q(sqrt(d)) and chi(r) the Kronecker symbol (disc/r).

    eta has norm +1, so eta = 2x - 1/eta with 2x its integer trace; 1/eta is
    taken at 64 guard bits and the difference is rounded once.
    """
    eps = fundamental_unit(d, max_d)  # checks d before the precision
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    eta = eps ** (2 * _class_data(eps).class_number)
    with mp.workprec(precision + _GUARD_BITS):
        inverse = 1 / unit_real_value(eta, precision + _GUARD_BITS)
    return mp.fsub(int(2 * eta.x), inverse, prec=precision)
