"""Real quadratic fields Q(sqrt(d)), 1 < d <= MAX_D, from the reduced
quadratic irrationals of the fundamental discriminant D: one continued
fraction period of omega = (b + sqrt(D))/2 gives the fundamental unit, and
the narrow class number counts the cycles of the reduced forms (a, b, c)
under reduction.  Each cycle holds a key, a form with |a| <= sqrt(D)/2;
the keys are counted from the square roots of D mod 4a without being
listed, and cycles are walked from the principal form and then from keys
not met yet, listed lazily, until every key is met.  The analytic unit
eta(d) = eps(d)^(2h) of the class-number formula follows from both.

A unit is kept as the integers X = 2x, Y = 2y of x + y*sqrt(d); the unit and
class-number computations are exact, and every real value of a unit is
correctly rounded from one integer bracket of X + Y*sqrt(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING, Iterator

from .arith import _sqrt_mod_prime, is_squarefree

if TYPE_CHECKING:  # mpmath is imported where a real value is made, not at start-up
    import mpmath

MAX_D = 10**6
# Most bits of any real value of a unit: eta, geodesic lengths and the
# spectrum generators (the CLI's --prec and ARITHGENUS_PREC_BITS); a spectrum
# at the bound limit and 1024 bits takes about 1 s
MAX_PREC_BITS = 1024
_CF_ITERATION_CAP = 10**7


@dataclass(frozen=True)
class QuadField:
    """The field Q(sqrt(d)) for squarefree d > 1."""

    d: int

    def __post_init__(self):
        if self.d <= 1 or not is_squarefree(self.d):
            raise ValueError("d must be a squarefree integer > 1")

    @property
    def fundamental_discriminant(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d


@dataclass(frozen=True)
class QuadUnit:
    """A unit x + y*sqrt(d) = (X + Y*sqrt(d))/2 of the ring of integers of
    Q(sqrt(d)), kept as the integers X and Y.  Its norm is +1 or -1 and
    X^2 - d*Y^2 = 4*norm, which for squarefree d alone makes X and Y even
    for d = 2, 3 mod 4 and of equal parity for d = 1 mod 4."""

    field: QuadField
    X: int
    Y: int
    norm: int

    def __post_init__(self):
        if self.X * self.X - self.field.d * self.Y * self.Y != 4 * self.norm:
            raise ValueError("norm does not match the coordinates")
        if self.norm not in (1, -1):
            raise ValueError("a unit has norm +1 or -1")

    @property
    def x(self) -> Fraction:
        return Fraction(self.X, 2)

    @property
    def y(self) -> Fraction:
        return Fraction(self.Y, 2)

    def __mul__(self, other: "QuadUnit") -> "QuadUnit":
        if self.field != other.field:
            raise ValueError("units of different fields cannot be multiplied")
        big_x = (self.X * other.X + self.field.d * self.Y * other.Y) // 2
        big_y = (self.X * other.Y + self.Y * other.X) // 2
        return QuadUnit(self.field, big_x, big_y, self.norm * other.norm)

    def __pow__(self, k: int) -> "QuadUnit":
        # square-and-multiply over the bits of |k|; for k < 0 the base is 1/u,
        # which is norm * conj(u) since u * conj(u) = norm = +-1
        n = self.norm
        base = self if k >= 0 else QuadUnit(self.field, n * self.X, -n * self.Y, n)
        result = QuadUnit(self.field, 2, 0, 1)
        k = abs(k)
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __str__(self) -> str:
        return f"{self.x} + {self.y}*sqrt({self.field.d})"


def _check_precision(precision: int) -> None:
    # the precision asked of any real value of a unit
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    if precision > MAX_PREC_BITS:
        raise ValueError(f"precision {precision} bits exceeds the supported bound {MAX_PREC_BITS}")


def _bracket(u: QuadUnit, bits: int) -> tuple[int, int]:
    """(n, k) with X + Y*sqrt(d) strictly inside (n, n + 1) * 2^-k and |n| of
    at least `bits` bits, for a unit with Y != 0: n = floor(2^k * (X + Y*sqrt(d)))
    takes one integer square root, and is never the value, as sqrt(d) is
    irrational.  k grows until n is long enough."""
    square, k = u.Y * u.Y * u.field.d, 0
    while True:
        root = isqrt(square << 2 * k)
        n = (u.X << k) + (root if u.Y > 0 else ~root)  # ~root = floor(-2^k |Y| sqrt(d))
        missing = bits - abs(n).bit_length()
        if missing <= 0:
            return n, k
        # |n| <= 1 tells nothing of the scale, so k at least doubles
        k += missing if abs(n) > 1 else max(missing, k)


def unit_real_value(u: QuadUnit, precision: int) -> mpmath.mpf:
    """The real embedding x + y*sqrt(d), correctly rounded to `precision` bits:
    ``_bracket`` puts it strictly inside (n, n + 1) * 2^-(k+1) with n of
    precision + 2 bits, so no rounding boundary lies there, and the midpoint
    (2n + 1) * 2^-(k+2) rounds like the value itself."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp, round_nearest

    _check_precision(precision)
    if u.Y == 0:
        return mp.mpf(u.X // 2)  # the units +-1
    n, k = _bracket(u, precision + 2)
    return mp.make_mpf(from_man_exp(2 * n + 1, -k - 2, precision, round_nearest))


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
    for steps in range(1, _CF_ITERATION_CAP + 1):
        a = (p + root) // q
        p = a * q - p
        q = (big_d - p * p) // q
        q1, q2 = a * q1 + q2, q1
        if p == b and q == 2:
            # sqrt(D) = s*sqrt(d) with s = 2 for D = 4d and s = 1 for D = d;
            # the norm is -1 to the period length
            s = 2 if big_d != field.d else 1
            unit = QuadUnit(field, q1 * b + 2 * q2, q1 * s, (-1) ** steps)
            # X, Y > 0 put the unit above |conjugate| = 1/unit, so unit > 1
            assert unit.X > 0 < unit.Y
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


def _root_tables(disc: int, top: int) -> tuple[list[int], list[list[int]]]:
    """The smallest prime factor of each n <= top, and for each 2^e <= top
    the x mod 2^(e+1) with x^2 = disc mod 2^(e+2), each kept and lifted from
    the last by x -> x, x + 2^e."""
    # smallest prime factor: the least divisor p > 1 with p^2 <= n, written last
    spf = list(range(top + 1))
    for p in range(isqrt(top), 1, -1):
        spf[p * p::p] = [p] * ((top - p * p) // p + 1)
    two_roots = [[disc % 2]]
    while two_roots[-1] and 1 << len(two_roots) <= top:
        power = 1 << len(two_roots)
        two_roots.append([y for x in two_roots[-1] for y in (x, x + power)
                          if (y * y - disc) % (power << 2) == 0])
    return spf, two_roots


def _reduced_keys(disc: int, root: int, top: int, spf: list[int],
                  two_roots: list[list[int]]) -> Iterator[tuple[int, int]]:
    """Yield (a, b) for each reduced form (a, b, (b^2 - disc)/(4a)) with
    0 < a <= top = isqrt(disc)//2, the keys, by increasing odd part of a.

    A reduced form (a, b, c) has b^2 - 4ac = disc, 0 < b < sqrt(disc) and
    sqrt(disc) - b < 2|a| < sqrt(disc) + b, so 0 < 2a <= isqrt(disc) leaves
    sqrt(disc) - 2a < b < sqrt(disc): one b in each class x mod 2a with
    x^2 = disc mod 4a.  For a = 2^e * m with m odd, x comes by CRT from the
    x mod 2^(e+1) in two_roots[e] and the roots mod m: Tonelli-Shanks mod
    each prime p, lifted to p^k (an odd p | disc divides it once, so p^2 has
    no root), and CRT over the primes; spf holds smallest prime factors.
    """
    odd_roots = {1: [0]}  # x mod m with x^2 = disc mod m, for odd m
    for m in range(1, top + 1, 2):
        if m > 1:
            odd_roots[m] = _odd_roots(m, spf[m], odd_roots, disc)
        ys = odd_roots[m]
        if not ys:
            continue
        # a = 2^e * m: x = t mod 2^(e+1) and y mod m, with k = 2^-(e+1) mod m
        half = k = (m + 1) // 2
        for e, ts in enumerate(two_roots):
            a = m << e
            if a > top:
                break
            modulus, two_a = 2 << e, 2 * a
            for t in ts:
                for y in ys:
                    yield a, root - (root - t - modulus * ((y - t) * k % m)) % two_a
            k = k * half % m


def _key_count(disc: int, top: int, spf: list[int], two_roots: list[list[int]]) -> int:
    """The number of keys, sum over 0 < a <= top of the roots x mod 2a of
    x^2 = disc mod 4a, without listing them: for a = 2^e * m with m odd
    that is len(two_roots[e]) * rho(m), rho(m) the roots mod m, which is
    multiplicative with rho(p^k) = 1 + (disc/p) for an odd p not dividing
    disc, and rho(p) = 1, rho(p^k) = 0 for k >= 2 when p | disc."""
    rho = [0, 1] + [0] * (top - 1)  # filled at odd m
    for m in range(3, top + 1, 2):
        p = spf[m]
        rest = m // p
        if rest == 1:
            rho[m] = 1 if disc % p == 0 else 2 if pow(disc, (p - 1) // 2, p) == 1 else 0
        elif rest % p:
            rho[m] = rho[p] * rho[rest]
        elif disc % p:
            rho[m] = rho[rest]
    return sum(len(ts) * sum(rho[1:(top >> e) + 1:2]) for e, ts in enumerate(two_roots))


def _odd_roots(m: int, p: int, odd_roots: dict[int, list[int]], disc: int) -> list[int]:
    # the roots mod the odd m > 1 with smallest prime factor p, from those
    # mod smaller odd moduli
    q = p
    while m % (q * p) == 0:
        q *= p
    if q < m:
        rest = m // q
        if not odd_roots[q] or not odd_roots[rest]:
            return []
        k = pow(q, -1, rest)  # CRT
        return [x + q * ((y - x) * k % rest) for x in odd_roots[q] for y in odd_roots[rest]]
    if q > p:  # lift each root mod q/p to the p roots above it that remain
        step = q // p
        return [y for x in odd_roots[step] for y in range(x, q, step) if (y * y - disc) % q == 0]
    x = _sqrt_mod_prime(disc, p)
    return [] if x is None else [x, p - x] if x else [0]


def class_number(d: int | QuadField) -> ClassData:
    """Narrow class number as the cycle count of reduced forms of the
    fundamental discriminant; the wide class number follows from the norm of
    the fundamental unit."""
    return _class_data(fundamental_unit(d))


def _class_data(eps: QuadUnit) -> ClassData:
    """The narrow class number h+ counts the cycles of reduced forms under
    reduction, (a, b, c) -> (c, b', (b'^2 - disc)/(4c)) with b' = -b mod 2|c|
    the largest such residue below sqrt(disc) (Buchmann-Vollmer, Binary
    Quadratic Forms, ch. 6).  Consecutive forms share a coefficient and
    |a|*|c| < disc/4, so every cycle has a form with |a| <= top =
    isqrt(disc)//2, a key.  Reduction commutes with (a, b, c) -> (-a, b, -c),
    so a cycle is its own negative, met halfway round, or the pair of a
    cycle and its negative: a walk marks (|a|, b) of each key it meets and
    stops at its start or at the negated start.  The walks start at the
    principal form and then at unmarked keys of ``_reduced_keys`` until
    every one of the ``_key_count`` keys is marked; when h+ = 1 no root is
    computed."""
    field = eps.field
    disc = field.fundamental_discriminant
    root = isqrt(disc)
    top = root // 2
    spf, two_roots = _root_tables(disc, top)
    count = _key_count(disc, top, spf, two_roots)
    keys = _reduced_keys(disc, root, top, spf, two_roots)  # runs on its first next()
    marked: set[tuple[int, int]] = set()
    start, cycles = (1, root - (root - disc) % 2), 0  # the principal form
    while True:
        a0, b0 = a, b = start
        c = (b * b - disc) // (4 * a)
        while True:
            # a > 0 > c here; one step to a < 0 < c, then one back
            if a <= top:
                marked.add((a, b))
            b = root - (root + b) % (-2 * c)
            a, c = c, (b * b - disc) // (4 * c)
            if a == -a0 and b == b0:
                cycles += 1
                break
            if -a <= top:
                marked.add((-a, b))
            b = root - (root + b) % (2 * c)
            a, c = c, (b * b - disc) // (4 * c)
            if a == a0 and b == b0:
                cycles += 2
                break
        if len(marked) == count:
            break
        start = next((key for key in keys if key not in marked), None)
        if start is None:
            raise RuntimeError(f"the reduced forms ran out with {len(marked)} of {count} keys met")
    if eps.norm == -1:
        h = cycles
    else:
        if cycles % 2:
            raise RuntimeError("narrow class number must be even when N(eps) = +1")
        h = cycles // 2
    return ClassData(field, cycles, h)


# ---------------------------------------------------------------------------
# The analytic unit, by the class-number formula.


def eta_analytic(d: int | QuadField, precision: int) -> mpmath.mpf:
    """The unit eta(d) = eps(d)^(2h) of the class-number formula, which
    equals prod_{r=1}^{disc-1} sin(pi*r/disc)^(-chi(r)) for the fundamental
    discriminant disc of Q(sqrt(d)) and chi(r) the Kronecker symbol (disc/r),
    correctly rounded by ``unit_real_value`` from its integer coordinates."""
    eps = fundamental_unit(d)  # checks d before the precision
    _check_precision(precision)
    return unit_real_value(eps ** (2 * _class_data(eps).class_number), precision)
