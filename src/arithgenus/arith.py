"""Exact arithmetic over Q and its completions.

Factorization, Kronecker symbols, p-adic valuations, local square tests and
Hilbert symbols, all on exact integers: a local test reads a rational q
through its square class, the integer numerator * denominator.  Primality is
proven (Miller-Rabin below psi_13) or refused, never assumed, and integers
above MAX_INTEGER_BITS are neither factored nor tested.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt
from typing import Sequence, Union

Rational = Union[int, Fraction]

_TRIAL_BOUND = 2**12
# Deterministic Miller-Rabin witness set: the primes 2..41 prove primality for
# n below psi_13 (Sorenson-Webster, Math. Comp. 86, 2017); 2..37 alone only
# below psi_12 = 318665857834031151167461, which is composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3317044064679887385961981
# Brent-rho iterations one factorization may spend in total (about a second
# in CPython); rho finds a prime factor p in about sqrt(p) iterations, so
# every factor below about 2**34 is found well within it.
_RHO_BUDGET = 2**20
# Largest bit length of an integer that is factored or tested for primality.
# Refusing a semiprime without small factors costs the whole rho budget, and
# the time grows with the size: in CPython 3.11 on a 2-vCPU host, about 0.7 s
# at 96 bits, 1.4 s at 256 and 3.4 s at 512.  No prime above _MR_PROVEN_BOUND
# (82 bits) is proven anyway.
MAX_INTEGER_BITS = 256
# Most digits a rational written as text may denote: CPython's default cap on
# int() of a digit string, fixed here so that it does not follow the
# environment.  Fraction builds 10**e for an exponent e arithmetically, past
# that cap: "1e2000000" would take minutes to build and to take valuations of.
MAX_LITERAL_DIGITS = 4300
# The digits after the point and of the exponent, as Fraction reads them
_SCALE = re.compile(r"(?:\.(\d+(?:_\d+)*))?(?:[eE][-+]?(\d+(?:_\d+)*))?\s*\Z")


# ---------------------------------------------------------------------------
# Rationals from text


def parse_rational(text: str) -> Fraction:
    """Fraction(text), by int() for a signed run of digits; refused before any
    power of 10 is built when it has more than MAX_LITERAL_DIGITS digits after
    the point or an exponent of MAX_LITERAL_DIGITS or more in absolute value."""
    if (text[1:] if text[:1] in ("+", "-") else text).isdecimal():
        return Fraction(int(text))
    if "e" in text or "E" in text or "." in text:
        fraction, exponent = _SCALE.search(text).groups(default="")
        exponent = exponent.replace("_", "").lstrip("0")
        if (len(fraction.replace("_", "")) > MAX_LITERAL_DIGITS or len(exponent) > 9
                or int(exponent or 0) >= MAX_LITERAL_DIGITS):
            raise ValueError(f"denotes more than {MAX_LITERAL_DIGITS} digits")
    return Fraction(text)


# ---------------------------------------------------------------------------
# Places of Q


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, or the real place (prime=None)."""

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime, so not a finite place")

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def sort_key(self) -> tuple[int, int]:
        # finite places ascending, the real place last
        return (1, 0) if self.prime is None else (0, self.prime)

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)

    @classmethod
    def parse(cls, text: str) -> "Place":
        text = text.strip()
        if text in ("inf", "oo", "real"):
            return REAL_PLACE
        return cls(int(text))


REAL_PLACE = Place(None)


# ---------------------------------------------------------------------------
# Primality and factorization


def _check_size(n: int) -> None:
    if n.bit_length() > MAX_INTEGER_BITS:
        raise ValueError(
            f"integer of {n.bit_length()} bits exceeds the supported bound {MAX_INTEGER_BITS} bits")


def is_prime(n: int) -> bool:
    """Whether n is prime, proven by Miller-Rabin to the bases _MR_BASES.

    A failing base proves n composite at any size; an n of at least
    _MR_PROVEN_BOUND that passes every base is refused with ValueError, as
    its primality is not proven.
    """
    if n < 2:
        return False
    _check_size(n)
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN_BOUND:
        raise ValueError(f"cannot prove {n} prime")
    return True


def _brent_rho(n: int, c: int, budget: int) -> tuple[int, int]:
    # Brent's cycle variant of Pollard rho with a fixed increment c.
    # Returns (g, steps): a nontrivial factor g, or n on failure, and the
    # iterations spent.  Raises before a round would pass `budget` iterations.
    if n % 2 == 0:
        return 2, 0
    y, m, g, r, q = 2, 128, 1, 1, 1
    x = ys = y
    steps = 0
    while g == 1:
        if steps + 2 * r > budget:
            raise ValueError(
                f"factorization gave up: no factor of {n} within {_RHO_BUDGET} rho iterations")
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and g == 1:
            ys = y
            block = min(m, r - k)
            for _ in range(block):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            steps += block
            g = gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # the product passed a multiple of n inside the last block (at most
        # m steps); redo that block one gcd at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            steps += 1
            g = gcd(abs(x - ys), n)
    return g, steps


def _primes_up_to(n: int) -> tuple[int, ...]:
    # a sieve of slices, run at import: about 0.1 ms for n = 2**12
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(compress(range(n + 1), sieve))


_TRIAL_PRIMES = _primes_up_to(_TRIAL_BOUND)


def _factor_positive(n: int) -> dict[int, int]:
    """Factor n >= 1 into a prime -> exponent map.

    Trial division by the primes up to 2**12, then deterministic Brent-rho
    splitting with increasing increments and at most _RHO_BUDGET iterations
    in total.  A composite that survives the budget raises ValueError rather
    than being reported as prime; every failed increment spends part of it.
    """
    _check_size(n)
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    else:
        p = _TRIAL_BOUND + 1  # no prime factor up to the bound
    if n == 1:
        return factors
    if p * p > n:  # no factor up to its square root: prime
        factors[n] = 1
        return factors
    budget = _RHO_BUDGET
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g, c = m, 0
        while not 1 < g < m:
            c += 1
            g, steps = _brent_rho(m, c, budget)
            budget -= steps
        stack.extend((g, m // g))
    return factors


@dataclass(frozen=True)
class Factorization:
    """Signed factorization sign * prod p**e of a nonzero rational.

    Primes are strictly increasing and exponents nonzero (negative exponents
    for denominators).
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if any(e == 0 for _, e in self.factors):
            raise ValueError("exponents must be nonzero")


def factor(q: Rational) -> Factorization:
    """Exact signed factorization of a nonzero rational."""
    if q == 0:
        raise ValueError("cannot factor 0")
    # numerator and denominator are coprime, so no prime is in both
    exponents = _factor_positive(abs(q.numerator))
    exponents.update((p, -e) for p, e in _factor_positive(q.denominator).items())
    return Factorization(1 if q > 0 else -1, tuple(sorted(exponents.items())))


def _prime_powers(values: Sequence[Rational]) -> list[tuple[tuple[int, int], ...]]:
    """factor(q).factors for each q, from one factorization of each distinct
    |q| in first-occurrence order, so the first refused value is reported."""
    keys = [(abs(q.numerator), q.denominator) for q in values]  # cheaper to hash than q
    known: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for key, q in zip(keys, values):
        if key not in known:
            known[key] = factor(q).factors
    return [known[key] for key in keys]


def squarefree_part(n: int) -> int:
    """The unique squarefree s with n = s * m**2; the sign of n is kept."""
    if not isinstance(n, int):
        raise ValueError("squarefree_part expects an integer")
    if n == 0:
        raise ValueError("0 has no squarefree part")
    s = 1 if n > 0 else -1
    for p, e in _factor_positive(abs(n)).items():
        if e % 2:
            s *= p
    return s


def is_squarefree(n: int) -> bool:
    return n != 0 and squarefree_part(n) == n


# ---------------------------------------------------------------------------
# Residue symbols


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a/n) with the standard conventions."""
    if a == 0 and n == 0:
        raise ValueError("(0/0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    return result * _jacobi(a, n)


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """An x with x^2 = a mod the odd prime p, or None when a is not a square
    mod p: a^((p+1)/4), checked, for p = 3 mod 4; otherwise Euler's
    criterion, then Tonelli-Shanks.  The other root is -x."""
    a %= p
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
        return x if x * x % p == a else None
    if a and pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0  # p - 1 = q * 2^s with q odd
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:  # a non-residue
        z += 1
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:
        # t has order 2^i < 2^s; c^(2^(s-i-1)) squared has order 2^i too
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return x


# ---------------------------------------------------------------------------
# Local analysis


def padic_valuation(q: Rational, p: int) -> int:
    """Exponent of the prime p in the nonzero rational q."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if q == 0:
        raise ValueError("valuation of 0 is undefined")
    return _split(q.numerator, p)[0] - _split(q.denominator, p)[0]


def _split(n: int, p: int) -> tuple[int, int]:
    """Write the nonzero integer n = p**v * u with u prime to p; returns (v, u)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def is_local_square(q: Rational, v: Place) -> bool:
    """Whether q is a square in the completion of Q at v."""
    n = q.numerator * q.denominator  # the square class of q
    if n == 0:
        raise ValueError("0 is not a unit; square test undefined")
    if v.is_real:
        return n > 0
    p = v.prime
    val, u = _split(n, p)
    if val % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return _jacobi(u, p) == 1


def hilbert_symbol(a: Rational, b: Rational, v: Place) -> int:
    """The Hilbert symbol (a,b)_v: +1 iff z**2 = a*x**2 + b*y**2 has a
    nontrivial solution over the completion at v.  It depends only on the
    square classes of a and b, read as the integers numerator * denominator."""
    a, b = a.numerator * a.denominator, b.numerator * b.denominator
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if v.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = v.prime
    alpha, u = _split(a, p)
    beta, w = _split(b, p)
    if p == 2:
        # epsilon(u) = 1 iff u = 3 mod 4, omega(u) = 1 iff u = 3, 5 mod 8
        e = (u % 4 == 3 and w % 4 == 3) + alpha * (w % 8 in (3, 5)) + beta * (u % 8 in (3, 5))
        return -1 if e % 2 else 1
    s = -1 if alpha % 2 and beta % 2 and p % 4 == 3 else 1
    if beta % 2:
        s *= _jacobi(u, p)
    if alpha % 2:
        s *= _jacobi(w, p)
    return s


def support_places(*values: Rational) -> list[Place]:
    """The real place, 2, and every odd prime dividing one of the values.

    Hilbert symbols of the values are +1 at every place outside this list.
    """
    primes = {2}.union(*([p for p, _ in powers] for powers in _prime_powers(values)))
    return [Place(p) for p in sorted(primes)] + [REAL_PLACE]
