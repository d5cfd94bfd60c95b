"""Weak commensurability of semi-simple elements through their eigenvalues.

A set of nonzero rational eigenvalues generates a subgroup of Q^x; two
elements are weakly commensurable when those subgroups share an element other
than +-1.  Q^x is {+-1} x (free abelian group on the primes), so the test is
exact integer linear algebra on exponent vectors with the sign tracked as a
Z/2 coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2, prod
from operator import mul
from typing import Optional

from .arith import MAX_LITERAL_DIGITS, Rational, _prime_powers, factor, is_prime

# Most bits, numerator and denominator together, of a witness that
# intersection_witness builds: one bit, a margin for the float sum, under
# log2(10**MAX_LITERAL_DIGITS), so the CLI writes no more digits than it reads
# (seed-0 benchmark witnesses have at most 862)
MAX_WITNESS_BITS = int(MAX_LITERAL_DIGITS * log2(10)) - 1


@dataclass(frozen=True)
class ExponentVector:
    """Coordinates of a nonzero rational on an ordered prime support."""

    primes: tuple[int, ...]
    exponents: tuple[int, ...]
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.primes) != len(self.exponents):
            raise ValueError("primes and exponents must align")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("support must be strictly increasing")


def to_exponent_vector(q: Rational, support: tuple[int, ...]) -> ExponentVector:
    support = tuple(support)
    for p in support:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    fact = factor(q)
    exponents = dict(fact.factors)
    missing = set(exponents) - set(support)
    if missing:
        raise ValueError(f"support is missing primes {sorted(missing)}")
    return ExponentVector(
        support, tuple(exponents.get(p, 0) for p in support), fact.sign
    )


@dataclass(frozen=True)
class RationalEigenvalues:
    """Eigenvalue data given by nonzero rational numbers."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("eigenvalue set must be nonempty")
        if any(v == 0 for v in self.values):
            raise ValueError("eigenvalues must be nonzero")


# ---------------------------------------------------------------------------
# Integer lattice utilities (exact; no floating point anywhere).


def _left_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the integer left kernel {u : u * M = 0} of the matrix with
    the given rows.

    Reduces [M | I] by unimodular row operations; the transformation rows
    facing zeroed-out matrix rows span (and saturate) the kernel.
    """
    m = len(rows)
    if m == 0:
        return []
    width = len(rows[0])
    a = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    rank = 0
    for col in range(width):
        if rank == m:
            break
        while True:
            pivot = None
            for i in range(rank, m):
                if a[i][col] and (pivot is None or abs(a[i][col]) < abs(a[pivot][col])):
                    pivot = i
            if pivot is None:
                break
            a[rank], a[pivot] = a[pivot], a[rank]
            u[rank], u[pivot] = u[pivot], u[rank]
            if a[rank][col] < 0:
                a[rank] = [-x for x in a[rank]]
                u[rank] = [-x for x in u[rank]]
            head = a[rank][col]
            finished = True
            for i in range(rank + 1, m):
                q = a[i][col] // head
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[rank])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[rank])]
                if a[i][col]:
                    finished = False
            if finished:
                rank += 1
                break
    return [u[i] for i in range(m) if not any(a[i])]


def _exponent_rows(
    *sets: RationalEigenvalues,
) -> tuple[tuple[int, ...], list[tuple[list[list[int]], list[int]]]]:
    # each distinct |value| is factored once; the union support and every
    # set's exponent rows are read off those factorizations, and the sign
    # parities off the values
    values = [v for s in sets for v in s.values]
    exponents = iter([dict(powers) for powers in _prime_powers(values)])
    per_set = [[next(exponents) for _ in s.values] for s in sets]
    support = tuple(sorted({p for es in per_set for e in es for p in e}))
    return support, [([[e.get(p, 0) for p in support] for e in es], [int(v < 0) for v in s.values])
                     for s, es in zip(sets, per_set)]


def _common_element(
    s1: RationalEigenvalues, s2: RationalEigenvalues
) -> Optional[tuple[tuple[int, ...], list[int], int]]:
    """The common element != 1 that intersection_witness returns, as
    (primes, exponents, sign) for sign * prod p**e; no primes for -1, and
    None when the groups meet only in 1.

    Solves x*A = y*B over Z via the left kernel of the stacked matrix
    [A; -B]; a kernel element with nonzero image gives |g| realized in both
    groups, and squaring reconciles the signs when they disagree.  The signs
    are read from the sign parities, so no power product is built.  Each
    value is factored once, and one kernel answers both questions.
    """
    support, ((a_rows, a_signs), (b_rows, b_signs)) = _exponent_rows(s1, s2)
    kernel = _left_kernel(a_rows + [[-x for x in row] for row in b_rows])
    r1 = len(a_rows)
    for u in kernel:
        x, y = u[:r1], u[r1:]
        image = [sum(xi * row[j] for xi, row in zip(x, a_rows)) for j in range(len(support))]
        if any(image):
            odd = sum(map(mul, x, a_signs)) % 2
            if odd == sum(map(mul, y, b_signs)) % 2:
                return support, image, -1 if odd else 1
            return support, [2 * e for e in image], 1
    # every kernel vector has image 0, so the kernel is ker A + ker B, and -1
    # lies in a group iff some kernel vector has odd sign parity on its part
    a_odd = any(sum(map(mul, u[:r1], a_signs)) % 2 for u in kernel)
    b_odd = any(sum(map(mul, u[r1:], b_signs)) % 2 for u in kernel)
    return ((), [], -1) if a_odd and b_odd else None


# ---------------------------------------------------------------------------
# Public predicates.


def groups_intersect(s1: RationalEigenvalues, s2: RationalEigenvalues) -> bool:
    """Whether the eigenvalue-generated subgroups of Q^x share an element
    other than 1."""
    return _common_element(s1, s2) is not None


def intersection_witness(
    s1: RationalEigenvalues, s2: RationalEigenvalues
) -> Optional[Fraction]:
    """A common element != 1 of the two rational eigenvalue groups, if any;
    prefers an infinite-order witness and falls back to -1.

    The witness's size is known from its exponents before it is built: one
    of more than MAX_WITNESS_BITS bits (the sum of |e| * log2 p) is refused
    with ValueError.  The verdicts of groups_intersect and
    weakly_commensurable need no witness and are never refused.
    """
    common = _common_element(s1, s2)
    if common is None:
        return None
    support, exponents, sign = common
    # each prime adds |e| * log2 p >= |e| bits, so the first test keeps the
    # float sum in range
    if any(abs(e) > MAX_WITNESS_BITS for e in exponents) or sum(
            abs(e) * log2(p) for p, e in zip(support, exponents)) > MAX_WITNESS_BITS:
        raise ValueError(f"witness of more than {MAX_WITNESS_BITS} bits refused; "
                         "the groups share an element of infinite order")
    return Fraction(sign * prod(p**e for p, e in zip(support, exponents) if e > 0),
                    prod(p**-e for p, e in zip(support, exponents) if e < 0))


def refuse_torsion(*sets: RationalEigenvalues) -> None:
    """Raise ValueError if a set has only the torsion values +-1, which carry
    no weak-commensurability data."""
    for e in sets:
        if all(v in (1, -1) for v in e.values):
            raise ValueError("eigenvalue set is torsion-only")


def weakly_commensurable(e1: RationalEigenvalues, e2: RationalEigenvalues) -> bool:
    """Weak commensurability of the underlying semi-simple elements: the
    eigenvalue groups must share an element different from +-1."""
    refuse_torsion(e1, e2)
    # a common element of infinite order has a nonzero exponent
    common = _common_element(e1, e2)
    return common is not None and any(common[1])
