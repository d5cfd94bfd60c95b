"""Splitting-field tests and the genus of a division algebra over Q.

Two classes have the same maximal subfields exactly when they have equal
local index at every place (and hence equal degree); over Q the genus of a
class is therefore the finite set of classes matching its local index
profile.  Invariants sum to 0, so the genus is enumerated over every place
but the last, which the zero sum fixes.

The enumeration adds integer numerators mod L, the lcm of the local orders
r_v, and looks the last invariant up from the residue of minus the sum.  It
visits the product of phi(r_v) over every place but the last; a genus or
epsilon family needing more than MAX_GENUS_COMBINATIONS is refused with
ValueError before any is visited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .arith import Place, _factor_positive, is_local_square, is_prime, is_squarefree
from .brauer import BrauerClass, global_index, index_profile

# Most combinations one genus or epsilon-family enumeration may visit (a
# 12-prime epsilon family visits 2**11)
MAX_GENUS_COMBINATIONS = 2**16


@dataclass(frozen=True)
class GenusSet:
    """A base class together with all classes sharing its maximal subfields."""

    base: BrauerClass
    members: tuple[BrauerClass, ...]

    def __post_init__(self):
        if self.base not in self.members:
            raise ValueError("the base class must be among the members")
        profile = index_profile(self.base)
        if any(index_profile(member) != profile for member in self.members):
            raise ValueError("members must share the base's local indices")

    @property
    def size(self) -> int:
        return len(self.members)


def embeds_quadratic(d: int, algebra: BrauerClass) -> bool:
    """Whether Q(sqrt(d)) embeds as a maximal subfield of the quaternion
    division algebra with class ``algebra``: d must be a non-square in every
    ramified completion."""
    if global_index(algebra) != 2:
        raise ValueError("algebra must be a quaternion division class (index 2)")
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError("d must be squarefree and different from 0, 1")
    return _embeds(d, algebra)


def _embeds(d: int, algebra: BrauerClass) -> bool:
    # embeds_quadratic for a d and a quaternion class already checked
    return all(not is_local_square(d, v) for v in algebra.support)


def _totient(r: int) -> int:
    result = r
    for p in _factor_positive(r):
        result = result // p * (p - 1)
    return result


def _zero_sum_classes(places, orders) -> list[BrauerClass]:
    """Classes with an invariant of exact order orders[i] at places[i] and
    no other ramification, in product order over the places as given: each
    invariant but the last is chosen, and the zero sum fixes the last.

    The invariants are summed as integer numerators mod L = lcm(orders); the
    last one is looked up from the residue of minus the sum.  Refuses, before
    enumerating, more than MAX_GENUS_COMBINATIONS choices (the product of
    phi(r) over every place but the last).
    """
    if not places:
        return [BrauerClass()]
    combinations = prod(_totient(r) for r in orders[:-1])
    if combinations > MAX_GENUS_COMBINATIONS:
        raise ValueError(f"genus enumeration needs {combinations} combinations, "
                         f"above the limit {MAX_GENUS_COMBINATIONS}")
    modulus = lcm(*orders)

    def values(v, r):
        # (numerator mod L, stored pair) for each invariant k/r of exact order r;
        # a real place has r = 2, so its only value is 1/2
        return [(k * (modulus // r), (v, Fraction(k, r))) for k in range(1, r) if gcd(k, r) == 1]

    chosen = [values(v, r) for v, r in zip(places[:-1], orders)]
    closing = dict(values(places[-1], orders[-1]))
    canonical = sorted(range(len(places)), key=lambda i: places[i].sort_key())
    members = []
    for combo in itertools.product(*chosen):
        last = closing.get(-sum(num for num, _ in combo) % modulus)
        if last is not None:
            pairs = [pair for _, pair in combo]
            pairs.append(last)
            members.append(BrauerClass(tuple(pairs[i] for i in canonical)))
    return members


def genus_enumerate(c: BrauerClass) -> GenusSet:
    """All classes with the same local index as c at every place."""
    support = c.support
    members = _zero_sum_classes(support, [c.local_index(v) for v in support])
    # members share their places and local orders, so numerators order them
    # as the invariants would
    members.sort(key=lambda m: tuple(value.numerator for _, value in m.invariants))
    return GenusSet(c, tuple(members))


def epsilon_family(primes: list[int] | tuple[int, ...]) -> list[BrauerClass]:
    """Cubic division classes ramified exactly at the given primes with
    invariants e_i/3, e_i = +-1, subject to sum(e_i) = 0 mod 3.

    These are the genus of any one member.  Any two members have the same
    maximal subfields while being pairwise distinct.  The list is ordered by
    the sign tuple over the primes as given, +1 before -1.
    """
    primes = tuple(primes)
    if len(primes) < 2:
        raise ValueError("need at least two primes")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return _zero_sum_classes([Place(p) for p in primes], [3] * len(primes))


def genus_report(genus: GenusSet) -> dict:
    """JSON-ready view of a genus set (member strings sorted)."""
    return {
        "base": str(genus.base),
        "size": genus.size,
        "members": sorted(str(m) for m in genus.members),
    }
