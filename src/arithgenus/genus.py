"""Splitting-field tests and the genus of a division algebra over Q.

Two classes have the same maximal subfields exactly when they have equal
local index at every place (and hence equal degree); over Q the genus of a
class is therefore the finite set of classes matching its local index
profile.  Invariants sum to 0, so the genus is enumerated over every place
but the last, which the zero sum fixes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import Place, is_local_square, is_prime, is_squarefree
from .brauer import BrauerClass, global_index, index_profile


@dataclass(frozen=True)
class LocalDegreeProfile:
    """Local degree data of a number field F of degree n over Q: at each
    listed place v, the degrees [F_w : Q_v] of the completions above v."""

    degree: int
    local_degrees: tuple[tuple[Place, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be positive")
        for place, degrees in self.local_degrees:
            if sum(degrees) != self.degree:
                raise ValueError(f"local degrees at {place} must sum to {self.degree}")
            if place.is_real and any(d not in (1, 2) for d in degrees):
                raise ValueError("real completions have degree 1 or 2")
            if any(d < 1 for d in degrees):
                raise ValueError("local degrees must be positive")

    def degrees_at(self, v: Place) -> tuple[int, ...] | None:
        for place, degrees in self.local_degrees:
            if place == v:
                return degrees
        return None


def quadratic_field_profile(d: int, places: list[Place]) -> LocalDegreeProfile:
    """The degree profile of Q(sqrt(d)) at the given places: [2] where d is
    not a local square, [1, 1] where it splits."""
    if not is_squarefree(d) or d in (0, 1):
        raise ValueError("d must be squarefree and different from 0, 1")
    entries = tuple(
        (v, (1, 1) if is_local_square(d, v) else (2,)) for v in places
    )
    return LocalDegreeProfile(2, entries)


@dataclass(frozen=True)
class GenusSet:
    """A base class together with all classes sharing its maximal subfields."""

    base: BrauerClass
    members: tuple[BrauerClass, ...]

    def __post_init__(self):
        if self.base not in self.members:
            raise ValueError("the base class must be among the members")
        base_profile = index_profile(self.base)[0]
        for member in self.members:
            if index_profile(member)[0] != base_profile:
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
    return all(not is_local_square(d, v) for v in algebra.support)


def splits_with_profile(profile: LocalDegreeProfile, c: BrauerClass) -> bool:
    """Whether a field with the given local degrees splits c: at every
    ramified place, each completion degree must be divisible by the local
    index."""
    for v in c.support:
        degrees = profile.degrees_at(v)
        if degrees is None:
            raise ValueError(f"profile is missing place {v} in the support of the class")
        r = c.local_index(v)
        if any(deg % r for deg in degrees):
            return False
    return True


def same_maximal_subfields(c1: BrauerClass, c2: BrauerClass) -> bool:
    """Equal global index and equal local index at every place; over Q this
    is equivalent to having identical degree-n splitting fields."""
    return index_profile(c1) == index_profile(c2)


def _exact_order_values(v: Place, order: int) -> list[Fraction]:
    if v.is_real:
        # the only nonzero invariant allowed at the real place
        return [Fraction(1, 2)]
    return [Fraction(k, order) for k in range(1, order) if gcd(k, order) == 1]


def _zero_sum_classes(places, orders):
    """Classes with an invariant of exact order orders[i] at places[i] and
    no other ramification, in product order over the places as given: each
    invariant but the last is chosen, and the zero sum fixes the last."""
    if not places:
        yield BrauerClass()
        return
    for combo in itertools.product(
        *(_exact_order_values(v, r) for v, r in zip(places[:-1], orders))
    ):
        last = -sum(combo, Fraction(0)) % 1
        if last.denominator == orders[-1]:
            # the values already lie in (0, 1); only the places need sorting
            yield BrauerClass(tuple(sorted(zip(places, combo + (last,)), key=lambda e: e[0].sort_key())))


def genus_enumerate(c: BrauerClass) -> GenusSet:
    """All classes with the same local index as c at every place."""
    support = c.support
    members = list(_zero_sum_classes(support, [c.local_index(v) for v in support]))
    members.sort(key=lambda m: tuple(value for _, value in m.invariants))
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
    return list(_zero_sum_classes([Place(p) for p in primes], [3] * len(primes)))


def genus_report(genus: GenusSet) -> dict:
    """JSON-ready view of a genus set (member strings sorted)."""
    return {
        "base": str(genus.base),
        "size": genus.size,
        "members": sorted(str(m) for m in genus.members),
    }
