"""Splitting-field tests and the genus of a division algebra over Q.

Two classes have the same maximal subfields exactly when they have equal
local index at every place (and hence equal degree); over Q the genus of a
class is therefore the finite set of classes matching its local index
profile.  Invariants sum to 0, so the genus is enumerated over every place
but the last, which the zero sum fixes.

A genus is stored as its base class and one tuple of integer numerators
k_v per member, the invariants k_v/r_v at the base's places r_v = local
index.  The weighted numerator sums mod L, the lcm of the r_v, are built a
place at a time over every place but the last, whose numerator is looked up
from each residue; more than MAX_GENUS_COMBINATIONS sums (the product of
the phi(r_v)) are refused with ValueError first.  The enumerators build
their GenusSet unchecked, and the replies are joined column-wise from
per-place tables without building a BrauerClass per member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import itemgetter, mul

from .arith import Place, _factor_positive, _unchecked, is_local_square, is_squarefree
from .brauer import BrauerClass, global_index

# Most combinations one genus or epsilon-family enumeration may visit (a
# 12-prime epsilon family visits 2**11)
MAX_GENUS_COMBINATIONS = 2**16


@dataclass(frozen=True)
class GenusSet:
    """A base class together with all classes sharing its maximal subfields,
    each member given by its numerators at the base's places in order."""

    base: BrauerClass
    numerators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # the places themselves were checked when the base was built
        orders = self._orders
        if tuple(value.numerator for _, value in self.base.invariants) not in self.numerators:
            raise ValueError("the base class must be among the members")
        # each numerator k at a place of order r must have exact order r:
        # every distinct value per place is checked once
        if any(len(ks) != len(orders) for ks in self.numerators) or not all(
                0 < k < r and gcd(k, r) == 1
                for r, column in zip(orders, zip(*self.numerators)) for k in set(column)):
            raise ValueError("members must share the base's local indices")
        # the zero sum in integers: sum of k * L/r over L = lcm of the orders
        modulus = lcm(*orders)
        weights = [modulus // r for r in orders]
        if any(sum(map(mul, ks, weights)) % modulus for ks in self.numerators):
            raise ValueError("local invariants must sum to 0 in Q/Z")

    @property
    def _orders(self) -> list[int]:
        return [value.denominator for _, value in self.base.invariants]

    @property
    def size(self) -> int:
        return len(self.numerators)

    def texts(self) -> list[str]:
        """The members' text encodings, in member order."""
        # each place's column mapped through its "place:k/r" table, then joined
        columns = [map({k: f"{v}:{k}/{r}" for k in set(column)}.__getitem__, column)
                   for v, r, column in zip(self.base.support, self._orders, zip(*self.numerators))]
        return list(map(",".join, zip(*columns))) if columns else [""] * self.size


def embeds_quadratic(d: int, algebra: BrauerClass) -> bool:
    """Whether Q(sqrt(d)) embeds as a maximal subfield of the quaternion
    division algebra with class ``algebra``: d must be a non-square in every
    ramified completion."""
    if global_index(algebra) != 2:
        raise ValueError("algebra must be a quaternion division class (index 2)")
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError("d must be squarefree and different from 0, 1")
    return all(not is_local_square(d, v) for v in algebra.support)


def _totient(r: int) -> int:
    result = r
    for p in _factor_positive(r):
        result = result // p * (p - 1)
    return result


def _zero_sum_numerators(orders) -> list[tuple[int, ...]]:
    """Numerator tuples (k_v) with k_v/orders[v] of exact order orders[v] and
    zero sum in Q/Z, in product order over the places as given: each
    numerator but the last is chosen, and the zero sum fixes the last.

    The numerators are summed mod L = lcm(orders) with weights L/r; the last
    one is looked up from the residue of minus the sum.  Refuses, before
    enumerating, more than MAX_GENUS_COMBINATIONS choices (the product of
    phi(r) over every place but the last).
    """
    if not orders:
        return [()]
    combinations = prod(_totient(r) for r in orders[:-1])
    if combinations > MAX_GENUS_COMBINATIONS:
        raise ValueError(f"genus enumeration needs {combinations} combinations, "
                         f"above the limit {MAX_GENUS_COMBINATIONS}")
    modulus = lcm(*orders)
    # the numerators k of exact order r at each place (a real place has r = 2,
    # so its only value is 1/2); a numerator k weighs k * L/r mod L
    choices = [[k for k in range(1, r) if gcd(k, r) == 1] for r in orders]
    closing = {-k * (modulus // orders[-1]) % modulus: k for k in choices[-1]}
    # the weight sums over all but the last place, a place at a time, in product order
    sums = [0]
    for ks, r in zip(choices[:-1], orders):
        ws = [k * (modulus // r) for k in ks]
        sums = [s + w for s in sums for w in ws]
    # every k >= 1, so a lookup is falsy only where no last numerator closes
    lasts = [closing.get(s % modulus) for s in sums]
    heads = itertools.compress(itertools.product(*choices[:-1]), lasts)
    return [ks + (k,) for ks, k in zip(heads, filter(None, lasts))]


def genus_enumerate(c: BrauerClass) -> GenusSet:
    """All classes with the same local index as c at every place, ordered
    by their invariants: the places and local orders are shared, and the
    product order over ascending numerators is already sorted."""
    numerators = _zero_sum_numerators([value.denominator for _, value in c.invariants])
    # the enumerator's own output
    return _unchecked(GenusSet, base=c, numerators=tuple(numerators))


def epsilon_family(primes: list[int] | tuple[int, ...]) -> GenusSet:
    """Cubic division classes ramified exactly at the given primes with
    invariants e_i/3, e_i = +-1, subject to sum(e_i) = 0 mod 3.

    These are the genus of any one member; the base is the first.  Any two
    members have the same maximal subfields while being pairwise distinct.
    The members are ordered by the sign tuple over the primes as given, +1
    before -1.
    """
    primes = tuple(primes)
    if len(primes) < 2:
        raise ValueError("need at least two primes")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    places = []
    for p in primes:
        try:
            places.append(Place(p))
        except ValueError as exc:
            if not str(exc).endswith("not a finite place"):
                raise  # a refusal: p is too large, or not provably prime
            raise ValueError(f"{p} is not prime") from None
    # numerators over the primes as given, stored in ascending place order
    canonical = sorted(range(len(primes)), key=primes.__getitem__)
    numerators = _zero_sum_numerators([3] * len(primes))
    numerators = tuple(numerators if canonical == sorted(canonical)
                       else map(itemgetter(*canonical), numerators))
    base = BrauerClass(tuple((places[i], Fraction(k, 3))
                             for i, k in zip(canonical, numerators[0])))
    # the enumerator's own output
    return _unchecked(GenusSet, base=base, numerators=numerators)


def genus_report(genus: GenusSet) -> dict:
    """JSON-ready view of a genus set (member strings sorted)."""
    return {
        "base": str(genus.base),
        "size": genus.size,
        "members": sorted(genus.texts()),
    }
