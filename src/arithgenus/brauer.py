"""Central simple algebras over Q as Brauer classes given by local invariants.

A class is a finite map place -> Q/Z whose entries sum to zero, with the
real-place entry restricted to {0, 1/2}; this data classifies the algebra.
Only the nonzero entries are stored, so class equality is plain equality of
the canonical invariant tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .arith import Place, Rational, hilbert_symbol, parse_rational, support_places

HALF = Fraction(1, 2)


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class BrauerClass:
    """A Brauer class of Q in canonical form.

    ``invariants`` holds the nonzero local invariants as (place, value) pairs
    with values reduced mod 1, sorted with finite places ascending and the
    real place last.
    """

    invariants: tuple[tuple[Place, Fraction], ...] = ()

    def __post_init__(self):
        keys, ratios = [], []
        for place, value in self.invariants:
            num, den = value.as_integer_ratio()
            if not 0 < num < den:
                raise ValueError("stored invariants must lie strictly in (0,1)")
            if place.is_real and value != HALF:
                raise ValueError("real-place invariant must be 0 or 1/2")
            keys.append(place.sort_key())
            ratios.append((num, den))
        if keys != sorted(set(keys)):
            raise ValueError("invariants must be sorted by place, without repeats")
        # the zero sum as an integer sum of numerators over the common denominator
        common = lcm(*(den for _, den in ratios))
        if sum(num * (common // den) for num, den in ratios) % common:
            raise ValueError("local invariants must sum to 0 in Q/Z")

    # -- basic structure

    @property
    def support(self) -> tuple[Place, ...]:
        return tuple(place for place, _ in self.invariants)

    def invariant_at(self, v: Place) -> Fraction:
        for place, value in self.invariants:
            if place == v:
                return value
        return Fraction(0)

    def is_trivial(self) -> bool:
        return not self.invariants

    def local_index(self, v: Place) -> int:
        return self.invariant_at(v).denominator

    def __add__(self, other: "BrauerClass") -> "BrauerClass":
        return class_add(self, other)

    def __neg__(self) -> "BrauerClass":
        return class_neg(self)

    def __str__(self) -> str:
        return format_class(self)


def class_from_invariants(
    entries: Mapping[Place, Rational] | Iterable[tuple[Place, Rational]],
) -> BrauerClass:
    """Build a class from a finite place -> Q/Z map, validating the zero sum."""
    if isinstance(entries, Mapping):
        entries = entries.items()
    collected: dict[Place, Fraction] = {}
    for place, value in entries:
        reduced = _mod1(Fraction(value))
        if place in collected:
            raise ValueError(f"duplicate invariant for place {place}")
        collected[place] = reduced
    items = sorted((kv for kv in collected.items() if kv[1]), key=lambda kv: kv[0].sort_key())
    return BrauerClass(tuple(items))


def class_from_quaternion(a: Rational, b: Rational) -> BrauerClass:
    """The class of the quaternion algebra (a,b): invariant 1/2 exactly at the
    places where the Hilbert symbol (a,b)_v is -1."""
    entries = {
        v: HALF for v in support_places(a, b) if hilbert_symbol(a, b, v) == -1
    }
    cls = class_from_invariants(entries)
    assert len(cls.support) % 2 == 0  # forced by the Hilbert product formula
    return cls


def class_add(c1: BrauerClass, c2: BrauerClass) -> BrauerClass:
    merged: dict[Place, Fraction] = dict(c1.invariants)
    for place, value in c2.invariants:
        merged[place] = merged.get(place, Fraction(0)) + value
    return class_from_invariants(merged)


def class_neg(c: BrauerClass) -> BrauerClass:
    return class_from_invariants({place: -value for place, value in c.invariants})


def index_profile(c: BrauerClass) -> tuple[dict[Place, int], int]:
    """Local orders of the invariants and their lcm (the index of c, which is
    the degree of the underlying division algebra over Q)."""
    local = {place: value.denominator for place, value in c.invariants}
    global_index = 1
    for order in local.values():
        global_index = lcm(global_index, order)
    return local, global_index


def global_index(c: BrauerClass) -> int:
    return index_profile(c)[1]


# ---------------------------------------------------------------------------
# Text encoding: "2:1/3,3:1/3,5:1/3", "inf" for the real place, "" trivial.


def format_class(c: BrauerClass) -> str:
    return ",".join(f"{place}:{value}" for place, value in c.invariants)


def parse_class(text: str) -> BrauerClass:
    text = text.strip()
    if not text:
        return BrauerClass()
    entries = []
    for chunk in text.split(","):
        place_text, _, value_text = chunk.partition(":")
        if not value_text:
            raise ValueError(f"malformed invariant entry {chunk!r}")
        entries.append((Place.parse(place_text), parse_rational(value_text)))
    # pairs in order, so that a repeated place is refused, not overwritten
    return class_from_invariants(entries)
