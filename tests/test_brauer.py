import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from arithgenus.arith import Place, REAL_PLACE
from arithgenus.brauer import (
    BrauerClass,
    class_add,
    class_from_invariants,
    class_from_quaternion,
    class_neg,
    format_class,
    global_index,
    index_profile,
    parse_class,
)

RNG_SEED = 55511


def random_class(rng, places=(2, 3, 5, 7), max_order=6):
    """A random valid class: fill all but one place freely, then close the sum."""
    chosen = rng.sample(places, rng.randint(1, len(places) - 1))
    entries = {Place(p): Fraction(rng.randint(0, max_order), rng.randint(1, max_order))
               for p in chosen}
    total = sum(entries.values(), Fraction(0))
    closing = -total
    closer = Place(max(set(places) - set(chosen)))
    entries[closer] = closing
    return class_from_invariants(entries)


@st.composite
def brauer_classes(draw):
    """A class over up to four of 2..13 and maybe the real place, closed by
    its entry at 17."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), unique=True, max_size=4))
    entries = {Place(p): Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 12)))
               for p in primes}
    if draw(st.booleans()):
        entries[REAL_PLACE] = Fraction(1, 2)
    entries[Place(17)] = -sum(entries.values(), Fraction(0))
    return class_from_invariants(entries)


class TestConstruction:
    def test_cubic_example(self):
        cls = class_from_invariants(
            {Place(2): Fraction(1, 3), Place(3): Fraction(1, 3), Place(5): Fraction(1, 3)}
        )
        assert [str(v) for v in cls.support] == ["2", "3", "5"]

    def test_trivial_class(self):
        assert class_from_invariants({}).is_trivial()

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValueError):
            class_from_invariants({Place(2): Fraction(1, 3)})

    def test_real_place_restricted_to_half(self):
        with pytest.raises(ValueError):
            class_from_invariants(
                {REAL_PLACE: Fraction(1, 3), Place(3): Fraction(2, 3)}
            )
        cls = class_from_invariants(
            {REAL_PLACE: Fraction(1, 2), Place(2): Fraction(1, 2)}
        )
        assert cls.invariant_at(REAL_PLACE) == Fraction(1, 2)

    def test_values_reduced_mod_one(self):
        cls = class_from_invariants(
            {Place(2): Fraction(4, 3), Place(3): Fraction(-1, 3)}
        )
        assert cls.invariant_at(Place(2)) == Fraction(1, 3)
        assert cls.invariant_at(Place(3)) == Fraction(2, 3)

    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            BrauerClass(((Place(3), Fraction(1, 2)), (Place(2), Fraction(1, 2))))

    def test_zero_sum_over_mixed_denominators(self):
        # the sum is taken over the lcm of the denominators, here 6 and 12
        places = (Place(2), Place(3), Place(5))
        cls = BrauerClass(tuple(zip(places, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))))
        assert global_index(cls) == 6
        with pytest.raises(ValueError, match="sum to 0"):
            BrauerClass(tuple(zip(places, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 3)))))

    def test_numerator_below_denominator(self):
        for value in (Fraction(3, 2), Fraction(1), Fraction(0), Fraction(-1, 2)):
            with pytest.raises(ValueError, match=r"strictly in \(0,1\)"):
                BrauerClass(((Place(2), value), (Place(3), Fraction(1, 2))))


class TestQuaternion:
    def test_minus_one_three(self):
        assert str(class_from_quaternion(-1, 3)) == "2:1/2,3:1/2"

    def test_minus_one_seven(self):
        assert str(class_from_quaternion(-1, 7)) == "2:1/2,7:1/2"

    def test_two_three_equals_minus_one_three(self):
        assert class_from_quaternion(2, 3) == class_from_quaternion(-1, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            class_from_quaternion(0, 3)

    def test_random_properties(self):
        rng = random.Random(RNG_SEED)
        for _ in range(150):
            a = Fraction(rng.randint(1, 400) * rng.choice((1, -1)), rng.randint(1, 30))
            b = Fraction(rng.randint(1, 400) * rng.choice((1, -1)), rng.randint(1, 30))
            cls = class_from_quaternion(a, b)
            assert len(cls.support) % 2 == 0
            assert all(value == Fraction(1, 2) for _, value in cls.invariants)
            assert cls == class_from_quaternion(b, a)
            assert class_from_quaternion(a, -a).is_trivial()


class TestGroupLaw:
    def test_quaternion_is_two_torsion(self):
        cls = class_from_quaternion(-1, 3)
        assert class_add(cls, cls).is_trivial()
        assert class_neg(cls) == cls

    def test_mod_one_addition(self):
        cls = parse_class("2:1/3,3:2/3")
        assert str(class_add(cls, cls)) == "2:2/3,3:1/3"
        assert str(class_neg(cls)) == "2:2/3,3:1/3"

    def test_identity(self):
        cls = parse_class("2:1/5,3:2/5,7:2/5")
        assert class_add(cls, BrauerClass()) == cls
        assert class_neg(BrauerClass()).is_trivial()

    def test_random_group_axioms(self):
        rng = random.Random(RNG_SEED + 1)
        for _ in range(100):
            c1, c2, c3 = (random_class(rng) for _ in range(3))
            assert class_add(c1, c2) == class_add(c2, c1)
            assert class_add(class_add(c1, c2), c3) == class_add(c1, class_add(c2, c3))
            assert class_add(c1, class_neg(c1)).is_trivial()
            assert class_neg(class_neg(c1)) == c1


class TestGroupLawProperties:
    @given(brauer_classes(), brauer_classes(), brauer_classes())
    def test_addition_is_associative_and_commutative(self, c1, c2, c3):
        assert class_add(c1, c2) == class_add(c2, c1)
        assert class_add(class_add(c1, c2), c3) == class_add(c1, class_add(c2, c3))

    @given(brauer_classes())
    def test_identity_and_inverse(self, c):
        assert class_add(c, BrauerClass()) == class_add(BrauerClass(), c) == c
        assert class_add(c, class_neg(c)).is_trivial()
        assert class_neg(class_neg(c)) == c
        assert index_profile(class_neg(c)) == index_profile(c)

    @given(brauer_classes(), brauer_classes())
    def test_index_profile_of_a_sum(self, c1, c2):
        from math import lcm

        local, index = index_profile(class_add(c1, c2))
        places = set(c1.support) | set(c2.support)
        expected = {v: ((c1.invariant_at(v) + c2.invariant_at(v)) % 1).denominator for v in places}
        assert local == {v: order for v, order in expected.items() if order > 1}
        assert index == lcm(1, *local.values())
        assert lcm(global_index(c1), global_index(c2)) % index == 0
        for v, order in local.items():
            assert lcm(oracles.local_index(c1, v), oracles.local_index(c2, v)) % order == 0

    @given(brauer_classes())
    def test_text_round_trip(self, c):
        assert parse_class(str(c)) == c
        assert str(parse_class(str(c))) == str(c) == format_class(c)


class TestIndexProfile:
    def test_cubic(self):
        cls = parse_class("2:1/3,3:1/3,5:1/3")
        local, glob = index_profile(cls)
        assert local == {Place(2): 3, Place(3): 3, Place(5): 3}
        assert glob == 3

    def test_quaternion(self):
        local, glob = index_profile(class_from_quaternion(-1, 3))
        assert local == {Place(2): 2, Place(3): 2}
        assert glob == 2

    def test_trivial(self):
        assert index_profile(BrauerClass()) == ({}, 1)

    def test_index_of_sum_divides_lcm(self):
        from math import lcm

        rng = random.Random(RNG_SEED + 2)
        for _ in range(150):
            c1, c2 = random_class(rng), random_class(rng)
            assert lcm(global_index(c1), global_index(c2)) % global_index(
                class_add(c1, c2)
            ) == 0


class TestEncoding:
    def test_examples(self):
        text = "2:1/3,3:1/3,5:1/3"
        assert format_class(parse_class(text)) == text
        assert parse_class("") == BrauerClass()
        assert format_class(BrauerClass()) == ""

    def test_real_place_encoding(self):
        cls = class_from_quaternion(-1, -1)
        assert format_class(cls) == "2:1/2,inf:1/2"
        assert parse_class("2:1/2,inf:1/2") == cls

    def test_round_trip_random(self):
        rng = random.Random(RNG_SEED + 3)
        for _ in range(200):
            cls = random_class(rng)
            assert parse_class(format_class(cls)) == cls

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_class("2:")
        with pytest.raises(ValueError):
            parse_class("nonsense")

    def test_repeated_place_rejected(self):
        for text in ("2:1/2,2:1/2,3:1/2,3:1/2", "2:1,2:1/2,3:1/2", "3:1/2,2:1/2,3:1/2"):
            with pytest.raises(ValueError, match="duplicate invariant for place"):
                parse_class(text)
