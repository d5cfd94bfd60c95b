import itertools
import random
from fractions import Fraction

import pytest

import oracles
from arithgenus import genus
from arithgenus.arith import Place, REAL_PLACE
from arithgenus.brauer import (
    class_from_invariants,
    class_from_quaternion,
    class_neg,
    parse_class,
)
from arithgenus.genus import (
    GenusSet,
    embeds_quadratic,
    epsilon_family,
    genus_enumerate,
    genus_report,
)
from oracles import same_maximal_subfields

RNG_SEED = 77003


class TestEmbedsQuadratic:
    def test_gaussian_field_embeds(self):
        assert embeds_quadratic(-1, class_from_quaternion(-1, 3))

    def test_seven_fails_at_three(self):
        assert not embeds_quadratic(7, class_from_quaternion(-1, 3))

    def test_two_embeds(self):
        assert embeds_quadratic(2, class_from_quaternion(-1, 3))

    def test_requires_quaternion_division_class(self):
        with pytest.raises(ValueError):
            embeds_quadratic(2, parse_class("2:1/3,3:2/3"))
        with pytest.raises(ValueError):
            embeds_quadratic(2, parse_class(""))

    def test_requires_squarefree_d(self):
        cls = class_from_quaternion(-1, 3)
        for bad in (0, 1, 12):
            with pytest.raises(ValueError):
                embeds_quadratic(bad, cls)


class TestProfiles:
    def test_gaussian_profile_splits_minus_one_three(self):
        cls = class_from_quaternion(-1, 3)
        profile = oracles.quadratic_field_profile(-1, list(cls.support))
        assert oracles.splits_with_profile(profile, cls)

    def test_degree_one_at_ramified_place_fails(self):
        cls = parse_class("2:1/3,3:2/3")
        profile = oracles.LocalDegreeProfile(3, ((Place(2), (1, 1, 1)), (Place(3), (3,))))
        assert not oracles.splits_with_profile(profile, cls)

    def test_anything_splits_trivial_class(self):
        profile = oracles.LocalDegreeProfile(3, ())
        assert oracles.splits_with_profile(profile, parse_class(""))

    def test_missing_place_rejected(self):
        cls = class_from_quaternion(-1, 3)
        profile = oracles.LocalDegreeProfile(2, ((Place(2), (2,)),))
        with pytest.raises(ValueError):
            oracles.splits_with_profile(profile, cls)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            oracles.LocalDegreeProfile(2, ((Place(2), (1, 2)),))
        with pytest.raises(ValueError):
            oracles.LocalDegreeProfile(4, ((REAL_PLACE, (4,)),))

    def test_profile_agrees_with_embedding_test(self):
        # quadratic splitting data matches the congruence test at every prime
        cls = class_from_quaternion(-1, 3)
        for d in (-10, -7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11, 13):
            profile = oracles.quadratic_field_profile(d, list(cls.support))
            assert oracles.splits_with_profile(profile, cls) == embeds_quadratic(d, cls)


class TestSameMaximalSubfields:
    def test_equal_quaternions(self):
        assert same_maximal_subfields(
            class_from_quaternion(-1, 3), class_from_quaternion(2, 3)
        )

    def test_distinct_quaternions(self):
        assert not same_maximal_subfields(
            class_from_quaternion(-1, 3), class_from_quaternion(-1, 7)
        )

    def test_opposite_cubic_classes(self):
        cls = parse_class("2:1/3,3:2/3")
        assert same_maximal_subfields(cls, class_neg(cls))

    def test_equivalence_relation(self):
        rng = random.Random(RNG_SEED)
        pool = []
        for _ in range(14):
            primes = rng.sample((2, 3, 5, 7), 2)
            order = rng.choice((2, 3, 4))
            k = rng.randrange(1, order)
            if Fraction(k, order).denominator == 1:
                continue
            pool.append(
                class_from_invariants(
                    {
                        Place(primes[0]): Fraction(k, order),
                        Place(primes[1]): Fraction(-k, order),
                    }
                )
            )
        for c1 in pool:
            assert same_maximal_subfields(c1, c1)
            for c2 in pool:
                assert same_maximal_subfields(c1, c2) == same_maximal_subfields(c2, c1)
                for c3 in pool:
                    if same_maximal_subfields(c1, c2) and same_maximal_subfields(c2, c3):
                        assert same_maximal_subfields(c1, c3)


class TestGenusEnumerate:
    def test_quaternion_genus_is_trivial(self):
        cls = class_from_quaternion(-1, 3)
        assert genus_enumerate(cls).members == (cls,)

    def test_two_place_cubic(self):
        cls = parse_class("2:1/3,3:2/3")
        members = genus_enumerate(cls).members
        assert set(members) == {cls, class_neg(cls)}

    def test_three_place_cubic(self):
        cls = parse_class("2:1/3,3:1/3,5:1/3")
        members = genus_enumerate(cls).members
        assert [str(m) for m in members] == [
            "2:1/3,3:1/3,5:1/3",
            "2:2/3,3:2/3,5:2/3",
        ]

    def test_contains_class_and_its_opposite(self):
        rng = random.Random(RNG_SEED + 1)
        for _ in range(30):
            primes = rng.sample((2, 3, 5, 7, 11), 2)
            order = rng.choice((2, 3, 4, 5, 6))
            k = rng.randrange(1, order)
            cls = class_from_invariants(
                {
                    Place(primes[0]): Fraction(k, order),
                    Place(primes[1]): Fraction(-k, order),
                }
            )
            members = genus_enumerate(cls).members
            assert cls in members
            assert class_neg(cls) in members
            for member in members:
                assert same_maximal_subfields(cls, member)

    def test_trivial_class_genus(self):
        genus = genus_enumerate(parse_class(""))
        assert genus.size == 1

    def test_size_matches_enumeration_oracle(self):
        samples = [
            parse_class("2:1/3,3:2/3"),
            parse_class("2:1/3,3:1/3,5:1/3"),
            parse_class("2:1/5,3:4/5"),
            parse_class("2:1/4,3:1/4,5:1/2"),
            parse_class("2:1/6,3:5/6"),
            parse_class("2:1/2,3:1/2,inf:1/2,5:1/2"),
            parse_class("2:1/4,3:3/4,5:1/3,7:2/3"),
        ]
        for cls in samples:
            orders = [cls.local_index(v) for v in cls.support]
            assert genus_enumerate(cls).size == oracles.genus_size_by_enumeration(orders)

    def test_members_match_search_oracle(self):
        rng = random.Random(RNG_SEED + 2)
        for _ in range(60):
            places = [Place(p) for p in rng.sample((2, 3, 5, 7, 11), rng.randrange(2, 5))]
            invariants = {v: Fraction(rng.randrange(1, 7), rng.choice((2, 3, 4, 5, 6)))
                          for v in places[:-1]}
            if rng.random() < 0.3:
                invariants[REAL_PLACE] = Fraction(1, 2)
            invariants[places[-1]] = -sum(invariants.values())
            cls = class_from_invariants(invariants)
            assert genus_enumerate(cls).members == oracles.genus_members_by_search(cls), cls

    def test_genus_set_validation(self):
        cls = parse_class("2:1/3,3:2/3")
        with pytest.raises(ValueError):
            GenusSet(cls, (class_neg(cls),))

    def test_members_must_have_same_maximal_subfields(self):
        cls = parse_class("2:1/3,3:2/3")
        other = parse_class("2:1/2,3:1/2")
        with pytest.raises(ValueError, match="members must share the base's local indices"):
            GenusSet(cls, (cls, other))
        assert GenusSet(cls, (cls, class_neg(cls))).size == 2

    def test_base_profile_computed_once(self, monkeypatch):
        calls = []
        index_profile = genus.index_profile
        monkeypatch.setattr(genus, "index_profile", lambda c: calls.append(c) or index_profile(c))
        members = genus_enumerate(parse_class("2:1/7,3:2/7,5:3/7,7:4/7,11:4/7"))
        assert members.size == 1110
        assert len(calls) == 1111

    def test_combination_cap(self, monkeypatch):
        # phi(257)**3 = 2**24 choices over the first three places
        with pytest.raises(ValueError, match="needs 16777216 combinations, above the limit 65536"):
            genus_enumerate(parse_class("2:1/257,3:1/257,5:1/257,7:254/257"))
        # a prime order far beyond any enumeration is refused from phi alone
        with pytest.raises(ValueError, match="needs 1000000006 combinations"):
            genus_enumerate(parse_class("2:1/1000000007,3:1000000006/1000000007"))
        # phi(r) choices over every place but the last; the limit itself is allowed
        monkeypatch.setattr(genus, "MAX_GENUS_COMBINATIONS", 2)
        assert genus_enumerate(parse_class("2:1/3,3:2/3")).size == 2
        with pytest.raises(ValueError, match="needs 4 combinations, above the limit 2"):
            genus_enumerate(parse_class("2:1/5,3:4/5"))

    def test_report_shape(self):
        report = genus_report(genus_enumerate(parse_class("2:1/3,3:2/3")))
        assert report["base"] == "2:1/3,3:2/3"
        assert report["size"] == 2
        assert report["members"] == sorted(report["members"])


class TestEpsilonFamily:
    def test_two_primes(self):
        members = epsilon_family((2, 3))
        assert [str(m) for m in members] == ["2:1/3,3:2/3", "2:2/3,3:1/3"]

    def test_three_primes(self):
        members = epsilon_family((2, 3, 5))
        assert [str(m) for m in members] == [
            "2:1/3,3:1/3,5:1/3",
            "2:2/3,3:2/3,5:2/3",
        ]

    def test_four_primes(self):
        members = epsilon_family((2, 3, 5, 7))
        assert len(members) == 6
        # exactly the sign patterns with two +1 and two -1
        for m in members:
            ups = sum(1 for _, value in m.invariants if value == Fraction(1, 3))
            assert ups == 2

    def test_family_members_share_subfields_pairwise(self):
        for primes in ((2, 3), (2, 3, 5), (2, 3, 5, 7), (3, 11, 13)):
            members = epsilon_family(primes)
            assert len(set(members)) == len(members)
            for m1, m2 in itertools.combinations(members, 2):
                assert same_maximal_subfields(m1, m2)

    def test_family_size_growth(self):
        sizes = [len(epsilon_family((2, 3, 5, 7, 11, 13)[:r])) for r in range(2, 7)]
        assert sizes == sorted(sizes)
        assert len(epsilon_family((2, 3, 5, 7))) > len(epsilon_family((2, 3, 5)))

    def test_each_member_is_cubic_division(self):
        from arithgenus.brauer import global_index

        for member in epsilon_family((2, 5, 11)):
            assert global_index(member) == 3

    def test_family_is_genus_of_first_member(self):
        rng = random.Random(RNG_SEED + 3)
        for _ in range(12):
            primes = rng.sample((2, 3, 5, 7, 11, 13, 17), rng.randrange(2, 7))
            members = epsilon_family(primes)
            assert set(members) == set(genus_enumerate(members[0]).members), primes

    def test_combination_cap(self, monkeypatch):
        first_30_primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
        assert len(first_30_primes) == 30
        with pytest.raises(ValueError, match="needs 536870912 combinations, above the limit 65536"):
            epsilon_family(first_30_primes)
        # 2**(n-1) sign choices for n primes; the limit itself is allowed
        monkeypatch.setattr(genus, "MAX_GENUS_COMBINATIONS", 8)
        assert len(epsilon_family(first_30_primes[:4])) == 6
        with pytest.raises(ValueError, match="needs 16 combinations, above the limit 8"):
            epsilon_family(first_30_primes[:5])

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            epsilon_family((2,))
        with pytest.raises(ValueError):
            epsilon_family((2, 2))
        with pytest.raises(ValueError):
            epsilon_family((2, 9))
