import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from arithgenus import cli, genus
from arithgenus.arith import Place, REAL_PLACE
from arithgenus.brauer import (
    BrauerClass,
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
PRIMES = (2, 3, 5, 7, 11, 13, 17)


@st.composite
def brauer_classes(draw):
    """Classes over 2 to 5 places, with or without inf, whose finite
    invariants have orders dividing some L in 2..12; the last finite place
    closes the zero sum (and drops out when that leaves it 0)."""
    modulus = draw(st.integers(2, 12))
    with_real = draw(st.booleans())
    count = draw(st.integers(2, 5)) - with_real
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=count, max_size=count, unique=True))
    invariants = {Place(p): Fraction(draw(st.integers(1, modulus - 1)), modulus)
                  for p in primes[:-1]}
    if with_real:
        invariants[REAL_PLACE] = Fraction(1, 2)
    invariants[Place(primes[-1])] = -sum(invariants.values())
    cls = class_from_invariants(invariants)
    # keep the search oracle, which tries every tuple of invariants, small
    assume(oracles.genus_size_by_search_cost(cls) <= 4096)
    return cls


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
        assert oracles.genus_members(genus_enumerate(cls)) == (cls,)

    def test_two_place_cubic(self):
        cls = parse_class("2:1/3,3:2/3")
        members = oracles.genus_members(genus_enumerate(cls))
        assert set(members) == {cls, class_neg(cls)}

    def test_three_place_cubic(self):
        cls = parse_class("2:1/3,3:1/3,5:1/3")
        members = oracles.genus_members(genus_enumerate(cls))
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
            members = oracles.genus_members(genus_enumerate(cls))
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
            orders = [oracles.local_index(cls, v) for v in cls.support]
            assert genus_enumerate(cls).size == oracles.genus_size_by_enumeration(orders)

    @given(st.lists(st.integers(2, 12), min_size=1, max_size=5), st.data())
    def test_size_matches_ramanujan_sum_count(self, orders, data):
        # invariants of exact orders r_v at the first places; a last place
        # closes the zero sum with whatever order that leaves
        invariants = {Place(p): Fraction(data.draw(st.sampled_from(
            [k for k in range(1, r) if math.gcd(k, r) == 1])), r) for p, r in zip(PRIMES, orders)}
        last = -sum(invariants.values()) % 1
        assume(last != 0)
        invariants[Place(PRIMES[len(orders)])] = last
        cls = class_from_invariants(invariants)
        local = [oracles.local_index(cls, v) for v in cls.support]
        assert genus_enumerate(cls).size == oracles.genus_size_by_ramanujan_sums(local)

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
            members = oracles.genus_members(genus_enumerate(cls))
            assert members == oracles.genus_members_by_search(cls), cls

    def test_genus_set_validation(self):
        # numerators at the base's places 2 and 3; (2, 1) is the opposite class
        cls = parse_class("2:1/3,3:2/3")
        with pytest.raises(ValueError, match="the base class must be among the members"):
            GenusSet(cls, ((2, 1),))
        assert GenusSet(cls, ((1, 2), (2, 1))).size == 2

    def test_members_must_have_same_maximal_subfields(self):
        cls = parse_class("2:1/4,3:3/4")
        # (2, 2) is 2:1/2,3:1/2, of order 2 where the base has order 4
        for wrong in ((2, 2), (1, 0), (4, 0), (1, 3, 0), (1,)):
            with pytest.raises(ValueError, match="members must share the base's local indices"):
                GenusSet(cls, ((1, 3), wrong))
        assert oracles.genus_members(GenusSet(cls, ((1, 3), (3, 1)))) == (cls, class_neg(cls))

    def test_members_must_sum_to_zero(self):
        cls = parse_class("2:1/3,3:2/3")
        with pytest.raises(ValueError, match="local invariants must sum to 0 in Q/Z"):
            GenusSet(cls, ((1, 2), (1, 1)))
        real = parse_class("2:1/4,5:1/4,inf:1/2")
        with pytest.raises(ValueError, match="local invariants must sum to 0 in Q/Z"):
            GenusSet(real, ((1, 1, 1), (3, 1, 1)))
        assert GenusSet(real, ((1, 1, 1), (3, 3, 1))).texts() == [
            "2:1/4,5:1/4,inf:1/2", "2:3/4,5:3/4,inf:1/2"]

    def test_trivial_genus_set(self):
        genus_set = GenusSet(BrauerClass(), ((),))
        assert oracles.genus_members(genus_set) == (BrauerClass(),)
        assert genus_set.texts() == [""]
        # the same through the unchecked path
        assert genus_enumerate(BrauerClass()) == genus_set
        assert genus_report(genus_set) == {"base": "", "size": 1, "members": [""]}

    def test_members_built_on_demand(self, monkeypatch):
        cls = parse_class("2:1/7,3:2/7,5:3/7,7:4/7,11:4/7")
        built = []
        post_init = BrauerClass.__post_init__
        monkeypatch.setattr(BrauerClass, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        genus_set = genus_enumerate(cls)
        report = genus_report(genus_set)
        assert report["size"] == 1110 and len(built) <= 1
        # the 12-prime family reply builds only its base class
        family = cli.execute(cli.parse(["family", "--primes=2,3,5,7,11,13,17,19,23,29,31,37"]))
        assert family.result["size"] == 1366 and len(built) <= 2
        built.clear()
        members = oracles.genus_members(genus_set)
        assert len(built) == 1110
        monkeypatch.undo()
        assert members == oracles.genus_members_by_search(cls)
        assert report["members"] == sorted(str(m) for m in members)

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
        family = epsilon_family((2, 3))
        assert family.texts() == ["2:1/3,3:2/3", "2:2/3,3:1/3"]
        assert [str(m) for m in oracles.genus_members(family)] == family.texts()
        assert family.base == parse_class("2:1/3,3:2/3")

    def test_three_primes(self):
        family = epsilon_family((2, 3, 5))
        assert [str(m) for m in oracles.genus_members(family)] == [
            "2:1/3,3:1/3,5:1/3",
            "2:2/3,3:2/3,5:2/3",
        ]

    def test_primes_out_of_order(self):
        # sign tuples over the primes as given; each member in place order
        family = epsilon_family((5, 2, 3))
        assert family.texts() == ["2:1/3,3:1/3,5:1/3", "2:2/3,3:2/3,5:2/3"]
        family = epsilon_family((7, 3, 2, 5))
        assert family.base == parse_class("2:2/3,3:1/3,5:2/3,7:1/3")
        assert family.texts() == [str(m) for m in oracles.genus_members(family)]

    def test_four_primes(self):
        members = oracles.genus_members(epsilon_family((2, 3, 5, 7)))
        assert len(members) == 6
        # exactly the sign patterns with two +1 and two -1
        for m in members:
            ups = sum(1 for _, value in m.invariants if value == Fraction(1, 3))
            assert ups == 2

    def test_family_members_share_subfields_pairwise(self):
        for primes in ((2, 3), (2, 3, 5), (2, 3, 5, 7), (3, 11, 13)):
            members = oracles.genus_members(epsilon_family(primes))
            assert len(set(members)) == len(members)
            for m1, m2 in itertools.combinations(members, 2):
                assert same_maximal_subfields(m1, m2)

    def test_family_size_closed_form(self):
        # n signs e_i = +-1 with sum 0 mod 3: (2^n + 2(-1)^n)/3 of them
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        for n in range(2, 13):
            size = epsilon_family(primes[:n]).size
            assert size == (2**n + 2 * (-1) ** n) // 3
            assert size == oracles.genus_size_by_ramanujan_sums([3] * n)
        assert size == 1366

    def test_family_size_growth(self):
        sizes = [epsilon_family((2, 3, 5, 7, 11, 13)[:r]).size for r in range(2, 7)]
        assert sizes == sorted(sizes)
        assert epsilon_family((2, 3, 5, 7)).size > epsilon_family((2, 3, 5)).size

    def test_each_member_is_cubic_division(self):
        from arithgenus.brauer import global_index

        for member in oracles.genus_members(epsilon_family((2, 5, 11))):
            assert global_index(member) == 3

    def test_family_is_genus_of_first_member(self):
        rng = random.Random(RNG_SEED + 3)
        for _ in range(12):
            primes = rng.sample((2, 3, 5, 7, 11, 13, 17), rng.randrange(2, 7))
            family = epsilon_family(primes)
            members = oracles.genus_members(family)
            assert family.base == members[0]
            assert set(members) == set(oracles.genus_members(genus_enumerate(family.base))), primes

    def test_combination_cap(self, monkeypatch):
        first_30_primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
        assert len(first_30_primes) == 30
        with pytest.raises(ValueError, match="needs 536870912 combinations, above the limit 65536"):
            epsilon_family(first_30_primes)
        # 2**(n-1) sign choices for n primes; the limit itself is allowed
        monkeypatch.setattr(genus, "MAX_GENUS_COMBINATIONS", 8)
        assert epsilon_family(first_30_primes[:4]).size == 6
        with pytest.raises(ValueError, match="needs 16 combinations, above the limit 8"):
            epsilon_family(first_30_primes[:5])

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            epsilon_family((2,))
        with pytest.raises(ValueError):
            epsilon_family((2, 2))
        with pytest.raises(ValueError):
            epsilon_family((2, 9))

    def test_unprovable_prime_is_refused_not_called_composite(self):
        with pytest.raises(ValueError, match=f"cannot prove {2**89 - 1} prime"):
            epsilon_family((2, 2**89 - 1))

    def test_each_prime_checked_once(self, monkeypatch):
        from arithgenus import arith

        calls = []
        original = arith.is_prime

        def counting(n):
            calls.append(n)
            return original(n)

        # genus may bind is_prime itself; Place looks it up in arith
        for module in (arith, genus):
            monkeypatch.setattr(module, "is_prime", counting, raising=False)
        epsilon_family((2, 3, 5, 7))
        assert calls == [2, 3, 5, 7]

    def test_malformed_family_line_reply(self):
        # the benchmark's malformed line family --primes=2,<2n>,<p>
        assert cli.execute(cli.parse(["family", "--primes=2,8,5"])).to_json() == (
            '{"ok":false,"error":"8 is not prime"}')


class TestNumeratorGenusProperties:
    @given(brauer_classes())
    def test_report_matches_members_and_search(self, cls):
        genus_set = genus_enumerate(cls)
        members = oracles.genus_members(genus_set)
        assert members == oracles.genus_members_by_search(cls)
        assert genus_set.texts() == [str(m) for m in members]
        assert genus_report(genus_set)["members"] == sorted(str(m) for m in members)

    @given(st.lists(st.sampled_from(PRIMES + (19, 23, 29)), min_size=2, max_size=9, unique=True))
    def test_family_matches_fraction_enumeration(self, primes):
        family = epsilon_family(primes)
        places = [Place(p) for p in primes]
        expected = oracles.zero_sum_classes_by_fractions(places, [3] * len(primes))
        assert family.texts() == [str(m) for m in expected]
        assert oracles.genus_members(family) == tuple(expected)


class TestLevelwiseEnumeration:
    @given(st.lists(st.integers(2, 12), max_size=5), st.booleans())
    def test_matches_fraction_enumeration(self, orders, real):
        # a real place of order 2 first when asked for, and the finite
        # places after it; the oracle's classes read back as numerators
        places = [Place(p) for p in PRIMES[:len(orders)]]
        if real:
            orders, places = [2] + orders, [REAL_PLACE] + places
        assume(math.prod(genus._totient(r) for r in orders[:-1]) <= 4096)
        expected = [tuple(int(m.invariant_at(v) * r) for v, r in zip(places, orders))
                    for m in oracles.zero_sum_classes_by_fractions(places, orders)]
        assert genus._zero_sum_numerators(orders) == expected

    def test_no_place_and_single_place(self):
        assert genus._zero_sum_numerators([]) == [()]
        # one place alone cannot close a zero sum, whatever its order
        for r in (2, 3, 12):
            assert genus._zero_sum_numerators([r]) == []
            assert oracles.zero_sum_classes_by_fractions([Place(2)], [r]) == []
        assert oracles.zero_sum_classes_by_fractions([], []) == [BrauerClass()]

    @given(brauer_classes())
    def test_enumerated_genus_passes_the_full_check(self, cls):
        genus_set = genus_enumerate(cls)
        assert GenusSet(genus_set.base, genus_set.numerators) == genus_set
        assert genus_set.texts() == [str(m) for m in oracles.genus_members(genus_set)]

    @given(st.lists(st.sampled_from(PRIMES + (19, 23, 29, 31, 37, 41)), min_size=2, max_size=12,
                    unique=True))
    def test_family_passes_the_full_check(self, primes):
        family = epsilon_family(primes)
        assert GenusSet(family.base, family.numerators) == family
        assert family.texts() == [str(m) for m in oracles.genus_members(family)]

    def test_enumerators_skip_the_check(self, monkeypatch):
        checked = []
        post_init = GenusSet.__post_init__
        monkeypatch.setattr(GenusSet, "__post_init__",
                            lambda self: checked.append(self) or post_init(self))
        genus_enumerate(parse_class("2:1/5,3:1/5,5:1/5,7:2/5"))
        genus_enumerate(BrauerClass())
        epsilon_family((7, 3, 2, 5))
        assert checked == []
        # a direct construction is still checked, and refuses every bad case
        bad = [(parse_class("2:1/3,3:2/3"), ((2, 1),)),
               (parse_class("2:1/3,3:2/3"), ((1, 2), (1, 1))),
               (parse_class("2:1/4,5:1/4,inf:1/2"), ((1, 1, 1), (3, 1, 1)))]
        bad += [(parse_class("2:1/4,3:3/4"), ((1, 3), wrong))
                for wrong in ((2, 2), (1, 0), (4, 0), (1, 3, 0), (1,))]
        for base, numerators in bad:
            with pytest.raises(ValueError):
                GenusSet(base, numerators)
        assert len(checked) == len(bad)


class TestCombinationBoundary:
    # phi(17)**4 = 2**16 choices over the first four places
    AT_LIMIT = "2:1/17,3:1/17,5:1/17,7:1/17,11:13/17"

    def test_genus_at_the_limit_answers(self):
        started = time.perf_counter()
        report = genus_report(genus_enumerate(parse_class(self.AT_LIMIT)))
        assert time.perf_counter() - started < 5
        assert report["size"] == oracles.genus_size_by_ramanujan_sums([17] * 5) == 61680

    def test_one_above_the_limit_is_refused_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(genus, "MAX_GENUS_COMBINATIONS", 2**16 - 1)
        # the numerator choices are the first thing the enumeration builds
        monkeypatch.setattr(genus, "gcd", lambda *args: pytest.fail("enumeration started"))
        with pytest.raises(ValueError, match="needs 65536 combinations, above the limit 65535"):
            genus_enumerate(parse_class(self.AT_LIMIT))
