import itertools
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

import oracles
from arithgenus import cli, quadfield, spectrum
from arithgenus.arith import Place, is_squarefree, squarefree_part
from arithgenus.brauer import (
    BrauerClass,
    class_from_invariants,
    class_from_quaternion,
    parse_class,
)
from arithgenus.quadfield import QuadField, QuadUnit, fundamental_unit, norm_one_unit
from arithgenus.spectrum import (
    HyperbolicGeodesic,
    WeylQuery,
    admissible_d,
    default_commensurability_bound,
    geodesic_length,
    length_commensurable,
    spectrum_generators,
    weyl_main_term,
)

RNG_SEED = 60601


def quaternion_like(support):
    return class_from_invariants({Place(p): Fraction(1, 2) for p in support})


def verdicts(c1, c2, bound):
    """The bounded search, the closed form and class equality, in that order."""
    return (
        oracles.length_commensurable_by_admissible_sets(c1, c2, bound),
        length_commensurable(c1, c2),
        c1 == c2,
    )


class TestGeodesicLength:
    def test_silver_example(self):
        g = HyperbolicGeodesic(norm_one_unit(2), 1)
        with mp.workprec(128):
            expected = 2 * mp.log(3 + 2 * mp.sqrt(2))
            assert abs(geodesic_length(g, 96) - expected) < mp.mpf(2) ** -90

    def test_winding_halves(self):
        u = norm_one_unit(2)
        full = geodesic_length(HyperbolicGeodesic(u, 1), 96)
        half = geodesic_length(HyperbolicGeodesic(u, 2), 96)
        with mp.workprec(96):
            assert half * 2 == full

    def test_golden_example(self):
        g = HyperbolicGeodesic(norm_one_unit(5), 1)
        with mp.workprec(128):
            expected = 2 * mp.log((3 + mp.sqrt(5)) / 2)
            assert abs(geodesic_length(g, 96) - expected) < mp.mpf(2) ** -90
        assert str(geodesic_length(g, 64))[:6] == "1.9248"

    def test_power_scales_length(self):
        u = norm_one_unit(3)
        base = geodesic_length(HyperbolicGeodesic(u, 1), 128)
        for k in (2, 3, 5):
            powered = geodesic_length(HyperbolicGeodesic(u**k, 1), 128)
            with mp.workprec(120):
                assert abs(powered - k * base) < mp.mpf(2) ** -100

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperbolicGeodesic(norm_one_unit(2), 0)
        one = QuadUnit(QuadField(2), Fraction(1), Fraction(0), 1)
        with pytest.raises(ValueError):
            HyperbolicGeodesic(one, 1)
        small = fundamental_unit(2).inverse()  # sqrt(2) - 1 < 1
        with pytest.raises(ValueError):
            HyperbolicGeodesic(small, 1)


class TestAdmissible:
    def test_examples(self):
        cls = class_from_quaternion(-1, 3)
        assert admissible_d(cls, 2)
        assert admissible_d(cls, 5)
        assert not admissible_d(cls, 7)

    def test_rejects_ramified_at_real(self):
        with pytest.raises(ValueError):
            admissible_d(class_from_quaternion(-1, -1), 2)

    def test_rejects_non_division(self):
        with pytest.raises(ValueError):
            admissible_d(BrauerClass(), 2)
        with pytest.raises(ValueError):
            admissible_d(parse_class("2:1/3,3:2/3"), 2)

    def test_rejects_bad_d(self):
        cls = class_from_quaternion(-1, 3)
        for bad in (0, 1, -2, 8):
            with pytest.raises(ValueError):
                admissible_d(cls, bad)

    def test_depends_only_on_square_class(self):
        cls = class_from_quaternion(-1, 3)
        for d in (2, 3, 5, 6, 7, 10):
            for m in (2, 3, 5):
                reduced = squarefree_part(d * m * m)
                if reduced > 1:
                    assert admissible_d(cls, reduced) == admissible_d(cls, d)


class TestSpectrumGenerators:
    def test_values_and_order(self):
        cls = class_from_quaternion(-1, 3)
        gens = spectrum_generators(cls, 10, 96)
        assert [g.d for g in gens] == [d for d in range(2, 11)
                                       if is_squarefree(d) and admissible_d(cls, d)]
        assert all(g.log_eta > 0 for g in gens)

    def test_log_eta_matches_eta(self):
        from arithgenus.quadfield import eta_analytic

        cls = class_from_quaternion(-1, 3)
        for g in spectrum_generators(cls, 12, 128):
            with mp.workprec(128):
                assert abs(mp.exp(g.log_eta) - eta_analytic(g.d, 128)) < mp.mpf(2) ** -100

    def test_matches_sine_product_oracle(self):
        cls = parse_class("2:1/2,3:1/2")
        for precision in (64, 128, 192):
            got = spectrum_generators(cls, 150, precision)
            want = oracles.spectrum_generators_by_sine_product(cls, 150, precision)
            assert [(g.d, cli._decimal(g.log_eta)) for g in got] == [
                (g.d, cli._decimal(g.log_eta)) for g in want
            ]

    def test_one_fundamental_unit_per_generator(self, monkeypatch):
        calls = []
        original = quadfield.fundamental_unit

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # spectrum holds its own binding of the name
        monkeypatch.setattr(quadfield, "fundamental_unit", counting)
        monkeypatch.setattr(spectrum, "fundamental_unit", counting)
        gens = spectrum_generators(parse_class("2:1/2,3:1/2"), 300)
        assert len(gens) == len(calls) == 95

    def test_bound_validation(self):
        cls = class_from_quaternion(-1, 3)
        with pytest.raises(ValueError):
            spectrum_generators(cls, 1, 96)

    def test_trivial_class_rejected(self):
        with pytest.raises(ValueError):
            spectrum_generators(BrauerClass(), 10, 96)


class TestLengthCommensurable:
    def test_equal_classes(self):
        c1, c2 = class_from_quaternion(-1, 3), class_from_quaternion(2, 3)
        assert verdicts(c1, c2, 200) == (True, True, True)

    def test_distinct_classes(self):
        c1, c2 = class_from_quaternion(-1, 3), class_from_quaternion(-1, 7)
        assert verdicts(c1, c2, 200) == (False, False, False)

    def test_reflexive_and_symmetric(self):
        rng = random.Random(RNG_SEED)
        primes = (2, 3, 5, 7, 11, 13)
        pool = [quaternion_like(rng.sample(primes, rng.choice((2, 4)))) for _ in range(8)]
        for c1 in pool:
            assert verdicts(c1, c1, 150) == (True, True, True)
            for c2 in pool:
                oracle, closed, equal = verdicts(c1, c2, 150)
                assert oracle == closed == equal
                assert closed == length_commensurable(c2, c1)

    def test_default_bound(self):
        c1 = quaternion_like((2, 3))
        c2 = quaternion_like((2, 17))
        assert default_commensurability_bound(c1, c2) == 289
        assert verdicts(c1, c2, None) == (False, False, False)

    def test_agreement_means_equality_small_supports(self):
        # no two distinct surfaces in this family share admissible sets
        classes = []
        for r in (2, 4):
            for sub in itertools.combinations((2, 3, 5, 7, 11), r):
                classes.append(quaternion_like(sub))
        for c1 in classes:
            for c2 in classes:
                oracle, closed, equal = verdicts(c1, c2, 200)
                assert oracle == closed == equal


class TestWeyl:
    def test_normalized_surface(self):
        q = WeylQuery(2, 4 * math.pi, 1.0)
        assert abs(weyl_main_term(q) - 1.0) < 1e-12

    def test_lambda_scaling(self):
        base = weyl_main_term(WeylQuery(2, 4 * math.pi, 1.0))
        assert abs(weyl_main_term(WeylQuery(2, 4 * math.pi, 2.0)) - 4 * base) < 1e-12

    def test_zero_lambda(self):
        assert weyl_main_term(WeylQuery(3, 2.5, 0.0)) == 0.0

    def test_odd_dimension_gamma(self):
        # n = 3: (4 pi)^{3/2} Gamma(5/2) = (4 pi)^{3/2} * 3/4 * sqrt(pi)
        q = WeylQuery(3, 1.0, 1.0)
        expected = 1.0 / ((4 * math.pi) ** 1.5 * (3 / 4) * math.sqrt(math.pi))
        assert abs(weyl_main_term(q) - expected) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            WeylQuery(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            WeylQuery(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            WeylQuery(2, 1.0, -1.0)
