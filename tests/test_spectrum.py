import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import oracles
from test_quadfield import count_everywhere, count_squarefree_everywhere
from arithgenus import brauer, cli, quadfield, spectrum
from arithgenus.arith import Place, is_prime, is_squarefree, squarefree_part
from arithgenus.brauer import (
    BrauerClass,
    class_from_invariants,
    class_from_quaternion,
    parse_class,
)
from arithgenus.genus import embeds_quadratic
from arithgenus.quadfield import class_number, fundamental_unit, norm_one_unit
from arithgenus.spectrum import (
    WeylQuery,
    admissible_set,
    default_commensurability_bound,
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


# the per-d tests the sieve replaced: no call of any is expected
PER_D_TESTS = ("is_squarefree", "is_local_square", "factor")
NO_PER_D_TESTS = {name: [] for name in PER_D_TESTS}


def count_per_d_tests(monkeypatch):
    return {name: count_everywhere(monkeypatch, name) for name in PER_D_TESTS}


ODD_PRIMES_BELOW_100 = [p for p in range(3, 100, 2) if is_prime(p)]


@st.composite
def surface_classes(draw):
    """Quaternion classes split at the real place, ramified at 2 or 4 primes
    below 100, with or without 2."""
    with_two = draw(st.booleans())
    size = draw(st.sampled_from((2, 4))) - with_two
    odd = draw(st.lists(st.sampled_from(ODD_PRIMES_BELOW_100), min_size=size, max_size=size,
                        unique=True))
    return quaternion_like([2] * with_two + odd)


def geodesic_length(u, precision):
    """2 log u, the length of the closed geodesic of the unit u > 1, by the
    kernel that rounds the spectrum generators."""
    return spectrum._rounded_logs([u], precision)[0]


class TestGeodesicLength:
    def test_silver_example(self):
        with mp.workprec(128):
            expected = 2 * mp.log(3 + 2 * mp.sqrt(2))
            assert abs(geodesic_length(norm_one_unit(2), 96) - expected) < mp.mpf(2) ** -90

    def test_golden_example(self):
        u = norm_one_unit(5)
        with mp.workprec(128):
            expected = 2 * mp.log((3 + mp.sqrt(5)) / 2)
            assert abs(geodesic_length(u, 96) - expected) < mp.mpf(2) ** -90
        assert str(geodesic_length(u, 64))[:6] == "1.9248"

    def test_power_scales_length(self):
        u = norm_one_unit(3)
        base = geodesic_length(u, 128)
        for k in (2, 3, 5):
            powered = geodesic_length(u**k, 128)
            with mp.workprec(120):
                assert abs(powered - k * base) < mp.mpf(2) ** -100

    def test_precision_bounds(self):
        # the kernel takes its precision on trust; spectrum_generators checks it
        cls = parse_class("2:1/2,3:1/2")
        for precision in (-5, 0, 63):
            with pytest.raises(ValueError, match="at least 64 bits"):
                spectrum_generators(cls, 2, precision)
        with pytest.raises(ValueError, match="exceeds the supported bound 1024"):
            spectrum_generators(cls, 2, quadfield.MAX_PREC_BITS + 1)


def rounded_log(u, scale, precision):
    """scale * log u for a unit u > 1 at 4000 bits, then one rounding to
    `precision` bits; X and Y are positive, so no cancellation."""
    with mp.workprec(4000):
        value = scale * mp.log((u.X + u.Y * mp.sqrt(u.field.d)) / 2)
    with mp.workprec(precision):
        return +value


SURFACE_CLASSES = ("2:1/2,3:1/2", "2:1/2,5:1/2", "3:1/2,7:1/2", "2:1/2,3:1/2,5:1/2,7:1/2",
                   "5:1/2,13:1/2", "11:1/2,19:1/2")


class TestCorrectRounding:
    @given(st.integers(2, 10**6 - 1).filter(is_squarefree), st.integers(1, 3),
           st.integers(64, 1024))
    def test_geodesic_length(self, d, power, precision):
        u = fundamental_unit(d) ** power
        assert geodesic_length(u, precision) == rounded_log(u, 2, precision)

    @settings(max_examples=25)
    @given(st.sampled_from(SURFACE_CLASSES), st.integers(2, 200), st.integers(64, 1024))
    def test_spectrum_generators(self, text, bound, precision):
        for g in spectrum_generators(parse_class(text), bound, precision):
            eps = fundamental_unit(g.d)
            assert g.log_eta == rounded_log(eps, 2 * class_number(g.d).class_number, precision)

    def test_generators_up_to_2500(self):
        # 791 admissible d at four precisions: 3164 values
        cls = parse_class("2:1/2,3:1/2")
        precisions = (64, 128, 192, 384)
        got = {p: spectrum_generators(cls, 2500, p) for p in precisions}
        assert len(got[64]) == 791
        for i, d in enumerate(admissible_set(cls, 2500)):
            eps = fundamental_unit(d)
            with mp.workprec(4000):
                log_eta = 2 * class_number(d).class_number * mp.log(
                    (eps.X + eps.Y * mp.sqrt(d)) / 2)
            for p in precisions:
                with mp.workprec(p):
                    assert got[p][i].log_eta == +log_eta, (d, p)

    @given(st.integers(2, 10**6 - 1).filter(is_squarefree), st.integers(1, 12),
           st.integers(64, 1024))
    def test_matches_the_two_end_enclosure(self, d, power, precision):
        units = [fundamental_unit(d) ** power, norm_one_unit(d)]
        assert (spectrum._rounded_logs(units, precision)
                == oracles.rounded_logs_by_two_ends(units, precision))

    def test_two_end_enclosure_below_3000(self):
        units = [fundamental_unit(d) for d in range(2, 3000) if is_squarefree(d)]
        for precision in (64, 128, 192, 384, 1024):
            assert (spectrum._rounded_logs(units, precision)
                    == oracles.rounded_logs_by_two_ends(units, precision)), precision

    def test_generators_widen_the_enclosure_alike(self, monkeypatch):
        # a first bracket of 8 bits leaves ends that round apart at 96 bits:
        # d = 2 is the only admissible d up to 2, with h = 1 and eta = eps(2)^2
        calls = []
        original = spectrum._bracket

        def coarse_first(u, bits):
            calls.append(bits)
            return original(u, 8 if len(calls) == 1 else bits)

        monkeypatch.setattr(spectrum, "_bracket", coarse_first)
        [generator] = spectrum_generators(parse_class("2:1/2,3:1/2"), 2, 96)
        assert (generator.d, generator.log_eta) == (2, rounded_log(fundamental_unit(2), 2, 96))
        assert calls == [128, 256]


class TestAdmissible:
    def test_examples(self):
        cls = class_from_quaternion(-1, 3)
        admissible = admissible_set(cls, 7)
        assert 2 in admissible
        assert 5 in admissible
        assert 7 not in admissible

    def test_rejects_ramified_at_real(self):
        with pytest.raises(ValueError):
            admissible_set(class_from_quaternion(-1, -1), 2)

    def test_rejects_non_division(self):
        with pytest.raises(ValueError):
            admissible_set(BrauerClass(), 2)
        with pytest.raises(ValueError):
            admissible_set(parse_class("2:1/3,3:2/3"), 2)

    def test_bound_limit(self, monkeypatch):
        cls = class_from_quaternion(-1, 3)
        with pytest.raises(ValueError, match="bound 10001 exceeds the supported bound 10000"):
            admissible_set(cls, spectrum.MAX_SPECTRUM_BOUND + 1)
        # refused before any d is tested; the limit itself is allowed
        calls = count_squarefree_everywhere(monkeypatch)
        monkeypatch.setattr(spectrum, "MAX_SPECTRUM_BOUND", 20)
        with pytest.raises(ValueError, match="bound 21 exceeds the supported bound 20"):
            spectrum_generators(cls, 21, 128)
        assert calls == []
        assert [g.d for g in spectrum_generators(cls, 20, 128)] == admissible_set(cls, 20)

    def test_rejects_bad_d(self):
        cls = class_from_quaternion(-1, 3)
        for bad in (0, 1, 8):
            with pytest.raises(ValueError):
                embeds_quadratic(bad, cls)

    def test_depends_only_on_square_class(self):
        cls = class_from_quaternion(-1, 3)
        for d in (2, 3, 5, 6, 7, 10):
            for m in (2, 3, 5):
                reduced = squarefree_part(d * m * m)
                if reduced > 1:
                    assert embeds_quadratic(reduced, cls) == embeds_quadratic(d, cls)

    def test_each_d_and_the_algebra_checked_once(self, monkeypatch):
        # the sieve tests no single d: it factors nothing and asks no local
        # square test; the algebra is checked once
        cls = parse_class("2:1/2,3:1/2")
        per_d = count_per_d_tests(monkeypatch)
        index_calls = count_everywhere(monkeypatch, "global_index", brauer)
        admissible = admissible_set(cls, 300)
        assert per_d == NO_PER_D_TESTS
        assert len(index_calls) == 1 and len(admissible) == 95
        monkeypatch.undo()
        assert admissible == oracles.admissible_set_by_local_squares(cls, 300)
        assert admissible == [d for d in range(2, 301)
                              if is_squarefree(d) and embeds_quadratic(d, cls)]

    @given(surface_classes(), st.integers(2, spectrum.MAX_SPECTRUM_BOUND))
    def test_sieve_matches_local_squares(self, cls, bound):
        assert admissible_set(cls, bound) == oracles.admissible_set_by_local_squares(cls, bound)

    @settings(max_examples=30)
    @given(surface_classes())
    def test_sieve_at_edge_bounds(self, cls):
        # the first residues, 8 and 9 for the class mod 8 and 3^2, and p^2 with
        # its neighbours, where the first multiple of p^2 and p^2 + 1 appear
        primes = [v.prime for v in cls.support]
        edges = sorted({2, 3, 8, 9} | {p * p + e for p in primes for e in (-1, 0, 1)})
        want = oracles.admissible_set_by_local_squares(cls, edges[-1])
        for bound in edges:
            assert admissible_set(cls, bound) == [d for d in want if d <= bound], bound

    def test_primes_above_the_bound(self):
        # d <= bound < p is its own residue mod p; 2^61 - 1 is prime
        for primes in ((2**61 - 1, 1_000_003), (2, 10007), (3, 2**61 - 1)):
            cls = quaternion_like(primes)
            for bound in (2, 97, 2000):
                want = oracles.admissible_set_by_local_squares(cls, bound)
                assert admissible_set(cls, bound) == want, (primes, bound)


class TestSpectrumGenerators:
    def test_values_and_order(self):
        cls = class_from_quaternion(-1, 3)
        gens = spectrum_generators(cls, 10, 96)
        assert [g.d for g in gens] == [d for d in range(2, 11)
                                       if is_squarefree(d) and embeds_quadratic(d, cls)]
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
        gens = spectrum_generators(parse_class("2:1/2,3:1/2"), 300, 128)
        assert len(gens) == len(calls) == 95

    def test_each_d_checked_once(self, monkeypatch):
        # no d is tested by itself: the sieve proved each squarefree, and the
        # unit and class number take it on trust
        cls = parse_class("2:1/2,3:1/2")
        per_d = count_per_d_tests(monkeypatch)
        index_calls = count_everywhere(monkeypatch, "global_index", brauer)
        unit_calls = count_everywhere(monkeypatch, "fundamental_unit", quadfield)
        gens = spectrum_generators(cls, 300, 128)
        assert per_d == NO_PER_D_TESTS
        assert len(index_calls) == 1 and len(unit_calls) == len(gens) == 95
        monkeypatch.undo()
        assert [g.d for g in gens] == oracles.admissible_set_by_local_squares(cls, 300)

    def test_generators_skip_the_public_checks(self, monkeypatch):
        # the loop holds log eta > 0 already; the public constructor keeps
        # its check
        built = []
        monkeypatch.setattr(spectrum.SpectrumGenerator, "__post_init__",
                            lambda self: built.append(self))
        gens = spectrum_generators(parse_class("2:1/2,3:1/2"), 300, 128)
        assert len(gens) == 95 and built == []
        monkeypatch.undo()
        with pytest.raises(ValueError, match="log eta must be positive"):
            spectrum.SpectrumGenerator(2, mp.mpf(0))

    def test_bound_validation(self):
        cls = class_from_quaternion(-1, 3)
        with pytest.raises(ValueError):
            spectrum_generators(cls, 1, 96)

    def test_precision_limit(self, monkeypatch):
        cls = class_from_quaternion(-1, 3)
        limit = quadfield.MAX_PREC_BITS
        calls = count_squarefree_everywhere(monkeypatch)
        for precision in (32, limit + 1):
            with pytest.raises(ValueError, match="precision"):
                spectrum_generators(cls, 10, precision)
        assert calls == []
        monkeypatch.undo()
        assert [g.d for g in spectrum_generators(cls, 10, limit)] == admissible_set(cls, 10)

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

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_in_range_terms_unchanged(self, dim):
        # the float formula, bit for bit, wherever its factors stay in range
        for volume in (1e-3, 1.0, 4 * math.pi, 12345.678):
            for lam in (0.0, 0.5, 1.0, 7.25, 1e3):
                direct = volume / ((4 * math.pi) ** (dim / 2) * math.gamma(dim / 2 + 1)) * lam**dim
                assert weyl_main_term(WeylQuery(dim, volume, lam)) == direct

    def test_overflow_refused(self):
        # lam^n overflows a float; so does the term
        with pytest.raises(OverflowError, match="Weyl main term is not a finite float"):
            weyl_main_term(WeylQuery(2, 1e308, 1e200))
        argv = ["weyl", "--dim=2", "--volume=1e308", "--lam=1e200"]
        assert cli.execute(cli.parse(argv)).to_json() == (
            '{"ok":false,"error":"Weyl main term is not a finite float"}')

    def test_underflow_is_zero(self):
        # Gamma(201) overflows a float; the term is about 1e-596
        assert weyl_main_term(WeylQuery(400, 1.0, 1.0)) == 0.0
        assert weyl_main_term(WeylQuery(400, 1.0, 0.0)) == 0.0
        argv = ["weyl", "--dim=400", "--volume=1", "--lam=1"]
        assert cli.execute(cli.parse(argv)).to_json() == '{"ok":true,"result":0.0}'


    def test_dimension_past_float_range(self):
        # n/2 is no float; lam^n wins at 10^400 and Gamma(n/2+1) at 10^1000
        with pytest.raises(OverflowError, match="Weyl main term is not a finite float"):
            weyl_main_term(WeylQuery(10**400, 1.0, 1e300))
        assert weyl_main_term(WeylQuery(10**1000, 1.0, 1e300)) == 0.0

    @pytest.mark.parametrize("dim, volume, lam", [(300, 1.0, 10.0), (250, 1e-300, 40.0),
                                                  (220, 1e-10, 10.0), (2, 1e-320, 1e10)])
    def test_term_in_range_from_factors_out_of_it(self, dim, volume, lam):
        # (4 pi)^(n/2) Gamma(n/2+1) leaves the float range, or the quotient
        # falls below it, while the term itself is a normal float
        with mp.workprec(200):
            half = mp.mpf(dim) / 2
            exact = volume / ((4 * mp.pi) ** half * mp.gamma(half + 1)) * mp.mpf(lam) ** dim
        assert math.isclose(weyl_main_term(WeylQuery(dim, volume, lam)), float(exact), rel_tol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeylQuery(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            WeylQuery(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            WeylQuery(2, 1.0, -1.0)
