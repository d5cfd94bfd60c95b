import random
import sys
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from mpmath import mp

import oracles
from arithgenus import arith, quadfield, spectrum
from arithgenus.arith import is_squarefree, kronecker_symbol
from arithgenus.brauer import class_from_quaternion
from arithgenus.cli import _decimal
from arithgenus.quadfield import (
    ClassData,
    QuadField,
    QuadUnit,
    class_number,
    eta_analytic,
    fundamental_unit,
    norm_one_unit,
    unit_real_value,
)

RNG_SEED = 31337

# the least prime above quadfield.MAX_D
BEYOND_MAX_D = 1_000_003

SQUAREFREE_SMALL = [
    d for d in range(2, 80) if all(d % (k * k) for k in range(2, 10))
]
SQUAREFREE_BELOW_3000 = [d for d in range(2, 3000) if is_squarefree(d)]


def squarefree_sample(seed: int, count: int) -> list[int]:
    """count distinct squarefree d in [5*10^5, 10^6), drawn with the seed."""
    rng = random.Random(seed)
    sample = set()
    while len(sample) < count:
        d = rng.randrange(5 * 10**5, 10**6)
        if is_squarefree(d):
            sample.add(d)
    return sorted(sample)


class TestQuadField:
    def test_discriminant(self):
        assert QuadField(5).fundamental_discriminant == 5
        assert QuadField(2).fundamental_discriminant == 8
        assert QuadField(3).fundamental_discriminant == 12

    @pytest.mark.parametrize("bad", [0, 1, -2, 12, 18])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            QuadField(bad)


class TestQuadUnit:
    def test_integrality_enforced(self):
        with pytest.raises(ValueError):
            oracles.make_unit(QuadField(2), Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            oracles.make_unit(QuadField(5), Fraction(1, 2), Fraction(1))

    def test_integer_coordinates(self):
        eps = fundamental_unit(5)  # (1 + sqrt(5))/2
        assert (eps.X, eps.Y, eps.norm) == (1, 1, -1)
        assert (eps.x, eps.y) == (Fraction(1, 2), Fraction(1, 2))
        assert str(eps) == "1/2 + 1/2*sqrt(5)"
        assert (eps * eps).X == 3 and (eps**-1).X == -1
        # X^2 - d*Y^2 = +-4 fixes the parities for squarefree d
        for d, big_x, big_y, norm in ((5, 2, 1, -1), (13, 2, 1, -1), (2, 1, 1, -1), (3, 1, 1, -1)):
            with pytest.raises(ValueError, match="norm does not match"):
                QuadUnit(QuadField(d), big_x, big_y, norm)
        with pytest.raises(ValueError, match="norm \\+1 or -1"):
            QuadUnit(QuadField(3), 4, 0, 4)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            oracles.make_unit(QuadField(2), 2, 1)

    def test_norm_multiplicative(self):
        rng = random.Random(RNG_SEED)
        eps2 = fundamental_unit(2)
        eps5 = fundamental_unit(5)
        for u in (eps2, eps5):
            for _ in range(20):
                j, k = rng.randint(-5, 5), rng.randint(-5, 5)
                a, b = u**j, u**k
                assert (a * b).norm == a.norm * b.norm
                assert a * a**-1 == oracles.make_unit(u.field, Fraction(1), Fraction(0))

    def test_large_power_splits(self):
        u = fundamental_unit(2)
        assert u**2000 == u**1000 * u**1000
        assert u**-7 == (u**7) ** -1

    def test_exact_real_comparison(self):
        u = fundamental_unit(2)  # 1 + sqrt(2) ~ 2.414
        assert oracles.compare_real(u, 2) == 1
        assert oracles.compare_real(u, 3) == -1
        assert oracles.compare_real(u, Fraction(12, 5)) == 1
        assert oracles.compare_real(u**-1, 1) == -1


def count_squarefree(monkeypatch):
    calls = []
    original = quadfield.is_squarefree

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(quadfield, "is_squarefree", counting)
    return calls


def count_everywhere(monkeypatch, function, home=arith):
    """Count calls of the function of that name in `home` (a package module,
    arith by default) through every binding of it in the package; returns
    the list of first arguments."""
    calls = []
    original = getattr(home, function)

    def counting(n, *rest):
        calls.append(n)
        return original(n, *rest)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "arithgenus" and vars(module).get(function) is original:
            monkeypatch.setattr(module, function, counting)
    return calls


def count_squarefree_everywhere(monkeypatch):
    """Count is_squarefree calls through every binding of it in the package."""
    return count_everywhere(monkeypatch, "is_squarefree")


class TestFundamentalUnit:
    def test_frozen_small_cases(self):
        assert fundamental_unit(2) == oracles.make_unit(QuadField(2), Fraction(1), Fraction(1))
        assert fundamental_unit(5) == oracles.make_unit(QuadField(5), Fraction(1, 2), Fraction(1, 2))
        assert fundamental_unit(3) == oracles.make_unit(QuadField(3), Fraction(2), Fraction(1))

    def test_against_pell_search(self):
        for d in SQUAREFREE_SMALL:
            x, y, norm = oracles.minimal_unit_by_search(d)
            eps = fundamental_unit(d)
            assert (eps.x, eps.y, eps.norm) == (x, y, norm), d

    def test_matches_sympy_diop_dn(self):
        # eps = (X + Y*sqrt(d))/2 for the least positive solution of
        # X^2 - d*Y^2 = +-4 when d = 1 mod 4, and X + Y*sqrt(d) for the least
        # of X^2 - d*Y^2 = +-1 otherwise
        diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
        below_2000 = [d for d in SQUAREFREE_BELOW_3000 if d < 2000]
        for d in below_2000 + squarefree_sample(RNG_SEED, 50):
            k = 4 if d % 4 == 1 else 1
            x, y = min(((x, y) for n in (k, -k) for x, y in diophantine.diop_DN(d, n)
                        if x > 0 and y > 0), key=lambda s: (s[1], s[0]))
            half = 2 if k == 4 else 1
            eps = fundamental_unit(d)
            assert (eps.x, eps.y) == (Fraction(x, half), Fraction(y, half)), d
            assert eps.norm * k == x * x - d * y * y, d

    def test_matches_repeated_quotient_oracle(self):
        for d in SQUAREFREE_BELOW_3000 + squarefree_sample(RNG_SEED + 1, 20):
            assert fundamental_unit(d) == oracles.unit_by_repeated_quotient(d), d

    def test_classical_large_period(self):
        eps = fundamental_unit(94)
        assert (eps.x, eps.y) == (2143295, 221064)
        assert eps.norm == 1

    def test_minimality_by_bounded_descent(self):
        # a unit 1 < u < eps would need 0 < y_u < y_eps; scan those y and
        # check that no coordinate pair closes to a unit
        from math import isqrt

        for d in (2, 3, 5, 6, 7, 10, 11, 13, 15, 19, 21, 29):
            eps = fundamental_unit(d)
            for two_y in range(1, int(2 * eps.y)):
                for norm in (-1, 1):
                    squared = d * two_y * two_y + 4 * norm
                    if squared < 0:
                        continue
                    two_x = isqrt(squared)
                    if two_x * two_x != squared:
                        continue
                    try:
                        oracles.make_unit(
                            QuadField(d), Fraction(two_x, 2), Fraction(two_y, 2)
                        )
                    except ValueError:
                        continue
                    raise AssertionError(f"unit below the fundamental one for d={d}")

    def test_bad_d_rejected(self):
        for bad in (1, 0, -3, 8, 45):
            with pytest.raises(ValueError):
                fundamental_unit(bad)

    def test_cap_configurable(self):
        # 1000003 is prime, so only the bound MAX_D refuses it
        with pytest.raises(ValueError, match="exceeds the supported bound 1000000"):
            fundamental_unit(BEYOND_MAX_D)
        largest = max(d for d in range(quadfield.MAX_D - 50, quadfield.MAX_D + 1)
                      if is_squarefree(d))
        assert oracles.compare_real(fundamental_unit(largest), 1) > 0

    def test_positive_coordinates_mean_above_one(self):
        # the assert in fundamental_unit: X, Y > 0 and u * conj(u) = +-1 put
        # u above |conj(u)| = 1/u, so u > 1, as the exact comparison says
        for d in filter(is_squarefree, range(2, 20000)):
            u = fundamental_unit(d)
            assert u.X > 0 and u.Y > 0 and oracles.compare_real(u, 1) > 0, d

    def test_d_checked_once(self, monkeypatch):
        calls = count_squarefree(monkeypatch)
        fundamental_unit(79)
        assert calls == [79]

    def test_built_field_is_not_checked_again(self, monkeypatch):
        field = QuadField(79)
        calls = count_squarefree_everywhere(monkeypatch)
        assert fundamental_unit(field) == fundamental_unit(79)
        assert class_number(field) == class_number(79)
        assert calls == [79, 79]
        # the bound on d still applies to a built field
        with pytest.raises(ValueError, match="exceeds the supported bound 1000000"):
            fundamental_unit(QuadField(BEYOND_MAX_D))


class TestNormOneUnit:
    def test_examples(self):
        assert norm_one_unit(2) == oracles.make_unit(QuadField(2), Fraction(3), Fraction(2))
        assert norm_one_unit(3) == fundamental_unit(3)
        assert norm_one_unit(5) == oracles.make_unit(QuadField(5), Fraction(3, 2), Fraction(1, 2))

    def test_always_norm_one_and_small(self):
        for d in SQUAREFREE_SMALL:
            eps = fundamental_unit(d)
            one = norm_one_unit(d)
            assert one.norm == 1
            assert one in (eps, eps * eps)


def reduced_keys(disc):
    """The keys (a, b) the class-number walk lists for disc, in its order."""
    top = isqrt(disc) // 2
    return list(quadfield._reduced_keys(disc, isqrt(disc), top,
                                        *quadfield._root_tables(disc, top)))


def key_count(disc):
    top = isqrt(disc) // 2
    return quadfield._key_count(disc, top, *quadfield._root_tables(disc, top))


def keys_of(forms, disc):
    """(a, b) of the reduced forms (a, b, c) with 0 < a <= isqrt(disc)//2."""
    return {(a, b) for a, b, _ in forms if 0 < a <= isqrt(disc) // 2}


def key_walks(disc):
    """The keys (|a|, b) met by each cycle of reduced forms, walked one step
    at a time from the first listed key no walk has met yet."""
    root, walks = isqrt(disc), []
    for key in reduced_keys(disc):
        # the negative of a walked cycle meets the same keys, so it is skipped
        if any(key in walk for walk in walks):
            continue
        (a, b), met = key, set()
        c = (b * b - disc) // (4 * a)
        while True:
            if abs(a) <= root // 2:
                met.add((abs(a), b))
            # (a, b, c) -> (c, b', (b'^2 - disc)/(4c)), b' = -b mod 2|c| below sqrt(disc)
            b = root - (root + b) % (2 * abs(c))
            a, c = c, (b * b - disc) // (4 * c)
            if (a, b) == key:
                break
        walks.append(met)
    return walks


class TestClassNumber:
    # d with many small primes, one per class of the discriminant: D = d with
    # D = 1 and 5 mod 8, and D = 4d with d = 3 and 2 mod 4
    MANY_SMALL_PRIMES = (969969, 937365, 255255, 690690)

    @pytest.mark.parametrize(
        "d,h,narrow",
        [
            (5, 1, 1),
            (3, 1, 2),
            (10, 2, 2),
            (2, 1, 1),
            (6, 1, 2),
            (7, 1, 2),
            (11, 1, 2),
            (13, 1, 1),
            (15, 2, 4),
            (79, 3, 6),
            (82, 4, 4),
        ],
    )
    def test_table_values(self, d, h, narrow):
        data = class_number(d)
        assert data.class_number == h
        assert data.narrow_class_number == narrow

    def test_norm_one_correction(self):
        for d in SQUAREFREE_SMALL:
            data = class_number(d)
            eps = fundamental_unit(d)
            if eps.norm == -1:
                assert data.narrow_class_number == data.class_number
            else:
                assert data.narrow_class_number == 2 * data.class_number

    # also the largest squarefree d <= MAX_D in each class mod 8
    NEAR_MAX_D = [max(d for d in range(quadfield.MAX_D - 80, quadfield.MAX_D + 1)
                      if d % 8 == r and is_squarefree(d)) for r in (1, 2, 3, 5, 6, 7)]

    def key_cases(self):
        return (SQUAREFREE_BELOW_3000 + squarefree_sample(RNG_SEED + 2, 20) + self.NEAR_MAX_D
                + list(self.MANY_SMALL_PRIMES))

    def test_reduced_forms_match_divisor_pair_oracle(self):
        for d in self.key_cases():
            disc = QuadField(d).fundamental_discriminant
            forms = oracles.reduced_forms_by_divisor_pairs(disc)
            assert set(reduced_keys(disc)) == keys_of(forms, disc), d
            assert {(-a, b, -c) for a, b, c in forms} == forms, d

    @given(st.sampled_from((1, 5, 3, 7, 2, 6)), st.integers(0, quadfield.MAX_D // 8))
    @example(1, 969969 // 8)
    @example(5, 937365 // 8)
    @example(7, 255255 // 8)
    @example(2, 690690 // 8)
    def test_reduced_forms_match_interval_oracle(self, residue, k):
        d = 8 * k + residue
        assume(1 < d <= quadfield.MAX_D and is_squarefree(d))
        disc = QuadField(d).fundamental_discriminant
        assert set(reduced_keys(disc)) == keys_of(oracles.reduced_forms_by_intervals(disc), disc)

    def test_key_count_matches_the_keys(self):
        for d in self.key_cases():
            disc = QuadField(d).fundamental_discriminant
            keys = reduced_keys(disc)
            count = key_count(disc)
            assert count == len(keys) == len(set(keys)), d
            assert count == len(keys_of(oracles.positive_reduced_forms(disc), disc)), d

    @given(st.integers(2, quadfield.MAX_D).filter(is_squarefree))
    def test_key_count_on_random_d(self, d):
        disc = QuadField(d).fundamental_discriminant
        assert key_count(disc) == len(reduced_keys(disc))

    @given(st.integers(2, quadfield.MAX_D).filter(is_squarefree))
    @example(969969)
    @example(937365)
    def test_class_numbers_match_the_form_set_oracle(self, d):
        eps = fundamental_unit(d)
        data = class_number(d)
        assert (data.narrow_class_number, data.class_number) == (
            oracles.class_numbers_by_form_set(eps))

    def test_class_numbers_below_3000_match_the_form_set_oracle(self):
        for d in SQUAREFREE_BELOW_3000 + list(self.MANY_SMALL_PRIMES) + self.NEAR_MAX_D:
            data = class_number(d)
            assert (data.narrow_class_number, data.class_number) == (
                oracles.class_numbers_by_form_set(fundamental_unit(d))), d

    @given(st.integers(2, quadfield.MAX_D).filter(is_squarefree))
    @example(969969)
    @example(690690)
    def test_genus_theory_divides_the_narrow_class_number(self, d):
        # the 2-rank of the narrow class group is t - 1 for the t primes
        # dividing the discriminant
        t = len(arith.factor(QuadField(d).fundamental_discriminant).factors)
        assert class_number(d).narrow_class_number % 2 ** (t - 1) == 0

    def test_class_number_one_computes_no_root(self, monkeypatch):
        # the principal cycle meets every key: no key is listed, no root found
        advanced, roots = [], count_everywhere(monkeypatch, "_odd_roots", quadfield)
        original = quadfield._reduced_keys

        def spy(*args):
            for key in original(*args):
                advanced.append(key)
                yield key

        monkeypatch.setattr(quadfield, "_reduced_keys", spy)
        for d in (2, 5, 13):
            assert class_number(d).narrow_class_number == 1
        assert advanced == roots == []
        assert class_number(79).narrow_class_number == 6
        assert advanced and roots

    def test_keys_missing_from_the_listing_raise(self, monkeypatch):
        # d = 79 has h+ = 6: three walks, each of a cycle and its negative;
        # a listing that misses the keys of the last walk would give h+ = 4
        disc = QuadField(79).fundamental_discriminant
        walks = key_walks(disc)
        assert len(walks) == 3
        original = quadfield._reduced_keys
        monkeypatch.setattr(quadfield, "_reduced_keys",
                            lambda *args: (key for key in original(*args) if key not in walks[-1]))
        with pytest.raises(RuntimeError, match="the reduced forms ran out with"):
            class_number(79)

    def test_class_data_validation(self):
        with pytest.raises(ValueError):
            ClassData(QuadField(5), 3, 2)


class TestEtaAnalytic:
    def test_golden_ratio_square(self):
        eta = eta_analytic(5, 128)
        with mp.workprec(160):
            expected = (3 + mp.sqrt(5)) / 2
            assert abs(eta - expected) / expected < mp.mpf(2) ** -120

    def test_silver_ratio(self):
        eta = eta_analytic(2, 128)
        with mp.workprec(160):
            expected = 3 + 2 * mp.sqrt(2)
            assert abs(eta - expected) / expected < mp.mpf(2) ** -120

    def test_d_three(self):
        eta = eta_analytic(3, 128)
        with mp.workprec(160):
            expected = 7 + 4 * mp.sqrt(3)
            assert abs(eta - expected) / expected < mp.mpf(2) ** -120

    def test_unit_power_relation(self):
        # analytic product against the purely algebraic side, at 192 working
        # bits, for a range of d including a class number 3 and 4 case
        for d in (2, 3, 5, 6, 7, 10, 11, 13, 15, 79, 82):
            eta = oracles.eta_by_sine_product(d, 128)
            h = class_number(d).class_number
            with mp.workprec(192):
                algebraic = unit_real_value(fundamental_unit(d), 128) ** (2 * h)
                rel = abs(eta - algebraic) / eta
                assert rel < mp.mpf(2) ** -64, (d, rel)

    def test_literal_modulus_only_works_for_one_mod_four(self):
        # the sine product taken over d itself (not the discriminant)
        # degenerates for d = 2, 3 mod 4
        def literal_product(d):
            with mp.workprec(192):
                total = mp.mpf(0)
                for r in range(1, d):
                    chi = kronecker_symbol(d, r)
                    if chi:
                        total -= chi * mp.log(mp.sin(mp.pi * r / d))
                return mp.exp(total)

        for d in (5, 13, 17, 21):
            h = class_number(d).class_number
            with mp.workprec(192):
                algebraic = unit_real_value(fundamental_unit(d), 128) ** (2 * h)
                assert abs(literal_product(d) - algebraic) / algebraic < mp.mpf(2) ** -64
        for d in (2, 3, 7):
            h = class_number(d).class_number
            with mp.workprec(192):
                algebraic = unit_real_value(fundamental_unit(d), 128) ** (2 * h)
                assert abs(literal_product(d) - algebraic) / algebraic > mp.mpf("0.01")

    def test_precision_validation(self):
        with pytest.raises(ValueError):
            eta_analytic(5, 32)
        limit = quadfield.MAX_PREC_BITS
        assert eta_analytic(5, limit) > 2
        with pytest.raises(ValueError, match=f"precision {limit + 1} bits exceeds the supported bound {limit}"):
            eta_analytic(5, limit + 1)

    def test_matches_sine_product_oracle(self):
        for d in filter(is_squarefree, range(2, 300)):
            for precision in (128, 192):
                want = _decimal(oracles.eta_by_sine_product(d, precision))
                assert _decimal(eta_analytic(d, precision)) == want, (d, precision)

    def test_one_fundamental_unit_per_call(self, monkeypatch):
        calls = []
        original = quadfield.fundamental_unit

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(quadfield, "fundamental_unit", counting)
        eta_analytic(79, 128)
        assert calls == [(79,)]

    def test_d_checked_once(self, monkeypatch):
        calls = count_squarefree(monkeypatch)
        eta_analytic(79, 128)
        assert calls == [79]

    def test_errors_in_check_order(self):
        # d before its bound before the precision
        for args, message in (((12, 10), "squarefree"), ((BEYOND_MAX_D, 10), "exceeds"),
                              ((79, 10), "precision")):
            with pytest.raises(ValueError, match=message):
                eta_analytic(*args)


class TestUnitRealValue:
    def test_values(self):
        assert abs(unit_real_value(fundamental_unit(2), 64) - (1 + 2**0.5)) < 1e-12
        assert abs(unit_real_value(fundamental_unit(5), 64) - (1 + 5**0.5) / 2) < 1e-12
        one = oracles.make_unit(QuadField(7), Fraction(1), Fraction(0))
        assert unit_real_value(one, 64) == 1

    # (d, bits) where eps(d)^(2h) once came out one ulp off, rounded from
    # 64 guard bits
    NEAR_MIDPOINT = ((439, 96), (463, 96), (1091, 65), (1261, 65), (2099, 128), (2243, 64),
                     (2351, 65), (2389, 96), (2485, 64), (2653, 65), (2909, 64))

    @staticmethod
    def rounded_reference(u, precision):
        # x + y*sqrt(d) at 4000 bits without cancellation: when x and y differ
        # in sign, as norm / (x - y*sqrt(d)); then one rounding to precision
        with mp.workprec(4000):
            x = mpmath.mpf(u.x.numerator) / u.x.denominator
            y_root = mpmath.mpf(u.y.numerator) / u.y.denominator * mp.sqrt(u.field.d)
            value = x + y_root if x * y_root >= 0 else u.norm / (x - y_root)
        with mp.workprec(precision):
            return +value

    @given(st.sampled_from(SQUAREFREE_BELOW_3000), st.integers(-4, 4),
           st.sampled_from((1, -1)), st.integers(64, 1024))
    def test_correctly_rounded(self, d, k, sign, precision):
        u = fundamental_unit(d) ** k
        if sign < 0:
            u = QuadUnit(u.field, -u.X, -u.Y, u.norm)
        assert unit_real_value(u, precision) == self.rounded_reference(u, precision)

    @pytest.mark.parametrize("d,precision", NEAR_MIDPOINT)
    def test_eta_near_a_midpoint(self, d, precision):
        eps = fundamental_unit(d)
        eta = eps ** (2 * class_number(d).class_number)
        want = self.rounded_reference(eta, precision)
        assert unit_real_value(eta, precision) == want
        assert eta_analytic(d, precision) == want

    def test_precision_below_64_rejected(self):
        with pytest.raises(ValueError, match="at least 64 bits"):
            unit_real_value(fundamental_unit(2), 63)
        with pytest.raises(ValueError, match="exceeds the supported bound 1024"):
            unit_real_value(fundamental_unit(2), quadfield.MAX_PREC_BITS + 1)


@pytest.mark.parametrize("call", [
    lambda: unit_real_value(fundamental_unit(2)),
    lambda: eta_analytic(2),
    lambda: spectrum.spectrum_generators(class_from_quaternion(-1, 3), 10),
], ids=["unit_real_value", "eta_analytic", "spectrum_generators"])
def test_precision_is_required(call):
    # the CLI's default, which ARITHGENUS_PREC_BITS overrides, is the only one
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'precision'"):
        call()
