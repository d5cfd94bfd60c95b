import random
from fractions import Fraction

import pytest
from mpmath import mp

import oracles
from arithgenus import quadfield
from arithgenus.arith import is_squarefree, kronecker_symbol
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

SQUAREFREE_SMALL = [
    d for d in range(2, 80) if all(d % (k * k) for k in range(2, 10))
]


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
            QuadUnit.make(QuadField(2), Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            QuadUnit.make(QuadField(5), Fraction(1, 2), Fraction(1))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            QuadUnit.make(QuadField(2), 2, 1)

    def test_norm_multiplicative(self):
        rng = random.Random(RNG_SEED)
        eps2 = fundamental_unit(2)
        eps5 = fundamental_unit(5)
        for u in (eps2, eps5):
            for _ in range(20):
                j, k = rng.randint(-5, 5), rng.randint(-5, 5)
                a, b = u**j, u**k
                assert (a * b).norm == a.norm * b.norm
                assert a * a.inverse() == QuadUnit(u.field, Fraction(1), Fraction(0), 1)

    def test_large_power_splits(self):
        u = fundamental_unit(2)
        assert u**2000 == u**1000 * u**1000
        assert u**-7 == (u**7).inverse()

    def test_exact_real_comparison(self):
        u = fundamental_unit(2)  # 1 + sqrt(2) ~ 2.414
        assert u.compare_real(2) == 1
        assert u.compare_real(3) == -1
        assert u.compare_real(Fraction(12, 5)) == 1
        assert u.inverse().compare_real(1) == -1


class TestFundamentalUnit:
    def test_frozen_small_cases(self):
        assert fundamental_unit(2) == QuadUnit(QuadField(2), Fraction(1), Fraction(1), -1)
        assert fundamental_unit(5) == QuadUnit(
            QuadField(5), Fraction(1, 2), Fraction(1, 2), -1
        )
        assert fundamental_unit(3) == QuadUnit(QuadField(3), Fraction(2), Fraction(1), 1)

    def test_against_pell_search(self):
        for d in SQUAREFREE_SMALL:
            x, y, norm = oracles.minimal_unit_by_search(d)
            eps = fundamental_unit(d)
            assert (eps.x, eps.y, eps.norm) == (x, y, norm), d

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
                        QuadUnit.make(
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
        with pytest.raises(ValueError):
            fundamental_unit(9973 * 2, max_d=100)


class TestNormOneUnit:
    def test_examples(self):
        assert norm_one_unit(2) == QuadUnit(QuadField(2), Fraction(3), Fraction(2), 1)
        assert norm_one_unit(3) == fundamental_unit(3)
        assert norm_one_unit(5) == QuadUnit(
            QuadField(5), Fraction(3, 2), Fraction(1, 2), 1
        )

    def test_always_norm_one_and_small(self):
        for d in SQUAREFREE_SMALL:
            eps = fundamental_unit(d)
            one = norm_one_unit(d)
            assert one.norm == 1
            assert one in (eps, eps * eps)


class TestClassNumber:
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
        eta_analytic(79)
        assert calls == [(79, quadfield.DEFAULT_MAX_D)]


class TestUnitRealValue:
    def test_values(self):
        assert abs(unit_real_value(fundamental_unit(2), 64) - (1 + 2**0.5)) < 1e-12
        assert abs(unit_real_value(fundamental_unit(5), 64) - (1 + 5**0.5) / 2) < 1e-12
        one = QuadUnit(QuadField(7), Fraction(1), Fraction(0), 1)
        assert unit_real_value(one, 64) == 1
