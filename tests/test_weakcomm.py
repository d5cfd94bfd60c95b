import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, log2, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from arithgenus import weakcomm
from arithgenus.quadfield import fundamental_unit
from arithgenus.weakcomm import (
    MAX_WITNESS_BITS,
    ExponentVector,
    QuadraticEigenvalues,
    RationalEigenvalues,
    groups_intersect,
    intersection_witness,
    refuse_torsion,
    to_exponent_vector,
    weakly_commensurable,
)

RNG_SEED = 40427
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def random_value(rng, exp_bound=3):
    v = Fraction(rng.choice((1, -1)))
    for p in SMALL_PRIMES:
        v *= Fraction(p) ** rng.randint(-exp_bound, exp_bound)
    return v


def random_set(rng, max_len=3):
    return RationalEigenvalues(
        tuple(random_value(rng) for _ in range(rng.randint(1, max_len)))
    )


class TestExponentVector:
    def test_examples(self):
        assert to_exponent_vector(12, (2, 3)) == ExponentVector((2, 3), (2, 1), 1)
        assert to_exponent_vector(Fraction(3, 5), (2, 3, 5)) == ExponentVector(
            (2, 3, 5), (0, 1, -1), 1
        )
        assert to_exponent_vector(-1, ()) == ExponentVector((), (), -1)

    def test_support_too_small(self):
        with pytest.raises(ValueError):
            to_exponent_vector(12, (2,))

    def test_round_trip(self):
        rng = random.Random(RNG_SEED)
        for _ in range(100):
            v = random_value(rng)
            assert to_exponent_vector(v, SMALL_PRIMES).value() == v

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentVector((3, 2), (1, 1), 1)
        with pytest.raises(ValueError):
            ExponentVector((2,), (1, 1), 1)


def dependence_witness(q1, q2):
    """The common element of <q1> and <q2> that the weak-commensurability
    path finds, if any."""
    return intersection_witness(RationalEigenvalues.of(q1), RationalEigenvalues.of(q2))


def minimal_pair_witnesses(q, m):
    """q**(+-m) and their squares: the witnesses that a minimal dependence
    q1**m == q2**n allows, squaring clearing a sign mismatch."""
    q = Fraction(q)
    return {q**m, q**-m, q ** (2 * m), q ** (-2 * m)}


class TestMultiplicativeDependence:
    def test_four_eight(self):
        witness = dependence_witness(4, 8)
        assert witness in minimal_pair_witnesses(4, 3) & minimal_pair_witnesses(8, 2)
        assert Fraction(4) ** 3 == Fraction(8) ** 2

    def test_independent_primes(self):
        assert dependence_witness(2, 3) is None

    def test_twelve_eighteen(self):
        assert dependence_witness(12, 18) is None

    def test_self_dependence(self):
        rng = random.Random(RNG_SEED)
        for _ in range(50):
            q = random_value(rng)
            if q in (1, -1):
                continue
            assert dependence_witness(q, q) in minimal_pair_witnesses(q, 1)

    def test_torsion_rejected(self):
        with pytest.raises(ValueError):
            refuse_torsion(RationalEigenvalues.of(1), RationalEigenvalues.of(5))
        with pytest.raises(ValueError):
            refuse_torsion(RationalEigenvalues.of(5), RationalEigenvalues.of(-1))

    def test_sign_doubling(self):
        for q1, q2, m, n in ((-2, 2, 2, 2), (-8, 4, 2, 3), (-2, -8, 3, 1)):
            assert dependence_witness(q1, q2) in (
                minimal_pair_witnesses(q1, m) & minimal_pair_witnesses(q2, n))
        assert dependence_witness(-8, 4) == Fraction(1, 64)

    def test_against_bounded_search(self):
        rng = random.Random(RNG_SEED + 1)
        checked = 0
        while checked < 300:
            q1, q2 = random_value(rng, 2), random_value(rng, 2)
            if q1 in (1, -1) or q2 in (1, -1):
                continue
            checked += 1
            expected = oracles.dependence_by_search(q1, q2, 20)
            got = dependence_witness(q1, q2)
            if expected is not None:
                m, n = expected
                assert got in minimal_pair_witnesses(q1, m) & minimal_pair_witnesses(q2, n)
            else:
                # the search bound can miss large minimal pairs; a claimed
                # witness must at least lie in both groups
                if got is not None:
                    assert got in oracles.power_products((q1,), 40)
                    assert got in oracles.power_products((q2,), 40)

    def test_minimality(self):
        rng = random.Random(RNG_SEED + 2)
        checked = 0
        while checked < 100:
            base = random_value(rng, 1)
            if base in (1, -1):
                continue
            j, k = rng.randint(1, 4), rng.randint(1, 4)
            checked += 1
            got = dependence_witness(base**j, base**k)
            # the least m, n with (base**j)**m == (base**k)**n
            m, n = k // gcd(j, k), j // gcd(j, k)
            assert got in minimal_pair_witnesses(base**j, m) & minimal_pair_witnesses(base**k, n)


class TestGroupsIntersect:
    def test_example_with_witness(self):
        s1 = RationalEigenvalues.of(6, 10)
        s2 = RationalEigenvalues.of(Fraction(3, 5), 7)
        assert groups_intersect(s1, s2)
        witness = intersection_witness(s1, s2)
        assert witness is not None and witness != 1
        assert witness in oracles.power_products(s1.values, 8)
        assert witness in oracles.power_products(s2.values, 8)

    def test_each_value_factored_once(self, monkeypatch):
        import arithgenus.weakcomm as weakcomm

        calls = []
        factor = weakcomm.factor

        def counting_factor(q):
            calls.append(q)
            return factor(q)

        monkeypatch.setattr(weakcomm, "factor", counting_factor)
        s1 = RationalEigenvalues.of(6, 10, Fraction(-7, 9))
        s2 = RationalEigenvalues.of(Fraction(3, 5), 7, 22)
        assert intersection_witness(s1, s2) == Fraction(3, 5)
        assert len(calls) == 6

    def test_trivial_intersection(self):
        assert not groups_intersect(
            RationalEigenvalues.of(6, 10), RationalEigenvalues.of(15)
        )

    def test_minus_one_only_intersection(self):
        # -1 = (-2)^3 / 8 lies in both groups although the free parts meet
        # trivially; the brute-force oracle agrees
        s1 = RationalEigenvalues.of(-2, 8)
        s2 = RationalEigenvalues.of(-3, 27)
        assert groups_intersect(s1, s2)
        assert oracles.groups_intersect_by_search(s1.values, s2.values, 8)
        assert intersection_witness(s1, s2) == -1
        assert not weakly_commensurable(s1, s2)

    def test_one_kernel_per_witness(self, monkeypatch):
        # with no common element of infinite order, the one kernel of [A; -B]
        # is ker A + ker B and also decides whether -1 lies in both groups
        import arithgenus.weakcomm as weakcomm

        calls = []
        left_kernel = weakcomm._left_kernel
        monkeypatch.setattr(weakcomm, "_left_kernel",
                            lambda rows: calls.append(rows) or left_kernel(rows))
        s1 = RationalEigenvalues.of(-1, 2)
        s2 = RationalEigenvalues.of(-1, 3)
        assert intersection_witness(s1, s2) == -1
        assert len(calls) == 1
        assert intersection_witness(RationalEigenvalues.of(-1, 2), RationalEigenvalues.of(3)) is None
        assert intersection_witness(RationalEigenvalues.of(-2, 8),
                                    RationalEigenvalues.of(-3, 27)) == -1
        assert len(calls) == 3

    def test_against_exhaustive_search(self):
        rng = random.Random(RNG_SEED + 3)
        for _ in range(120):
            s1, s2 = random_set(rng), random_set(rng)
            expected = oracles.groups_intersect_by_search(s1.values, s2.values, 8)
            got = groups_intersect(s1, s2)
            if expected:
                assert got
            elif got:
                # the bounded search can miss witnesses with large exponents;
                # confirm one exists by exhibiting it
                witness = intersection_witness(s1, s2)
                assert witness is not None and witness != 1

    def test_symmetry(self):
        rng = random.Random(RNG_SEED + 4)
        for _ in range(100):
            s1, s2 = random_set(rng), random_set(rng)
            assert groups_intersect(s1, s2) == groups_intersect(s2, s1)

    def test_distinct_quadratic_fields(self):
        u2 = QuadraticEigenvalues((fundamental_unit(2),))
        u3 = QuadraticEigenvalues((fundamental_unit(3),))
        assert not groups_intersect(u2, u3)

    def test_same_quadratic_field(self):
        u = fundamental_unit(2)
        s1 = QuadraticEigenvalues((u,))
        s2 = QuadraticEigenvalues((u**3,))
        assert groups_intersect(s1, s2)

    def test_mixed_kinds_never_intersect(self):
        s1 = RationalEigenvalues.of(2, 3)
        s2 = QuadraticEigenvalues((fundamental_unit(2),))
        assert not groups_intersect(s1, s2)
        assert not weakly_commensurable(s1, s2)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            RationalEigenvalues(())
        with pytest.raises(ValueError):
            QuadraticEigenvalues(())


class TestIntegerKernel:
    def test_fuzz_kernel_basis_and_saturation(self):
        # the -1-membership parity test relies on the kernel basis being
        # saturated, not just full-rank
        from arithgenus.weakcomm import _left_kernel

        rng = random.Random(RNG_SEED + 10)
        for _ in range(200):
            m, k = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)]
            basis = _left_kernel(rows)
            for u in basis:
                image = [
                    sum(ui * row[j] for ui, row in zip(u, rows)) for j in range(k)
                ]
                assert not any(image)
            # rank count: basis size must equal m - rank(rows)
            rank = _fraction_rank(rows)
            assert len(basis) == m - rank
            # saturation: every small kernel vector lies in the integer span
            if basis:
                for _ in range(20):
                    u = [rng.randint(-4, 4) for _ in range(m)]
                    image = [
                        sum(ui * row[j] for ui, row in zip(u, rows))
                        for j in range(k)
                    ]
                    if any(image):
                        continue
                    assert _in_integer_span(u, basis), (rows, u, basis)


def _fraction_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank, cols = 0, len(rows[0])
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _in_integer_span(u, basis):
    # solve sum c_i basis_i = u over Q and check integrality
    m = len(u)
    columns = list(zip(*basis))  # m rows of len(basis) entries
    rows = [[Fraction(x) for x in col] + [Fraction(u[i])] for i, col in enumerate(columns)]
    rank, width = 0, len(basis)
    solution = [None] * width
    for col in range(width):
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(m):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    # read back: each pivot row gives one coordinate; inconsistent rows mean
    # u is outside even the rational span
    pivot_cols = []
    for i in range(rank):
        col = next(j for j in range(width) if rows[i][j])
        pivot_cols.append((i, col))
    for i in range(rank, m):
        if rows[i][width]:
            return False
    for i, col in pivot_cols:
        value = rows[i][width] / rows[i][col]
        if value.denominator != 1:
            return False
        solution[col] = value
    return True


class TestWeaklyCommensurable:
    def test_powers_of_two(self):
        s1 = RationalEigenvalues.of(4, Fraction(1, 4))
        s2 = RationalEigenvalues.of(8, Fraction(1, 8))
        assert weakly_commensurable(s1, s2)

    def test_independent(self):
        s1 = RationalEigenvalues.of(2, Fraction(1, 2))
        s2 = RationalEigenvalues.of(3, Fraction(1, 3))
        assert not weakly_commensurable(s1, s2)

    def test_unit_powers(self):
        u = fundamental_unit(2)
        assert weakly_commensurable(
            QuadraticEigenvalues((u,)), QuadraticEigenvalues((u**3,))
        )

    def test_torsion_only_rejected(self):
        torsion = RationalEigenvalues.of(-1, 1)
        with pytest.raises(ValueError):
            weakly_commensurable(torsion, RationalEigenvalues.of(2))
        with pytest.raises(ValueError):
            QuadraticEigenvalues((fundamental_unit(2) ** 0,))

    def test_power_stability(self):
        rng = random.Random(RNG_SEED + 5)
        checked = 0
        while checked < 80:
            s1, s2 = random_set(rng), random_set(rng)
            if all(v in (1, -1) for v in s1.values) or all(
                v in (1, -1) for v in s2.values
            ):
                continue
            checked += 1
            base = weakly_commensurable(s1, s2)
            k = rng.choice((2, 3, -2))
            i = rng.randrange(len(s1.values))
            powered_values = list(s1.values)
            powered_values[i] = powered_values[i] ** k
            powered = RationalEigenvalues(tuple(powered_values))
            if all(v in (1, -1) for v in powered.values):
                continue
            assert weakly_commensurable(powered, s2) == base

    def test_symmetry(self):
        rng = random.Random(RNG_SEED + 6)
        checked = 0
        while checked < 60:
            s1, s2 = random_set(rng), random_set(rng)
            if all(v in (1, -1) for v in s1.values) or all(
                v in (1, -1) for v in s2.values
            ):
                continue
            checked += 1
            assert weakly_commensurable(s1, s2) == weakly_commensurable(s2, s1)


def rational_sets():
    """Eigenvalue sets of signed products of small primes, not torsion-only."""
    value = st.builds(
        lambda sign, exps: sign * prod(Fraction(p) ** e for p, e in zip(SMALL_PRIMES, exps)),
        st.sampled_from((1, -1)),
        st.lists(st.integers(-4, 4), min_size=len(SMALL_PRIMES), max_size=len(SMALL_PRIMES)))
    return st.lists(value, min_size=1, max_size=4).filter(
        lambda vs: any(v not in (1, -1) for v in vs)).map(lambda vs: RationalEigenvalues(tuple(vs)))


class TestWitnessBound:
    # a one-dimensional kernel: the only primitive witness has about 157000
    # bits; without the bound, random_generators ran past a 200 s timeout
    FORCED = (RationalEigenvalues.of(Fraction(2**151, 3**61)),
              RationalEigenvalues.of(Fraction(2**149, 3**67), Fraction(2**139, 3**71)))

    @staticmethod
    def random_generators():
        # 16 + 16 values, each a product of 4 of the first 30 primes with
        # exponents in -9..9 (never 0), drawn from random.Random(3)
        primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
        rng = random.Random(3)
        sets = []
        for _ in range(2):
            values = []
            for _ in range(16):
                v = Fraction(1)
                for p in rng.sample(primes, 4):
                    v *= Fraction(p) ** rng.choice([e for e in range(-9, 10) if e])
                values.append(v)
            sets.append(RationalEigenvalues(tuple(values)))
        return sets

    def test_verdicts_answer_without_a_witness(self):
        for s1, s2 in (self.FORCED, self.random_generators()):
            started = time.perf_counter()
            assert weakly_commensurable(s1, s2) and groups_intersect(s1, s2)
            with pytest.raises(ValueError, match=f"witness of more than {MAX_WITNESS_BITS} bits"):
                intersection_witness(s1, s2)
            assert time.perf_counter() - started < 2

    def test_cli_lines_fail_cleanly(self):
        hilbert = json.dumps({"argv": ["hilbert", "-1", "3", "3"]})
        lines = []
        for s1, s2 in (self.random_generators(), self.FORCED):
            lines += [json.dumps({"argv": ["weakcomm", "--set1=" + ",".join(map(str, s1.values)),
                                           "--set2=" + ",".join(map(str, s2.values))]}), hilbert]
        started = time.perf_counter()
        # the short timeout also caps the memory a runaway witness could take
        proc = subprocess.run([sys.executable, "-m", "arithgenus.cli", "--batch"],
                              input="\n".join(lines) + "\n", capture_output=True, text=True,
                              timeout=20)
        assert proc.returncode == 0, proc.stderr
        refused = {"ok": False, "error": f"witness of more than {MAX_WITNESS_BITS} bits refused; "
                                         "the groups share an element of infinite order"}
        assert [json.loads(line) for line in proc.stdout.splitlines()] == [
            refused, {"ok": True, "result": -1}] * 2
        assert time.perf_counter() - started < 10

    def test_bound_counts_the_squaring(self):
        # 2**(254*255) = 2**64770 is common to <2**255> and <2**254>; with
        # the sign of -2**254 it is reconciled by squaring, to 129540 bits
        assert intersection_witness(RationalEigenvalues.of(2**255),
                                    RationalEigenvalues.of(2**254)) == Fraction(1, 2**64770)
        with pytest.raises(ValueError, match="witness of more than 65536 bits"):
            intersection_witness(RationalEigenvalues.of(2**255), RationalEigenvalues.of(-(2**254)))
        assert weakly_commensurable(RationalEigenvalues.of(2**255),
                                    RationalEigenvalues.of(-(2**254)))

    def test_bound_is_inclusive(self, monkeypatch):
        # 3**10 over 3**8 meet in 3**40, of 40 log2 3 = 63.4 bits
        s1, s2 = RationalEigenvalues.of(3**10), RationalEigenvalues.of(3**8)
        monkeypatch.setattr(weakcomm, "MAX_WITNESS_BITS", 64)
        assert intersection_witness(s1, s2) == Fraction(1, 3**40)
        monkeypatch.setattr(weakcomm, "MAX_WITNESS_BITS", 63)
        with pytest.raises(ValueError, match="witness of more than 63 bits"):
            intersection_witness(s1, s2)

    @given(rational_sets(), rational_sets())
    def test_matches_power_product_witness(self, s1, s2):
        # the witness from the exponents equals the former power products,
        # or is refused when those have more than MAX_WITNESS_BITS bits (even
        # sets this small can need tens of thousands); the verdicts read the
        # same common element
        expected = oracles.witness_by_power_products(s1, s2)
        if expected is not None and log2(abs(expected.numerator)) + log2(
                expected.denominator) > MAX_WITNESS_BITS:
            with pytest.raises(ValueError, match="witness of more than"):
                intersection_witness(s1, s2)
        else:
            assert intersection_witness(s1, s2) == expected
        assert groups_intersect(s1, s2) == (expected is not None)
        assert weakly_commensurable(s1, s2) == (expected not in (None, -1))
