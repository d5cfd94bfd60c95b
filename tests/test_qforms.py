import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from arithgenus import arith, cli, qforms
from test_quadfield import count_everywhere
from arithgenus.arith import Place, REAL_PLACE, hilbert_symbol, squarefree_part, support_places
from arithgenus.brauer import BrauerClass, class_from_quaternion, parse_class
from arithgenus.qforms import (
    ArithmeticTriple,
    GroupB,
    GroupC,
    LocalInvariants,
    QuadraticForm,
    form_invariants,
    forms_equivalent,
    is_isotropic_global,
    is_isotropic_local,
    triple_verdict,
    twins,
    witt_index_global,
    witt_index_local,
)

RNG_SEED = 24024
QF = QuadraticForm.of

F1 = QF(1, 1, -3)
F2 = QF(1, 2, -7)


def random_form(rng, dim, bound=12):
    return QF(*(rng.choice([c for c in range(-bound, bound + 1) if c]) for _ in range(dim)))


def commensurable(f, g):
    """The verdict on the triples of two forms with empty place sets; for
    ternary forms, whether their rotation groups are Q-isomorphic."""
    return triple_verdict(ArithmeticTriple(f), ArithmeticTriple(g))[0]


def count_form_invariants(monkeypatch):
    calls = []
    original = qforms.form_invariants

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(qforms, "form_invariants", counted)
    return calls


class TestFormInvariants:
    def test_f1(self):
        inv = form_invariants(F1)
        assert (inv.dim, inv.disc, inv.hasse_minus, inv.signature) == (3, -3, (), (2, 1))

    def test_f2(self):
        inv = form_invariants(F2)
        assert (inv.dim, inv.disc, inv.signature) == (3, -14, (2, 1))

    def test_hyperbolic_plane(self):
        inv = form_invariants(QF(1, -1))
        assert (inv.dim, inv.disc, inv.hasse_minus, inv.signature) == (2, -1, (), (1, 1))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            QF(1, 0, 2)

    def test_hasse_support_has_even_size(self):
        # the product of the Hasse invariants over all places is +1
        rng = random.Random(RNG_SEED)
        for _ in range(60):
            f = random_form(rng, rng.choice((2, 3, 4, 5)))
            assert len(form_invariants(f).hasse_minus) % 2 == 0


class TestLocalIsotropy:
    def test_f1_anisotropic_at_three(self):
        assert not is_isotropic_local(F1, Place(3))

    def test_f2_isotropic_at_three(self):
        assert is_isotropic_local(F2, Place(3))

    def test_dim_five_at_finite_place(self):
        assert is_isotropic_local(QF(1, 1, 1, 1, 1), Place(7))

    def test_real_place_definite(self):
        assert not is_isotropic_local(QF(1, 2, 3), REAL_PLACE)
        assert is_isotropic_local(QF(1, 2, -3), REAL_PLACE)

    def test_ternary_matches_quaternion_criterion(self):
        # independent route: <a,b,c> is isotropic at p iff the conic
        # z^2 = -ac x^2 - bc y^2 has points, i.e. (-ac, -bc)_p = +1
        rng = random.Random(RNG_SEED + 1)
        places = [Place(2), Place(3), Place(5), Place(7), Place(13)]
        for _ in range(200):
            a, b, c = (rng.choice([x for x in range(-20, 21) if x]) for _ in range(3))
            f = QF(a, b, c)
            for v in places:
                expected = hilbert_symbol(-a * c, -b * c, v) == 1
                assert is_isotropic_local(f, v) == expected

    def test_binary_square_class_criterion(self):
        rng = random.Random(RNG_SEED + 2)
        from arithgenus.arith import is_local_square

        for _ in range(100):
            a, b = (rng.choice([x for x in range(-20, 21) if x]) for _ in range(2))
            f = QF(a, b)
            for v in (Place(2), Place(3), Place(5)):
                assert is_isotropic_local(f, v) == is_local_square(
                    Fraction(-a, b), v
                )


class TestLocalWitt:
    def test_hyperbolic_plane_everywhere(self):
        for v in (Place(2), Place(3), Place(97), REAL_PLACE):
            assert witt_index_local(QF(1, -1), v) == 1

    def test_f1_at_three(self):
        assert witt_index_local(F1, Place(3)) == 0

    def test_five_squares_at_three(self):
        assert witt_index_local(QF(1, 1, 1, 1, 1), Place(3)) == 2

    def test_real_place_is_min_signature(self):
        assert witt_index_local(QF(1, 1, 1, -1), REAL_PLACE) == 1
        assert witt_index_local(QF(1, -1, 1, -1, 1), REAL_PLACE) == 2

    def test_split_planes_factor_nothing(self, monkeypatch):
        # the residual discriminant -disc of a squarefree disc is squarefree
        # again; four planes split off at 3 with no factorization
        inv = form_invariants(QF(1, -1, 1, -1, 1, -1, 1, -1, 3))
        calls = []
        factor_positive = arith._factor_positive
        monkeypatch.setattr(arith, "_factor_positive",
                            lambda n: calls.append(n) or factor_positive(n))
        assert qforms._witt_index(inv, Place(3)) == 4
        assert calls == []

    def test_bounded_by_half_dimension(self):
        rng = random.Random(RNG_SEED + 3)
        places = [Place(2), Place(3), Place(5), REAL_PLACE]
        for _ in range(80):
            f = random_form(rng, rng.choice((2, 3, 4, 5, 6)))
            for v in places:
                w = witt_index_local(f, v)
                assert 0 <= w <= f.dim // 2
                assert (w >= 1) == is_isotropic_local(f, v)

    def test_equivalent_forms_share_witt_indices(self):
        rng = random.Random(RNG_SEED + 4)
        places = [Place(2), Place(3), Place(5), Place(7), REAL_PLACE]
        for _ in range(40):
            f = random_form(rng, 3)
            scale = rng.choice((1, 4, 9, Fraction(1, 4)))
            perm = list(range(3))
            rng.shuffle(perm)
            g = QF(*(f.coeffs[i] * scale for i in perm))
            assert forms_equivalent(f, g)
            for v in places:
                assert witt_index_local(f, v) == witt_index_local(g, v)


class TestGlobalIsotropy:
    def test_f1_anisotropic(self):
        assert not is_isotropic_global(F1)

    def test_hyperbolic_summand(self):
        assert is_isotropic_global(QF(1, -1, 5))

    def test_f2_anisotropic_at_seven(self):
        assert not is_isotropic_global(F2)
        assert not is_isotropic_local(F2, Place(7))

    def test_found_vectors_certify(self):
        rng = random.Random(RNG_SEED + 5)
        found = 0
        for _ in range(300):
            dim = rng.choice((2, 3, 4))
            f = random_form(rng, dim, bound=20)
            coeffs = tuple(int(c) for c in f.coeffs)
            hit = oracles.isotropic_vector(coeffs, 40)
            if hit is not None:
                found += 1
                assert sum(a * x * x for a, x in zip(coeffs, hit)) == 0
                assert is_isotropic_global(f)
        assert found > 50

    def test_anisotropic_means_no_small_vectors(self):
        rng = random.Random(RNG_SEED + 6)
        for _ in range(200):
            f = random_form(rng, rng.choice((3, 4)), bound=12)
            if not is_isotropic_global(f):
                assert oracles.isotropic_vector(
                    tuple(int(c) for c in f.coeffs), 40
                ) is None


class TestGlobalWitt:
    def test_two_hyperbolic_planes(self):
        assert witt_index_global(QF(1, -1, 1, -1)) == 2

    def test_f1(self):
        assert witt_index_global(F1) == 0

    def test_signature_bound_attained(self):
        assert witt_index_global(QF(1, 1, 1, -1)) == 1

    def test_matches_vector_splitting_oracle(self):
        rng = random.Random(RNG_SEED + 7)
        for _ in range(120):
            dim = rng.choice((2, 3, 4, 5))
            f = random_form(rng, dim, bound=6)
            got = witt_index_global(f)
            expected = oracles.witt_index_by_splitting(f.coeffs, bound=90)
            assert got == expected, f.coeffs

    def test_equals_min_of_local_witt(self):
        # the anisotropic kernel over Q stays anisotropic at some relevant
        # place, so the global index is the minimum of the local ones there
        rng = random.Random(RNG_SEED + 8)
        for _ in range(150):
            f = random_form(rng, rng.choice((2, 3, 4, 5, 6, 7)))
            w = witt_index_global(f)
            assert w == min(
                witt_index_local(f, v) for v in support_places(*f.coeffs)
            )

    def test_matches_global_state_oracle(self):
        # the former recursion on global invariants, against the minimum of
        # the local indices; fractional and negative coefficients included
        rng = random.Random(RNG_SEED + 9)
        numerators = [c for c in range(-30, 31) if c]
        for _ in range(400):
            f = QF(*(Fraction(rng.choice(numerators), rng.randint(1, 12))
                     for _ in range(rng.randint(1, 9))))
            assert witt_index_global(f) == oracles.witt_index_by_global_states(f), f
            assert is_isotropic_global(f) == oracles.isotropic_by_global_states(f), f


class TestEquivalence:
    def test_ones_and_twos(self):
        assert forms_equivalent(QF(1, 1), QF(2, 2))

    def test_f1_f2_differ(self):
        assert not forms_equivalent(F1, F2)

    def test_reflexive(self):
        assert forms_equivalent(F1, F1)

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(RNG_SEED + 9)
        pool = [random_form(rng, 3, bound=6) for _ in range(12)]
        for f in pool:
            assert forms_equivalent(f, f)
            for g in pool:
                assert forms_equivalent(f, g) == forms_equivalent(g, f)
                for h in pool:
                    if forms_equivalent(f, g) and forms_equivalent(g, h):
                        assert forms_equivalent(f, h)


class TestSO3:
    def test_scaled_form(self):
        assert commensurable(F1, QF(2, 2, -6))

    def test_locally_distinguished_pair_not_isomorphic(self):
        assert not commensurable(F1, F2)

    def test_reflexive(self):
        assert commensurable(F2, F2)

    def test_similarity_invariance_of_isotropy(self):
        # a similar pair has identical local isotropy everywhere, so any
        # locally-distinguished pair must be non-isomorphic
        rng = random.Random(RNG_SEED + 10)
        for _ in range(40):
            f, g = random_form(rng, 3, 8), random_form(rng, 3, 8)
            if commensurable(f, g):
                for v in (Place(2), Place(3), Place(5), Place(7), REAL_PLACE):
                    assert is_isotropic_local(f, v) == is_isotropic_local(g, v)

    def test_needs_ternary(self):
        # a binary form is not an orthogonal group datum
        with pytest.raises(ValueError):
            commensurable(QF(1, 1), F1)


def _odd_prime_coeff(rng):
    # a nonzero rational whose odd primes lie in {3, 5, 7}, so that a pair of
    # discriminants has at most 3 odd primes and the search stays small
    num = rng.choice((-1, 1)) * 2 ** rng.randrange(3)
    for p in (3, 5, 7):
        num *= p ** rng.randrange(3)
    return Fraction(num, rng.choice((1, 1, 2, 3)))


def _similar_partner(rng, f):
    # lam*f with coefficients permuted and rescaled by squares, then the
    # isometry <a,b> = <a+b, ab(a+b)> on the first two slots when a+b != 0
    lam = _odd_prime_coeff(rng)
    coeffs = [lam * a * rng.choice((1, 4, 9, Fraction(1, 4))) for a in f.coeffs]
    rng.shuffle(coeffs)
    a, b = coeffs[0], coeffs[1]
    if a + b:
        coeffs[0], coeffs[1] = a + b, a * b * (a + b)
    return QF(*coeffs)


class TestSimilarityOracle:
    def test_closed_form_matches_search(self):
        rng = random.Random(RNG_SEED + 20)
        similar = 0
        for i in range(90):
            dim = rng.choice((3, 5, 7))
            f = QF(*(_odd_prime_coeff(rng) for _ in range(dim)))
            g = _similar_partner(rng, f) if i % 2 else QF(
                *(_odd_prime_coeff(rng) for _ in range(dim))
            )
            verdict = commensurable(f, g)
            assert verdict == oracles.similar_by_search(f, g), (f, g)
            similar += verdict
        assert 45 <= similar < 90  # every built partner is similar, not every random pair


class TestTwins:
    def test_split_split(self):
        b = GroupB(QF(1, -1, 1, -1, 1, -1, 1))
        assert twins(b, GroupC(BrauerClass(), 3))

    def test_definite_vs_split(self):
        b = GroupB(QF(1, 1, 1, 1, 1, 1, 1))
        assert not twins(b, GroupC(BrauerClass(), 3))

    def test_finite_ramification_blocks(self):
        b = GroupB(QF(1, 1, 1, 1, 1, 1, 1))
        c = GroupC(class_from_quaternion(-1, -1), 3, real_definite=True)
        assert not twins(b, c)

    def test_definite_definite(self):
        # a C-side anisotropic at the real place and split at every finite
        # place pairs with a definite form that is finitely split
        b = GroupB(QF(1, 1, 1, 1, 1, 1, 1))
        hamilton = class_from_quaternion(-1, -1)  # ramified at 2 and inf
        c = GroupC(hamilton, 3, real_definite=True)
        # the form <1,...,1> is anisotropic over Q_2, so still no twin:
        assert witt_index_local(b.form, Place(2)) != 3 or not twins(b, c)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            twins(GroupB(QF(1, -1, 1, -1, 1)), GroupC(BrauerClass(), 3))

    def test_group_validation(self):
        with pytest.raises(ValueError):
            GroupB(QF(1, 1, 1))  # dim 3 < 5
        with pytest.raises(ValueError):
            GroupB(QF(1, 1, 1, 1))  # even dim
        with pytest.raises(ValueError):
            GroupC(parse_class("2:1/3,3:2/3"), 2)  # cubic class
        with pytest.raises(ValueError):
            GroupC(BrauerClass(), 1)
        with pytest.raises(ValueError):
            GroupC(class_from_quaternion(-1, 3), 2, real_definite=True)

    def test_twins_forces_trivial_algebra_and_split_form(self):
        # over Q the finite-place condition forces the C-side algebra to be
        # unramified everywhere, hence trivial
        rng = random.Random(RNG_SEED + 11)
        c_data = [
            GroupC(BrauerClass(), 3),
            GroupC(class_from_quaternion(-1, -1), 3, real_definite=True),
            GroupC(class_from_quaternion(-1, -1), 3, real_definite=False),
            GroupC(class_from_quaternion(-1, 3), 3),
            GroupC(class_from_quaternion(-1, -3), 3, real_definite=True),
        ]
        for _ in range(120):
            form = QF(*(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(7)))
            b = GroupB(form)
            for c in c_data:
                if twins(b, c):
                    assert c.algebra.is_trivial()
                    assert min(form_invariants(form).signature) == 3
                    for v in (Place(2), Place(3), REAL_PLACE):
                        assert witt_index_local(form, v) == 3

    def test_invariants_computed_once(self, monkeypatch):
        # hyperbolic pairs over 2..13 plus <1>: split, relevant at 2..13 and inf
        coeffs = [c for p in (2, 3, 5, 7, 11, 13) for c in (p, -p)] + [1]
        b = GroupB(QF(*coeffs))
        assert len(support_places(*b.form.coeffs)) == 7
        calls = count_form_invariants(monkeypatch)
        assert twins(b, GroupC(BrauerClass(), 6))
        assert len(calls) == 1

    def test_matches_place_by_place_oracle(self):
        rng = random.Random(RNG_SEED + 12)
        c_data = [
            GroupC(BrauerClass(), 2),
            GroupC(class_from_quaternion(-1, -1), 2, real_definite=True),
            GroupC(class_from_quaternion(-1, -1), 2),
            GroupC(class_from_quaternion(-1, 3), 2),
            GroupC(class_from_quaternion(3, 5), 2),
            GroupC(class_from_quaternion(-2, -5), 2, real_definite=True),
        ]
        hits = 0
        for _ in range(60):
            b = GroupB(QF(*(rng.choice((-6, -3, -2, -1, 1, 2, 3, 5)) for _ in range(5))))
            for c in c_data:
                got = twins(b, c)
                assert got == oracles.twins_by_places(b, c), (b.form, c)
                hits += got
        assert hits


class TestTriples:
    def test_ternary_form_verdicts(self):
        t1 = ArithmeticTriple(F1)
        t2 = ArithmeticTriple(F2)
        assert not triple_verdict(t1, t2)[0]
        assert triple_verdict(t1, ArithmeticTriple(QF(2, 2, -6)))[0]
        assert not triple_verdict(
            ArithmeticTriple(F1, "Q", frozenset({5})), t1
        )[0]

    def test_field_tag_mismatch(self):
        t1 = ArithmeticTriple(F1)
        t3 = ArithmeticTriple("x^2 + y^2 - sqrt(2) z^2", "Q(sqrt2)")
        ok, reason = triple_verdict(t1, t3)
        assert not ok and "field" in reason

    def test_non_rational_comparison_unsupported(self):
        t3 = ArithmeticTriple("f3", "Q(sqrt2)")
        t4 = ArithmeticTriple("f4", "Q(sqrt2)")
        with pytest.raises(ValueError):
            triple_verdict(t3, t4)

    def test_quaternion_norm_one_triples(self):
        t1 = ArithmeticTriple(class_from_quaternion(-1, 3))
        t2 = ArithmeticTriple(class_from_quaternion(2, 3))
        t3 = ArithmeticTriple(class_from_quaternion(-1, 7))
        assert triple_verdict(t1, t2)[0]  # equal classes
        assert not triple_verdict(t1, t3)[0]

    def test_kind_mismatch_is_verdict_not_error(self):
        t1 = ArithmeticTriple(F1)
        t2 = ArithmeticTriple(class_from_quaternion(-1, 3))
        ok, reason = triple_verdict(t1, t2)
        assert not ok and "kind" in reason

    def test_dimension_mismatch(self):
        t1 = ArithmeticTriple(QF(1, -1, 1, -1, 1))
        t2 = ArithmeticTriple(F1)
        ok, reason = triple_verdict(t1, t2)
        assert not ok and "type" in reason

    def test_c_group_comparison_rejected(self):
        t1 = ArithmeticTriple(GroupC(BrauerClass(), 2))
        t2 = ArithmeticTriple(GroupC(BrauerClass(), 2))
        with pytest.raises(ValueError):
            triple_verdict(t1, t2)

    def test_group_b_triples_use_similarity(self):
        # a type-B triple's datum is its odd-dimensional form
        f = QF(1, -1, 1, -1, 1)
        t1 = ArithmeticTriple(f)
        t2 = ArithmeticTriple(oracles.scaled(f, 3))
        assert triple_verdict(t1, t2) == (True, None)

    def test_group_b_datum_is_refused(self):
        # GroupB is the twins test's datum; a triple takes the form itself
        with pytest.raises(ValueError, match=r"^unsupported group datum GroupB\(form="):
            ArithmeticTriple(GroupB(QF(1, -1, 1, -1, 1)))

    def test_reflexive_and_symmetric(self):
        triples = [
            ArithmeticTriple(F1),
            ArithmeticTriple(F2),
            ArithmeticTriple(F1, "Q", frozenset({5})),
            ArithmeticTriple(class_from_quaternion(-1, 3)),
        ]
        for t1 in triples:
            assert triple_verdict(t1, t1)[0]
            for t2 in triples:
                assert triple_verdict(t1, t2)[0] == triple_verdict(t2, t1)[0]

    def test_anisotropic_place_check_computes_invariants_once(self, monkeypatch):
        calls = count_form_invariants(monkeypatch)
        ArithmeticTriple(QF(1, -1, 1, -1, 1), "Q", frozenset({2, 3, 5, 7, 11}))
        assert len(calls) == 1
        ArithmeticTriple(QF(1, -1, 1, -1, 1))
        assert len(calls) == 1

    def test_anisotropic_place_in_s_warns(self):
        with pytest.warns(UserWarning):
            ArithmeticTriple(F1, "Q", frozenset({3}))
        with pytest.warns(UserWarning):
            ArithmeticTriple(class_from_quaternion(-1, 3), "Q", frozenset({3}))

    def test_anisotropic_place_warning_names_the_caller(self):
        # not the __init__ that dataclasses generates, which reads <string>
        for group in (F1, class_from_quaternion(-1, 3)):
            with pytest.warns(UserWarning) as record:
                ArithmeticTriple(group, "Q", frozenset({3}))
            assert [w.filename for w in record] == [__file__]

    def test_s_must_hold_primes(self):
        with pytest.raises(ValueError):
            ArithmeticTriple(F1, "Q", frozenset({6}))

    def test_even_dimensional_form_rejected(self):
        with pytest.raises(ValueError):
            ArithmeticTriple(QF(1, -1))

    def test_opaque_group_needs_non_rational_tag(self):
        with pytest.raises(ValueError):
            ArithmeticTriple("opaque", "Q")


# ---------------------------------------------------------------------------
# Invariants from per-coefficient square classes, against the pairwise path

NONZERO = st.integers(-10**6, 10**6).filter(bool)
RATIONALS = st.builds(Fraction, NONZERO, st.integers(1, 1000))
SMALL_PRIMES = (2, 3, 5, 7, 11)
# nonzero rationals on the primes 2..11, so that similar_by_search tries at
# most 2^6 factors
SMALL_PRIME_RATIONALS = st.builds(
    lambda sign, exps, den: Fraction(sign * prod(p**e for p, e in zip(SMALL_PRIMES, exps)), den),
    st.sampled_from((-1, 1)), st.tuples(*[st.integers(0, 2)] * len(SMALL_PRIMES)),
    st.sampled_from((1, 2, 3, 5, 9)))
SQUARES = st.sampled_from((1, 4, 9, Fraction(1, 4), Fraction(49, 25)))


def forms(coeffs=RATIONALS, dims=st.integers(1, 7)):
    return dims.flatmap(lambda n: st.lists(coeffs, min_size=n, max_size=n)).map(
        lambda cs: QF(*cs))


def product_bits(f):
    return (prod(a.numerator for a in f.coeffs) * prod(a.denominator for a in f.coeffs)).bit_length()


@st.composite
def odd_pairs(draw):
    """(f, g, built) with f, g of equal odd dimension <= 7; when built, g is a
    scaling of f with its coefficients permuted and rescaled by squares."""
    n = draw(st.sampled_from((1, 3, 5, 7)))
    f = draw(forms(SMALL_PRIME_RATIONALS, st.just(n)))
    built = draw(st.booleans())
    if built:
        lam = draw(SMALL_PRIME_RATIONALS)
        squares = draw(st.lists(SQUARES, min_size=n, max_size=n))
        g = QF(*draw(st.permutations([lam * a * s for a, s in zip(f.coeffs, squares)])))
    else:
        g = draw(forms(SMALL_PRIME_RATIONALS, st.just(n)))
    return f, g, built


class TestSquareClassProperties:
    @given(forms())
    def test_invariants_match_pairwise_oracle(self, f):
        assume(product_bits(f) < 200)
        assert form_invariants(f) == oracles.form_invariants_by_pairs(f)

    @given(forms())
    def test_disc_is_squarefree(self, f):
        inv = form_invariants(f)
        assert squarefree_part(inv.disc) == inv.disc

    @given(odd_pairs())
    def test_similarity_matches_search_and_scaling(self, pair):
        f, g, built = pair
        lam = oracles.disc_class_by_product(f.coeffs) * oracles.disc_class_by_product(g.coeffs)
        similar = qforms._forms_similar(f, g)
        assert similar == oracles.similar_by_search(f, g) == forms_equivalent(
            oracles.scaled(f, lam), g)
        assert similar or not built

    @given(forms(dims=st.sampled_from((1, 3, 5, 7))), RATIONALS)
    def test_scaled_form_is_similar(self, f, lam):
        assert qforms._forms_similar(oracles.scaled(f, lam), f)

    @given(forms(), st.data())
    def test_equivalence_ignores_order_and_square_factors(self, f, data):
        coeffs = list(data.draw(st.permutations(f.coeffs)))
        i = data.draw(st.integers(0, f.dim - 1))
        coeffs[i] *= data.draw(RATIONALS) ** 2
        g = QF(*coeffs)
        h = data.draw(st.one_of(forms(dims=st.just(f.dim)), st.permutations(f.coeffs).map(
            lambda cs: QF(*cs))))
        assert forms_equivalent(g, f)
        assert forms_equivalent(g, h) == forms_equivalent(f, h)


# ---------------------------------------------------------------------------
# The places of the invariants against the full support of the coefficients

# a square class times a square, so that a prime can divide a coefficient to
# an even exponent (9*5, 4/25, 49*3, ...): there the two place lists differ
SQUARE_CLASSES = st.sampled_from((-15, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10, 11))
PRIME_SQUARES = st.sampled_from((1, 4, 9, 25, 49, 121, 225, Fraction(4, 25), Fraction(1, 9),
                                 Fraction(9, 49)))
EVEN_EXPONENT_RATIONALS = st.builds(lambda c, s: c * Fraction(s), SQUARE_CLASSES, PRIME_SQUARES)
ODD_DIMS = st.sampled_from((1, 3, 5, 7))


def odd_exponent_places(f):
    sympy = pytest.importorskip("sympy")
    primes = {2}
    for a in f.coeffs:
        for n in (abs(a.numerator), a.denominator):
            primes.update(p for p, e in sympy.factorint(n).items() if e % 2)
    return (*map(Place, sorted(primes)), REAL_PLACE)


@st.composite
def split_or_drawn_forms(draw, dims=st.sampled_from((5, 7))):
    """Forms of odd dimension: drawn coefficient by coefficient, or hyperbolic
    pairs <a, -a*s> rescaled by squares plus one last coefficient."""
    n = draw(dims)
    if draw(st.booleans()):
        return draw(forms(EVEN_EXPONENT_RATIONALS, st.just(n)))
    coeffs = [draw(EVEN_EXPONENT_RATIONALS)]
    for _ in range(n // 2):
        a, s = draw(EVEN_EXPONENT_RATIONALS), draw(PRIME_SQUARES)
        coeffs += [a, -a * s]
    return QF(*draw(st.permutations(coeffs)))


class TestPlacesOfOddExponent:
    def test_equivalent_forms_list_different_places(self):
        # 5 = 1 + 1*2**2, so <5,5> = <1,1>; <3,3> is not, with Hasse -1 at 2 and 3
        f, g = QF(5, 5), QF(1, 1)
        assert forms_equivalent(f, g) and not forms_equivalent(QF(3, 3), g)
        assert form_invariants(f).places == (Place(2), Place(5), REAL_PLACE)
        assert form_invariants(g).places == (Place(2), REAL_PLACE)

    @given(forms(EVEN_EXPONENT_RATIONALS) | forms(RATIONALS, st.integers(1, 4)))
    def test_places_are_two_odd_exponent_primes_and_real(self, f):
        assert form_invariants(f).places == odd_exponent_places(f)

    @given(forms(EVEN_EXPONENT_RATIONALS))
    def test_witt_index_matches_full_support(self, f):
        assert witt_index_global(f) == oracles.witt_index_over_support(f)

    @given(split_or_drawn_forms(), st.sampled_from(
        (BrauerClass(), class_from_quaternion(-1, 3), class_from_quaternion(-1, -1))))
    def test_twins_match_full_support(self, form, algebra):
        b = GroupB(form)
        c = GroupC(algebra, b.rank)
        assert twins(b, c) == oracles.twins_over_support(b, c) == oracles.twins_by_places(b, c)

    @given(ODD_DIMS.flatmap(lambda n: st.tuples(*[forms(EVEN_EXPONENT_RATIONALS, st.just(n))] * 2)),
           EVEN_EXPONENT_RATIONALS)
    def test_similarity_matches_full_support(self, pair, lam):
        f, g = pair
        assert qforms._forms_similar(f, g) == oracles.similar_over_support(f, g)
        assert qforms._forms_similar(oracles.scaled(f, lam), f)
        assert oracles.similar_over_support(oracles.scaled(f, lam), f)

    @pytest.mark.parametrize("classes, squares, dims", [
        ((-5, -3, -2, -1, 1, 2, 3, 5), (1, 9, 25, 49, Fraction(1, 9)), (2, 3, 4)),
        ((-3, -2, -1, 1, 2, 3), (1, 4, 9), (2, 3, 4, 5))])
    def test_witt_index_matches_vector_splitting(self, classes, squares, dims):
        # the search is exhaustive in its box only, so it misses planes of
        # larger forms (it finds 1 of the 2 planes of <-245,1/3,294,-9,-8>)
        rng = random.Random(RNG_SEED + 13)
        for _ in range(120):
            f = QF(*(rng.choice(classes) * rng.choice(squares) for _ in range(rng.choice(dims))))
            assert witt_index_global(f) == oracles.witt_index_by_splitting(f.coeffs, bound=90), f


class TestFactorizationCounts:
    """Each distinct coefficient is factored once per command, up to sign,
    by the invariants of its form, and every verdict reads the places those
    invariants carry; a repeated value is factored once by every reader."""

    TRIPLE_S = ["triple", "--triple1=form=3,-5,7,-11,13;S=3,5", "--triple2=form=1,-1,1,-1,1;S=3,5"]
    SEMIPRIME = 137438965819 * 137439941131  # 75 bits, two 37-bit primes

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("argv, factored", [
        (["form", "--form=3,5,7,11,13,17,19"], 7),
        (TRIPLE_S, 6),
        ([arg.partition(";")[0] for arg in TRIPLE_S], 6),
        (["twins", "--form=3,5,7,11,13", "--algebra="], 5),
        (["brauer", "--quaternion=12,-45"], 2),
        (["form", f"--form={SEMIPRIME},{SEMIPRIME},{SEMIPRIME},{SEMIPRIME}"], 1),
        (["form", f"--form={SEMIPRIME},-{SEMIPRIME},{SEMIPRIME}"], 1),
        (["weakcomm", f"--set1={SEMIPRIME}", f"--set2={SEMIPRIME}"], 1),
        (["brauer", f"--quaternion={SEMIPRIME},{SEMIPRIME}"], 1),
        (["brauer", f"--quaternion={SEMIPRIME},-{SEMIPRIME}"], 1)])
    def test_factor_calls(self, monkeypatch, argv, factored):
        calls = count_everywhere(monkeypatch, "factor")
        assert reply(argv).startswith('{"ok":true,')
        assert len(calls) == factored

    def test_form_proves_each_place_once(self, monkeypatch):
        # one proof per place: 2, 3, ..., 19
        calls = count_everywhere(monkeypatch, "is_prime")
        reply(["form", "--form=3,5,7,11,13,17,19"])
        assert sorted(calls) == [2, 3, 5, 7, 11, 13, 17, 19]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_invariants_built_once_per_form(self, monkeypatch):
        built = []
        post_init = LocalInvariants.__post_init__
        monkeypatch.setattr(LocalInvariants, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        reply(["form", "--form=3,5,7,11,13,17,19"])
        assert len(built) == 1
        reply(self.TRIPLE_S)
        assert len(built) == 3
        assert [inv.places for inv in built[1:]] == [
            (Place(2), Place(3), Place(5), Place(7), Place(11), Place(13), REAL_PLACE),
            (Place(2), REAL_PLACE)]

    def test_qforms_does_not_import_support_places(self):
        assert not hasattr(qforms, "support_places")


class TestRoundTrips:
    @given(forms())
    def test_form_through_str(self, f):
        assert cli._form(str(f)) == f

    @given(st.sampled_from((2, 3, 5, 7, 101, 2**61 - 1)).map(Place) | st.just(REAL_PLACE))
    def test_place_through_str(self, v):
        assert Place.parse(str(v)) == v

    @pytest.mark.parametrize("text", ["inf", "oo", "real", " inf "])
    def test_real_place_names(self, text):
        v = Place.parse(text)
        assert v == REAL_PLACE and str(v) == "inf"


# two 60-bit primes and seven 40-bit primes, each proven by is_prime
P60, Q60 = 576460752303435851, 576460752304435897
PRIMES_40 = (549755826239, 549756826243, 549757826257, 549758826271, 549759826333,
             549760826341, 549761826391)


def pairwise_hasse_minus(f):
    return tuple(v for v in support_places(*f.coeffs) if prod(
        hilbert_symbol(f.coeffs[i], f.coeffs[j], v)
        for i in range(f.dim) for j in range(i + 1, f.dim)) == -1)


def reply(argv):
    return cli.execute(cli.parse(argv)).to_json()


class TestLargeCoefficients:
    """Forms whose coefficients factor at once although their products are
    too large or too hard to factor."""

    def test_two_60_bit_primes(self):
        f = QF(P60, Q60, 1)
        inv = form_invariants(f)
        assert inv.disc == P60 * Q60
        assert inv.hasse_minus == pairwise_hasse_minus(f)
        assert reply(["form", f"--form={f}"]).startswith('{"ok":true,')

    def test_seven_40_bit_primes(self):
        coeffs = [(-1) ** i * p for i, p in enumerate(PRIMES_40)]
        f = QF(*coeffs)
        inv = form_invariants(f)
        assert inv.disc == prod(coeffs) and inv.signature == (4, 3)
        assert inv.hasse_minus == pairwise_hasse_minus(f)
        assert reply(["form", f"--form={f}"]).startswith('{"ok":true,')

    def test_five_dimensional_triple(self):
        assert reply(["triple", "--triple1=form=850,-12,-24334/25,9747/13,72",
                      "--triple2=form=36/13,1500/17,-2/9,-174/101,477/11"]) == (
            '{"ok":true,"result":{"commensurable":false,'
            '"reason":"forms are not similar over Q"}}')

    def test_40_bit_self_triple(self):
        form = ",".join(str(p) for p in PRIMES_40[:5])
        assert reply(["triple", f"--triple1=form={form}", f"--triple2=form={form}"]) == (
            '{"ok":true,"result":{"commensurable":true}}')
