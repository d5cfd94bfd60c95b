"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.
"""

import itertools
import random
import time
from fractions import Fraction

from mpmath import mp

import oracles
from arithgenus.arith import (
    Place,
    REAL_PLACE,
    hilbert_symbol,
    squarefree_part,
    support_places,
)
from arithgenus.brauer import BrauerClass, class_from_invariants
from arithgenus.genus import epsilon_family, genus_enumerate
from arithgenus.qforms import (
    ArithmeticTriple,
    GroupB,
    GroupC,
    QuadraticForm,
    form_invariants,
    is_isotropic_global,
    is_isotropic_local,
    triple_verdict,
    twins,
    witt_index_local,
)
from arithgenus.quadfield import class_number, fundamental_unit, unit_real_value
from arithgenus.spectrum import WeylQuery, length_commensurable, weyl_main_term
from arithgenus.weakcomm import RationalEigenvalues, groups_intersect

QF = QuadraticForm.of


class Criterion:
    """Collects failures and prints the verdict line when closed."""

    def __init__(self, number, description, budget_seconds=None):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.failures = []
        self.started = time.perf_counter()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        if self.budget is not None and elapsed > self.budget:
            self.failures.append(f"took {elapsed:.2f}s, budget {self.budget}s")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict} ({elapsed:.2f}s) - {self.description}")
        assert not self.failures, self.failures


def quaternion_class(support):
    return class_from_invariants({v: Fraction(1, 2) for v in support})


def test_criterion_1_hilbert_product_formula():
    crit = Criterion(1, "Hilbert product formula over 1000 random pairs", 1.0)
    rng = random.Random(10001)
    for _ in range(1000):
        a = rng.randint(1, 10**4) * rng.choice((1, -1))
        b = rng.randint(1, 10**4) * rng.choice((1, -1))
        product = 1
        for v in support_places(a, b):
            product *= hilbert_symbol(a, b, v)
        crit.check(product == 1, f"product formula fails for ({a}, {b})")
    crit.finish()


def test_criterion_2_ternary_example_and_triple_verdict():
    crit = Criterion(2, "ternary forms split/anisotropic at 3 and triple verdict")
    f1, f2 = QF(1, 1, -3), QF(1, 2, -7)
    crit.check(not is_isotropic_local(f1, Place(3)), "<1,1,-3> must be anisotropic at 3")
    crit.check(is_isotropic_local(f2, Place(3)), "<1,2,-7> must be isotropic at 3")
    verdict = triple_verdict(ArithmeticTriple(f1), ArithmeticTriple(f2))[0]
    crit.check(verdict is False, "the two triples must not be commensurable")
    crit.finish()


def test_criterion_3_quaternion_genus_triviality():
    crit = Criterion(3, "quaternion division classes have a one-element genus", 5.0)
    places = [REAL_PLACE] + [Place(p) for p in (2, 3, 5, 7, 11, 13)]
    count = 0
    for r in (2, 4, 6):
        for support in itertools.combinations(places, r):
            cls = quaternion_class(support)
            count += 1
            genus = genus_enumerate(cls)
            crit.check(
                oracles.genus_members(genus) == (cls,),
                f"genus of {cls} has {genus.size} members",
            )
    crit.check(count == 63, f"expected 63 classes, scanned {count}")
    crit.finish()


def test_criterion_4_epsilon_families():
    crit = Criterion(4, "cubic families: sizes, shared subfields, genus counts")
    expected_sizes = {(2, 3): 2, (2, 3, 5): 2, (2, 3, 5, 7): 6}
    for primes, size in expected_sizes.items():
        family = oracles.genus_members(epsilon_family(primes))
        crit.check(len(family) == size, f"family {primes} should have {size} members")
        crit.check(len(set(family)) == len(family), f"family {primes} has duplicates")
        for m1, m2 in itertools.combinations(family, 2):
            crit.check(
                oracles.same_maximal_subfields(m1, m2),
                f"members of family {primes} must share maximal subfields",
            )
        for member in family:
            orders = [oracles.local_index(member, v) for v in member.support]
            expected = oracles.genus_size_by_enumeration(orders)
            got = genus_enumerate(member).size
            crit.check(
                got == expected,
                f"genus size {got} != brute-force count {expected} for {member}",
            )
    crit.finish()


def test_criterion_5_unit_relation():
    crit = Criterion(5, "eta(d) = eps(d)^(2h) below 2^-64 at 192 working bits", 5.0)
    for d in (2, 3, 5, 6, 7, 10, 11, 13):
        eta = oracles.eta_by_sine_product(d, 128)  # 128 requested + 64 guard = 192 working bits
        h = class_number(d).class_number
        eps = fundamental_unit(d)
        with mp.workprec(192):
            algebraic = unit_real_value(eps, 128) ** (2 * h)
            rel = abs(eta - algebraic) / eta
            crit.check(rel < mp.mpf(2) ** -64, f"d={d}: relative difference {rel}")
    crit.finish()


def test_criterion_6_fuchsian_commensurability_loop():
    crit = Criterion(6, "length-commensurable iff equal, small quaternion classes", 10.0)
    classes = []
    for r in (2, 4):
        for support in itertools.combinations((2, 3, 5, 7, 11), r):
            classes.append(quaternion_class([Place(p) for p in support]))
    for c1 in classes:
        for c2 in classes:
            oracle = oracles.length_commensurable_by_admissible_sets(c1, c2, 200)
            got = length_commensurable(c1, c2)
            crit.check(
                oracle == got == (c1 == c2),
                f"bounded test {oracle}, closed form {got} for {c1} vs {c2}",
            )
    crit.finish()


def test_criterion_7_weak_commensurability_oracle():
    # Half the pairs are independent draws, half share a generator (or its
    # inverse) so that genuine intersections with search-visible witnesses
    # occur; sparse correlated draws can hide witnesses beyond any fixed
    # exponent bound, which the module tests cover separately.
    crit = Criterion(7, "group intersection agrees with exponent search <= 8")
    rng = random.Random(70007)
    primes = (2, 3, 5, 7, 11, 13)

    def sample_value():
        v = Fraction(rng.choice((1, -1)))
        for p in primes:
            v *= Fraction(p) ** rng.randint(-3, 3)
        return v

    intersecting = 0
    for i in range(500):
        values1 = [sample_value() for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            shared = rng.choice(values1)
            if rng.random() < 0.5:
                shared = 1 / shared
            values2 = [shared] + [sample_value() for _ in range(rng.randint(0, 2))]
            rng.shuffle(values2)
        else:
            values2 = [sample_value() for _ in range(rng.randint(1, 3))]
        s1 = RationalEigenvalues(tuple(values1))
        s2 = RationalEigenvalues(tuple(values2))
        expected = oracles.groups_intersect_by_search(s1.values, s2.values, 8)
        got = groups_intersect(s1, s2)
        intersecting += got
        crit.check(
            got == expected,
            f"pair {i}: {s1.values} vs {s2.values}: lattice {got}, search {expected}",
        )
    crit.check(intersecting > 100, f"only {intersecting} intersecting pairs sampled")
    crit.check(intersecting < 400, f"{intersecting} intersecting pairs; too few independent")
    crit.finish()


def test_criterion_8_isotropy_search_oracle():
    crit = Criterion(8, "isotropic vectors certify the global verdict", 30.0)
    rng = random.Random(80008)
    nonzero = [c for c in range(-30, 31) if c]
    vectors_found = 0
    for i in range(2000):
        dim = 3 if i % 2 == 0 else 4
        coeffs = tuple(rng.choice(nonzero) for _ in range(dim))
        f = QF(*coeffs)
        hit = oracles.isotropic_vector(coeffs, 50)
        if hit is not None:
            vectors_found += 1
            crit.check(
                sum(a * x * x for a, x in zip(coeffs, hit)) == 0,
                f"search returned a non-zero of {coeffs}",
            )
            crit.check(
                is_isotropic_global(f),
                f"vector {hit} found but verdict anisotropic for {coeffs}",
            )
        if dim == 3:
            # explicit invariant-level cross-check at every support place
            disc = squarefree_part(
                (coeffs[0] * coeffs[1] * coeffs[2])
            )
            for v in support_places(*coeffs):
                if v.is_real:
                    continue
                hasse = 1
                for j in range(3):
                    for k in range(j + 1, 3):
                        hasse *= hilbert_symbol(coeffs[j], coeffs[k], v)
                explicit = hasse == hilbert_symbol(-1, -disc, v)
                crit.check(
                    is_isotropic_local(f, v) == explicit,
                    f"ternary local criterion mismatch for {coeffs} at {v}",
                )
    crit.check(vectors_found > 400, f"search found only {vectors_found} vectors")
    crit.finish()


def test_criterion_9_weyl_main_term():
    crit = Criterion(9, "Weyl main term normalization and scaling")
    import math

    base = weyl_main_term(WeylQuery(2, 4 * math.pi, 1.0))
    crit.check(abs(base - 1.0) < 1e-12, f"normalized value {base} != 1")
    scaled = weyl_main_term(WeylQuery(2, 4 * math.pi, 2.0))
    crit.check(abs(scaled - 4.0) < 1e-12, f"lambda scaling {scaled} != 4")
    crit.check(weyl_main_term(WeylQuery(2, 4 * math.pi, 0.0)) == 0.0, "zero lambda")
    crit.finish()


def test_criterion_10_twins_characterization():
    crit = Criterion(10, "twins iff everywhere-split form and trivial algebra", 20.0)
    rng = random.Random(10010)
    hamilton_like = lambda support: class_from_invariants(
        {v: Fraction(1, 2) for v in support}
    )
    c_data = [
        GroupC(BrauerClass(), 3, False),
        GroupC(hamilton_like((REAL_PLACE, Place(2))), 3, True),
        GroupC(hamilton_like((REAL_PLACE, Place(2))), 3, False),
        GroupC(hamilton_like((REAL_PLACE, Place(3))), 3, True),
        GroupC(hamilton_like((REAL_PLACE, Place(3))), 3, False),
        GroupC(hamilton_like((Place(2), Place(3))), 3, False),
    ]
    check_places = [Place(2), Place(3), Place(5)]
    for _ in range(500):
        form = QF(*(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(7)))
        b = GroupB(form)
        form_split = min(form_invariants(form).signature) == 3 and all(
            witt_index_local(form, v) == 3 for v in check_places
        )
        for c in c_data:
            expected = form_split and c.algebra.is_trivial()
            got = twins(b, c)
            crit.check(
                got == expected,
                f"twins({form}, {c.algebra}|definite={c.real_definite}) = {got}, expected {expected}",
            )
    crit.finish()
