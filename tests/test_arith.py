import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from arithgenus import arith
from arithgenus.arith import (
    Factorization,
    Place,
    REAL_PLACE,
    factor,
    hilbert_symbol,
    is_local_square,
    is_prime,
    is_squarefree,
    kronecker_symbol,
    padic_valuation,
    squarefree_part,
    support_places,
)

RNG_SEED = 90437


def nonzero_rational(rng, size=10**4):
    num = rng.randint(1, size) * rng.choice((1, -1))
    den = rng.randint(1, size)
    return Fraction(num, den)


class TestParseRational:
    @given(st.integers(-10**6, 10**6), st.integers(0, 30), st.integers(-4299, 4299),
           st.sampled_from(["e", "E"]))
    def test_inside_the_bound_it_is_fraction(self, mantissa, point, exponent, e):
        digits = str(abs(mantissa)).rjust(point + 1, "0")
        text = f"{'-' if mantissa < 0 else ''}{digits[:-point or None]}.{digits[-point:] if point else ''}"
        for literal in (text, f"{text}{e}{exponent}", f" {mantissa}/{point + 1} "):
            assert arith.parse_rational(literal) == Fraction(literal)

    @pytest.mark.parametrize("text", ["1e4300", "-2.5E-4300", "1e+99999999", "0e5000",
                                      "1." + "0" * 4301, "1_0e4_300", "1e5" + "0" * 5000])
    def test_beyond_the_bound_it_refuses_before_building(self, text):
        with pytest.raises(ValueError, match="^denotes more than 4300 digits$"):
            arith.parse_rational(text)

    @pytest.mark.parametrize("text", ["", "e", "1e", "1/0", "abc", "1e--99999", "1.5.5e3"])
    def test_malformed_text_is_left_to_fraction(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)) as refusal:
            arith.parse_rational(text)
        assert "denotes" not in str(refusal.value)


def fraction_or_error(parse, text):
    """The value of parse(text), or the type and text of what it raised."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# a signed run of decimal digits, of any script: the texts read through int()
signs = st.sampled_from(["", "+", "-"])
ascii_digits = st.builds("{}{}".format, st.text("0", max_size=5),
                         st.integers(0, 10**40).map(str))
unicode_digits = st.text(st.characters(whitelist_categories=("Nd",)), min_size=1, max_size=30)


class TestParseRationalFastPath:
    @given(signs, st.one_of(ascii_digits, unicode_digits))
    def test_digit_runs_read_like_fraction(self, sign, digits):
        text = sign + digits
        assert (text[1:] if sign else text).isdecimal()
        got = arith.parse_rational(text)
        assert got == Fraction(text) and type(got) is Fraction

    @given(signs, st.sampled_from([4299, 4300, 4301]),
           st.sampled_from(["1", "9", "\u0663", "\uff17"]))
    def test_at_the_int_digit_limit_the_error_is_fractions(self, sign, length, digit):
        text = sign + digit * length
        assert fraction_or_error(arith.parse_rational, text) == fraction_or_error(Fraction, text)

    @pytest.mark.parametrize("text", ["", "+", "-", "+-1", "--1", "-+1", " 12", "12 ", "1_000",
                                      "12/1", "0x1f", "\u00b2", "1\u00b2", "\u2155"])
    def test_other_text_keeps_fraction(self, text):
        assert fraction_or_error(arith.parse_rational, text) == fraction_or_error(Fraction, text)


class TestPlace:
    def test_finite_place_requires_prime(self):
        with pytest.raises(ValueError):
            Place(6)

    def test_parse_round_trip(self):
        assert Place.parse("3") == Place(3)
        assert Place.parse("inf") == REAL_PLACE
        assert str(Place(7)) == "7"
        assert str(REAL_PLACE) == "inf"

    def test_sort_order_puts_real_last(self):
        places = sorted([REAL_PLACE, Place(5), Place(2)], key=Place.sort_key)
        assert places == [Place(2), Place(5), REAL_PLACE]


class TestFactor:
    def test_small_integer(self):
        assert factor(18) == Factorization(1, ((2, 1), (3, 2)))

    def test_small_rational(self):
        assert factor(Fraction(3, 8)) == Factorization(1, ((2, -3), (3, 1)))

    def test_unit(self):
        assert factor(-1) == Factorization(-1, ())

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_round_trip_random(self):
        rng = random.Random(RNG_SEED)
        for _ in range(300):
            q = nonzero_rational(rng)
            f = factor(q)
            assert f.sign * prod(Fraction(p) ** e for p, e in f.factors) == q

    def test_large_semiprime(self):
        # both factors beyond the trial-division bound
        p, q = 1_000_003, 1_000_033
        assert factor(p * q).factors == ((p, 1), (q, 1))

    def test_factorization_validates_order(self):
        with pytest.raises(ValueError):
            Factorization(1, ((3, 1), (2, 1)))
        with pytest.raises(ValueError):
            Factorization(1, ((2, 0),))

    def test_matches_sympy_factorint(self):
        # the inputs that trial division to 10**6 used to finish and Brent
        # rho now splits: prime factors in (2**12, 10**6), prime powers just
        # above 2**12 and near 10**6, alone and times small cofactors
        sympy = pytest.importorskip("sympy")
        rng = random.Random(RNG_SEED)
        cases = []
        for count in range(1, 5):
            for _ in range(30):
                n = 1
                for _ in range(count):
                    n *= sympy.nextprime(rng.randrange(2**12, 10**6 - 100))
                cases.append(n)
        for p in (4099, 4111, 4127, 999953, 999961, 999979, 999983, 1000003):
            cases.extend(p**e for e in range(2, 6))
        cases += [n * rng.randrange(2, 2**12) for n in list(cases)]
        assert len(cases) == 304
        for n in cases:
            assert dict(factor(n).factors) == sympy.factorint(n), n

    def test_rho_budget_raises_value_error(self, monkeypatch):
        # two 30-bit primes need far more than 2**12 rho iterations
        p, q = 1073741789, 1073741783
        monkeypatch.setattr(arith, "_RHO_BUDGET", 2**12)
        with pytest.raises(ValueError, match="no factor of 1152921423002469787 within 4096 rho"):
            factor(p * q)
        monkeypatch.undo()
        assert factor(p * q).factors == ((q, 1), (p, 1))

    def test_one_primality_proof_per_cofactor(self, monkeypatch):
        # the composite left after trial division is tested once, then each
        # of its two prime factors
        calls = []
        original = arith.is_prime

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        assert factor(524309 * 1048571).factors == ((524309, 1), (1048571, 1))
        assert sorted(calls) == [524309, 1048571, 524309 * 1048571]


class TestTrialDivision:
    # around the trial bound 2**12: its last prime 4093, the next one 4099
    BOUNDARY = (4093**2, 4093 * 4099, 4099**2, 4097, 2**12 - 1, 2**12 + 1, 2**12,
                4093, 4099, 4093**2 * 4099, 4097**2, 4097**2 - 2, 4099**2 - 2)

    def test_table_is_the_primes_to_the_bound(self):
        sympy = pytest.importorskip("sympy")
        assert arith._TRIAL_PRIMES == tuple(sympy.primerange(2, arith._TRIAL_BOUND + 1))
        assert len(arith._TRIAL_PRIMES) == 564

    def test_boundary_cases(self):
        sympy = pytest.importorskip("sympy")
        assert factor(4097).factors == ((17, 1), (241, 1))
        for n in self.BOUNDARY:
            got = arith._factor_positive(n)
            assert got == sympy.factorint(n), n
            # the same map, key order included, as the odd-d trial division
            assert list(got.items()) == list(oracles.factor_by_odd_trial_division(n).items()), n

    @given(st.one_of(st.integers(1, 2**24), st.integers(1, 2**48),
                     st.sampled_from(BOUNDARY).flatmap(lambda n: st.integers(n - 50, n + 50))))
    def test_matches_odd_trial_division(self, n):
        got = arith._factor_positive(n)
        assert list(got.items()) == list(oracles.factor_by_odd_trial_division(n).items())


class TestSquarefree:
    @pytest.mark.parametrize("n,expected", [(12, 3), (-50, -2), (7, 7), (1, 1), (-1, -1)])
    def test_examples(self, n, expected):
        assert squarefree_part(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(0)

    def test_defining_property(self):
        rng = random.Random(RNG_SEED)
        for _ in range(200):
            n = rng.randint(1, 10**6) * rng.choice((1, -1))
            s = squarefree_part(n)
            m2 = n // s
            assert m2 > 0 and Fraction(n, s) == m2
            root = round(m2**0.5)
            assert root * root == m2
            assert is_squarefree(s)


class TestKronecker:
    def test_five_over_two(self):
        # frozen from the mod-8 rule: 5 = -3 mod 8
        assert kronecker_symbol(5, 2) == -1

    def test_five_over_four(self):
        assert kronecker_symbol(5, 4) == 1

    def test_one_is_identity(self):
        for n in (-7, -2, -1, 2, 3, 10, 45):
            assert kronecker_symbol(1, n) == 1

    def test_zero_zero_rejected(self):
        with pytest.raises(ValueError):
            kronecker_symbol(0, 0)

    def test_matches_euler_criterion_at_odd_primes(self):
        for p in (3, 5, 7, 11, 13, 101):
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert kronecker_symbol(a, p) == expected
                assert is_local_square(a, Place(p)) == (expected == 1)

    def test_completely_multiplicative(self):
        rng = random.Random(RNG_SEED)
        for _ in range(400):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            n, m = rng.randint(-50, 50), rng.randint(-50, 50)
            if (a * b, n) != (0, 0) and (a, n) != (0, 0) and (b, n) != (0, 0):
                assert kronecker_symbol(a * b, n) == kronecker_symbol(
                    a, n
                ) * kronecker_symbol(b, n)
            if (a, m * n) != (0, 0) and (a, n) != (0, 0) and (a, m) != (0, 0):
                assert kronecker_symbol(a, m * n) == kronecker_symbol(
                    a, m
                ) * kronecker_symbol(a, n)


class TestValuation:
    @pytest.mark.parametrize(
        "q,p,expected",
        [(18, 3, 2), (Fraction(3, 8), 2, -3), (1, 5, 0), (Fraction(-49, 3), 7, 2)],
    )
    def test_examples(self, q, p, expected):
        assert padic_valuation(q, p) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            padic_valuation(0, 3)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            padic_valuation(10, 4)

    def test_place_prime_is_not_rechecked(self, monkeypatch):
        # a Place checks its prime once; local tests at it trust that check
        places = [Place(p) for p in (2, 3, 7)]
        calls = []
        original = arith.is_prime

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        for v in places:
            hilbert_symbol(Fraction(-12, 5), 21, v)
            is_local_square(Fraction(63, 4), v)
        assert calls == []
        with pytest.raises(ValueError):
            padic_valuation(10, 4)
        assert calls == [4]

    def test_additive_on_products(self):
        rng = random.Random(RNG_SEED)
        for _ in range(200):
            q1, q2 = nonzero_rational(rng, 500), nonzero_rational(rng, 500)
            p = rng.choice((2, 3, 5, 7))
            assert padic_valuation(q1 * q2, p) == padic_valuation(
                q1, p
            ) + padic_valuation(q2, p)


class TestLocalSquares:
    def test_minus_one_at_three(self):
        assert not is_local_square(-1, Place(3))

    def test_seventeen_at_two(self):
        assert is_local_square(17, Place(2))

    def test_four_at_real(self):
        assert is_local_square(4, REAL_PLACE)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_local_square(0, Place(5))

    def test_squares_are_squares(self):
        rng = random.Random(RNG_SEED)
        places = [REAL_PLACE, Place(2), Place(3), Place(5), Place(7)]
        for _ in range(200):
            q = nonzero_rational(rng, 300)
            for v in places:
                assert is_local_square(q * q, v)

    def test_duality_with_hilbert_symbol(self):
        # q is a local square iff it pairs trivially with every generator of
        # the local square classes
        rng = random.Random(RNG_SEED + 1)
        places = [REAL_PLACE, Place(2), Place(3), Place(5), Place(13)]
        for _ in range(150):
            q = nonzero_rational(rng, 300)
            for v in places:
                paired = all(
                    hilbert_symbol(q, r, v) == 1
                    for r in oracles.local_square_class_generators(v)
                )
                assert paired == is_local_square(q, v)


class TestHilbertSymbol:
    def test_frozen_examples(self):
        assert hilbert_symbol(-1, 3, Place(3)) == -1
        assert hilbert_symbol(-1, 3, REAL_PLACE) == 1
        assert hilbert_symbol(2, 3, Place(2)) == -1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 3, Place(3))

    def test_odd_place_units_are_trivial(self):
        # two p-adic units pair trivially at an odd place
        for p in (3, 5, 7, 11):
            for a in (1, 2, -1, 5, -7, 10):
                for b in (1, 3, -2, 6):
                    if a % p and b % p:
                        assert hilbert_symbol(a, b, Place(p)) == 1

    def test_symmetry_and_bimultiplicativity(self):
        rng = random.Random(RNG_SEED + 2)
        places = [REAL_PLACE, Place(2), Place(3), Place(5), Place(7)]
        for _ in range(200):
            a, b, c = (nonzero_rational(rng, 100) for _ in range(3))
            for v in places:
                assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
                assert hilbert_symbol(a, b * c, v) == hilbert_symbol(
                    a, b, v
                ) * hilbert_symbol(a, c, v)

    def test_a_minus_a_splits(self):
        rng = random.Random(RNG_SEED + 3)
        places = [REAL_PLACE, Place(2), Place(3), Place(11)]
        for _ in range(200):
            a = nonzero_rational(rng, 200)
            for v in places:
                assert hilbert_symbol(a, -a, v) == 1

    def test_product_formula(self):
        rng = random.Random(RNG_SEED + 4)
        for _ in range(300):
            a, b = nonzero_rational(rng), nonzero_rational(rng)
            product = 1
            for v in support_places(a, b):
                product *= hilbert_symbol(a, b, v)
            assert product == 1


def test_is_prime_matches_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n]


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# 2 and the small odd primes, and primes up to about 2**31
primes = st.one_of(st.sampled_from((2, 3, 5, 7)), st.integers(11, 2**31).map(_next_prime))


@st.composite
def rationals_at(draw, p):
    """A signed rational p**e * n/m with n, m up to 2**31, as an int when m = 1."""
    n = draw(st.integers(1, 2**31)) * draw(st.sampled_from((1, -1)))
    m = draw(st.integers(1, 2**31))
    q = Fraction(n, m) * Fraction(p) ** draw(st.integers(-4, 4))
    return q.numerator if q.denominator == 1 else q


@st.composite
def prime_and_rationals(draw, count):
    p = draw(primes)
    return (p, *(draw(rationals_at(p)) for _ in range(count)))


class TestLocalSymbolProperties:
    @given(prime_and_rationals(2))
    def test_match_fraction_oracle(self, case):
        p, a, b = case
        for v in (Place(p), REAL_PLACE):
            assert hilbert_symbol(a, b, v) == oracles.hilbert_symbol_by_fractions(a, b, v)
            assert is_local_square(a, v) == oracles.is_local_square_by_fractions(a, v)
        assert padic_valuation(a, p) == oracles._fraction_unit_part(Fraction(a), p)[0]

    @given(prime_and_rationals(2))
    def test_hilbert_reciprocity(self, case):
        _, a, b = case
        product = 1
        for v in support_places(a, b):
            product *= hilbert_symbol(a, b, v)
        assert product == 1

    @given(prime_and_rationals(3))
    def test_symmetric_and_bilinear(self, case):
        p, a, b, c = case
        for v in (Place(p), Place(2), REAL_PLACE):
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)

    @given(prime_and_rationals(1))
    def test_steinberg_relation(self, case):
        p, a = case
        assume(a != 1)
        for v in (Place(p), Place(2), REAL_PLACE):
            assert hilbert_symbol(a, 1 - a, v) == 1


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


class TestProvenPrimality:
    def test_twelve_base_pseudoprime_is_composite(self):
        assert 399165290221 * 798330580441 == PSI_12
        assert not is_prime(PSI_12)

    def test_unproven_probable_prime_is_refused(self):
        # psi_13 is composite, yet it passes all thirteen bases
        with pytest.raises(ValueError, match=f"cannot prove {PSI_13} prime"):
            is_prime(PSI_13)
        with pytest.raises(ValueError, match="cannot prove"):
            Place(2**89 - 1)  # a Mersenne prime, above the proven range
        with pytest.raises(ValueError, match="cannot prove"):
            factor(3 * (2**89 - 1))

    def test_composite_above_the_proven_range_is_refuted(self):
        p, q = 1125899906842597, 1125899906842679  # primes near 2**50
        assert not is_prime(p * q)
        assert not is_prime(PSI_13 + 2)  # 3 | psi_13 + 2

    def test_size_cap(self):
        bits = arith.MAX_INTEGER_BITS
        assert factor(2 ** (bits - 1)).factors == ((2, bits - 1),)
        assert not is_prime(2**bits - 1)
        message = f"integer of {bits + 1} bits exceeds the supported bound {bits} bits"
        for call in (lambda: factor(2**bits), lambda: is_prime(2**bits + 1),
                     lambda: squarefree_part(-(2**bits)), lambda: Place(2**bits + 1),
                     lambda: factor(Fraction(1, 2**bits))):
            with pytest.raises(ValueError, match=message):
                call()


class TestSqrtModPrime:
    def test_every_odd_prime_below_2_11_by_brute_force(self):
        for p in range(3, 2**11, 2):
            if not is_prime(p):
                continue
            roots = {}
            for x in range(p):
                roots.setdefault(x * x % p, set()).add(x)
            for a in range(p):
                x = arith._sqrt_mod_prime(a + p * (a % 3 - 1), p)  # a, a - p or a + p
                assert (x is None) == (a not in roots), (a, p)
                assert x is None or x in roots[a], (a, p)

    def test_matches_sympy_sqrt_mod(self):
        ntheory = pytest.importorskip("sympy.ntheory")
        sympy = pytest.importorskip("sympy")
        rng = random.Random(RNG_SEED + 10)
        # primes with a long run of 2s in p - 1, where Tonelli-Shanks loops longest
        primes = [998244353, 2**64 - 2**32 + 1, 3 * 2**30 + 1, 2**61 - 1]
        primes += [sympy.nextprime(rng.getrandbits(rng.randint(3, 80))) for _ in range(60)]
        for p in primes:
            for _ in range(20):
                a = rng.randrange(p)
                expected = set(ntheory.sqrt_mod(a, p, all_roots=True))
                x = arith._sqrt_mod_prime(a, p)
                assert (x is None) == (not expected) and (x is None or x in expected), (a, p)


class TestAgainstSympy:
    STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321,
                           3825123056546413051)

    def test_is_prime_matches_isprime(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(RNG_SEED + 5)
        cases = [rng.getrandbits(rng.randint(2, 64)) for _ in range(3000)]
        cases += [sympy.nextprime(rng.getrandbits(rng.randint(2, 63))) for _ in range(300)]
        cases += [sympy.nextprime(rng.getrandbits(32)) * sympy.nextprime(rng.getrandbits(31))
                  for _ in range(300)]
        cases += self.STRONG_PSEUDOPRIMES
        for n in cases:
            assert is_prime(n) == sympy.isprime(n), n
        assert not any(is_prime(n) for n in self.STRONG_PSEUDOPRIMES)

    def test_is_prime_matches_isprime_up_to_psi13(self):
        # above 2**64, where twelve bases stop short of psi_13
        sympy = pytest.importorskip("sympy")
        rng = random.Random(RNG_SEED + 9)
        cases = [rng.randrange(2**64, PSI_13) for _ in range(1000)]
        cases += [sympy.nextprime(rng.randrange(2**64, PSI_13 - 10**6)) for _ in range(200)]
        cases += [sympy.nextprime(rng.getrandbits(40) | 2**39)
                  * sympy.nextprime(rng.getrandbits(41) | 2**40) for _ in range(300)]
        cases += [PSI_12, PSI_13 - 2]
        for n in cases:
            assert n < PSI_13
            assert is_prime(n) == sympy.isprime(n), n

    def test_factor_matches_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(RNG_SEED + 6)

        def semiprime():
            return sympy.nextprime(rng.getrandbits(20)) * sympy.nextprime(rng.getrandbits(20))

        for _ in range(200):
            q = Fraction(rng.choice((1, -1)) * semiprime() * rng.randrange(1, 2**12),
                         semiprime() * rng.randrange(1, 2**12))
            expected = dict(sympy.factorint(abs(q.numerator)))
            expected.update((p, -e) for p, e in sympy.factorint(q.denominator).items())
            f = factor(q)
            assert (f.sign, dict(f.factors)) == (1 if q > 0 else -1, expected), q

    def test_kronecker_symbol_matches(self):
        numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
        rng = random.Random(RNG_SEED + 7)
        for _ in range(3000):
            a = rng.randint(-2**40, 2**40) >> rng.randint(0, 40)
            n = rng.randint(-2**40, 2**40) >> rng.randint(0, 40)
            if (a, n) != (0, 0):
                assert kronecker_symbol(a, n) == numbers.kronecker_symbol(a, n), (a, n)

    def test_is_local_square_matches_is_quad_residue(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(RNG_SEED + 8)
        for _ in range(1000):
            p = sympy.nextprime(rng.randrange(3, 2**31))
            a = rng.choice((1, -1)) * rng.randrange(1, 2**40)
            e = rng.randint(-3, 3)
            q = Fraction(a) * Fraction(p) ** e
            expected = a % p != 0 and e % 2 == 0 and sympy.is_quad_residue(a % p, p)
            if a % p:
                assert is_local_square(q, Place(p)) == expected, (q, p)
