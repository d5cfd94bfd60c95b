"""Independent brute-force oracles used by the tests.

Everything here recomputes results by search or enumeration, staying off the
code paths it is used to check, except the first section: the constructors
and readers of package records that only the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from arithgenus.arith import Place
    from arithgenus.qforms import LocalInvariants


# ---------------------------------------------------------------------------
# Constructors and readers that only the tests use


def make_unit(field, x, y):
    """The unit x + y*sqrt(d) of the field from rational coordinates."""
    from arithgenus.quadfield import QuadUnit

    x, y = Fraction(x), Fraction(y)
    big_x, x_rest = divmod(2 * x.numerator, x.denominator)
    big_y, y_rest = divmod(2 * y.numerator, y.denominator)
    norm4 = big_x * big_x - field.d * big_y * big_y
    if x_rest or y_rest or norm4 not in (4, -4):
        raise ValueError(f"{x} + {y}*sqrt({field.d}) is not a unit")
    return QuadUnit(field, big_x, big_y, norm4 // 4)


def compare_real(u, t) -> int:
    """Sign of (x + y*sqrt(d)) - t for the unit u and a rational t (an int
    or a Fraction), computed exactly: with t = p/q it is the sign of
    a + b*sqrt(d) for a = q*X - 2p and b = q*Y."""
    a, b = t.denominator * u.X - 2 * t.numerator, t.denominator * u.Y
    if a > 0 > b or b > 0 > a:
        # (a + b*sqrt(d)) * (a - b*sqrt(d)) = diff, and a - b*sqrt(d) has a's sign
        diff = a * a - u.field.d * b * b
        return ((diff > 0) - (diff < 0)) * (1 if a > 0 else -1)
    return (a + b > 0) - (a + b < 0)


def local_index(c, v) -> int:
    """The order of the invariant of the Brauer class c at the place v."""
    return c.invariant_at(v).denominator


def genus_members(genus):
    """The members of a GenusSet as BrauerClass objects, each validated on
    its own, in member order."""
    from arithgenus.brauer import BrauerClass

    orders = [value.denominator for _, value in genus.base.invariants]
    return tuple(
        BrauerClass(tuple((v, Fraction(k, r)) for v, k, r in zip(genus.base.support, ks, orders)))
        for ks in genus.numerators
    )


def eigenvalues(*values):
    """RationalEigenvalues of the given rationals."""
    from arithgenus.weakcomm import RationalEigenvalues

    return RationalEigenvalues(tuple(Fraction(v) for v in values))


# ---------------------------------------------------------------------------
# Pell-style minimal unit search


def minimal_unit_by_search(d: int, y_bound: int = 10**6):
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)) found by
    scanning y upward; returns (x, y, norm) as Fractions."""
    half_integers = d % 4 == 1
    for two_y in range(1, 2 * y_bound):
        if not half_integers and two_y % 2:
            continue
        # unit (two_x + two_y*sqrt(d))/2 needs two_x^2 = d*two_y^2 +- 4
        target = d * two_y * two_y
        for norm in (-1, 1):
            squared = target + 4 * norm
            if squared < 0:
                continue
            two_x = isqrt(squared)
            if two_x * two_x != squared:
                continue
            if two_x % 2 != two_y % 2:
                continue
            if not half_integers and two_x % 2:
                continue
            return Fraction(two_x, 2), Fraction(two_y, 2), norm
    raise AssertionError(f"no unit found for d={d} within the search bound")


# ---------------------------------------------------------------------------
# Fundamental unit by a repeated complete quotient, and reduced forms by
# divisor pairs


def unit_by_repeated_quotient(d: int):
    """The fundamental unit of Q(sqrt(d)) from the continued fraction of
    sqrt(d) or (1 + sqrt(d))/2: the first complete quotient seen twice closes
    one primitive period, and the convergent matrix of that period fixes the
    quotient; its bottom row gives the unit."""
    from arithgenus.quadfield import _CF_ITERATION_CAP, QuadField

    field = QuadField(d)
    if d % 4 == 1:
        big_d, p_cur, q_cur = d, 1, 2
    else:
        big_d, p_cur, q_cur = 4 * d, 0, 2
    sqrt_big_d = isqrt(big_d)

    # convergent state: (p_{i-1}, p_{i-2}, q_{i-1}, q_{i-2}) entering step i
    conv = (1, 0, 0, 1)
    seen: dict[tuple[int, int], tuple[int, tuple[int, int, int, int]]] = {}
    for step in range(_CF_ITERATION_CAP):
        state = (p_cur, q_cur)
        if state in seen:
            first_step, first_conv = seen[state]
            return _unit_from_period(field, big_d, state, first_step, first_conv, step, conv)
        seen[state] = (step, conv)
        a = (p_cur + sqrt_big_d) // q_cur
        p_next = a * q_cur - p_cur
        q_next = (big_d - p_next * p_next) // q_cur
        p1, p2, q1, q2 = conv
        conv = (a * p1 + p2, p1, a * q1 + q2, q1)
        p_cur, q_cur = p_next, q_next
    raise RuntimeError(f"continued fraction of sqrt({d}) did not cycle within the cap")


def _unit_from_period(field, big_d, state, m, conv_m, n, conv_n):
    # conv_m and conv_n are the convergent matrices M_m, M_n with
    # M_i = [[p_{i-1}, p_{i-2}], [q_{i-1}, q_{i-2}]].  The complete quotient
    # beta at steps m and n coincides, so N = M_m^{-1} M_n fixes beta and
    # N21*beta + N22 is a unit of the order of discriminant big_d.
    pm1, pm2, qm1, qm2 = conv_m
    pn1, pn2, qn1, qn2 = conv_n
    det_m = 1 if m % 2 == 0 else -1
    n21 = det_m * (-qm1 * pn1 + pm1 * qn1)
    n22 = det_m * (-qm1 * pn2 + pm1 * qn2)
    p_state, q_state = state
    # beta = (p_state + sqrt(big_d)) / q_state, sqrt(big_d) in terms of sqrt(d)
    sqrt_scale = 2 if big_d == 4 * field.d else 1
    x = Fraction(n21 * p_state, q_state) + n22
    y = Fraction(n21 * sqrt_scale, q_state)
    unit = make_unit(field, abs(x), abs(y))
    assert compare_real(unit, 1) > 0
    return unit


def reduced_forms_by_divisor_pairs(disc: int) -> set[tuple[int, int, int]]:
    """Reduced indefinite forms of discriminant disc, testing each divisor
    pair of (b^2 - disc)/4 in both orders and both signs."""
    # (a, b, c) with b^2 - 4ac = disc, 0 < b < sqrt(disc) and
    # sqrt(disc) - b < 2|a| < sqrt(disc) + b
    root = isqrt(disc)
    forms = set()
    for b in range(1, root + 1):
        if (disc - b * b) % 4 or b * b >= disc:
            continue
        ac = (b * b - disc) // 4  # negative
        for a in range(1, isqrt(-ac) + 1):
            if ac % a:
                continue
            for first, second in ((a, ac // a), (ac // a, a)):
                for sign in (1, -1):
                    aa, cc = sign * first, sign * second
                    lower_ok = (2 * abs(aa) + b) ** 2 > disc
                    upper_ok = 2 * abs(aa) < b or (2 * abs(aa) - b) ** 2 < disc
                    if lower_ok and upper_ok:
                        forms.add((aa, b, cc))
    return forms


def reduced_forms_by_intervals(disc: int) -> set[tuple[int, int, int]]:
    """Reduced indefinite forms of discriminant disc, by one interval of |a|
    for each b: the divisors of (disc - b^2)/4 that fall in it."""
    # (a, b, c) with b^2 - 4ac = disc and 0 < b < sqrt(disc) is reduced when
    # sqrt(disc) - b < 2|a| < sqrt(disc) + b, i.e. lo <= |a| <= hi.  |a|, |c|
    # run over divisor pairs a <= n/a of n = (disc - b^2)/4; n/a <= hi forces
    # a >= n/hi > (sqrt(disc) - b)/2, so only a >= lo can meet [lo, hi]
    root = isqrt(disc)
    forms = set()
    for b in range(root - (root - disc) % 2, 0, -2):
        n = (disc - b * b) // 4
        lo, hi = (root - b) // 2 + 1, (root + b) // 2
        for a in range(lo, isqrt(n) + 1):
            if n % a == 0:
                for x in (a, n // a):
                    if lo <= x <= hi:
                        forms.update(((x, b, -n // x), (-x, b, n // x)))
    return forms


# ---------------------------------------------------------------------------
# Rational isotropic vectors in a box


def isotropic_vector(coeffs: tuple[int, ...], bound: int):
    """A nonzero integer zero of sum(a_i x_i^2) with 0 <= x_i <= bound, or
    None.  Signs never matter, so the nonnegative box is exhaustive."""
    n = len(coeffs)
    if n == 1:
        return None
    if n == 2:
        a, b = coeffs
        for x in range(1, bound + 1):
            num = -a * x * x
            if num % b:
                continue
            t = num // b
            if t < 0:
                continue
            y = isqrt(t)
            if y * y == t and y <= bound:
                return (x, y)
        return None
    if n == 3:
        a, b, c = coeffs
        for x in range(bound + 1):
            for y in range(bound + 1):
                if x == 0 and y == 0:
                    num = 0
                else:
                    num = -(a * x * x + b * y * y)
                if num % c:
                    continue
                t = num // c
                if t < 0:
                    continue
                z = isqrt(t)
                if z * z == t and z <= bound and (x, y, z) != (0, 0, 0):
                    return (x, y, z)
        return None
    if n == 4:
        return _quaternary_vector(coeffs, bound)
    # n >= 5: freeze the first coordinate and recurse
    first, rest = coeffs[0], coeffs[1:]
    for x in range(bound + 1):
        hit = _shifted_vector(rest, first * x * x, bound)
        if hit is not None and (x,) + hit != (0,) * n:
            return (x,) + hit
    return None


def _quaternary_vector(coeffs, bound):
    a, b, c, d = coeffs
    left: dict[int, tuple[int, int]] = {}
    for x in range(bound + 1):
        for y in range(bound + 1):
            value = a * x * x + b * y * y
            if (x, y) != (0, 0):
                left.setdefault(value, (x, y))
    if 0 in left:
        x, y = left[0]
        return (x, y, 0, 0)
    for z in range(bound + 1):
        for w in range(bound + 1):
            value = -(c * z * z + d * w * w)
            if value in left:
                x, y = left[value]
                return (x, y, z, w)
    return None


def _shifted_vector(coeffs, shift, bound):
    # nonneg box solution of shift + sum(a_i x_i^2) = 0, allowing all-zero
    # only when shift == 0 is handled by the caller
    if len(coeffs) == 3:
        a, b, c = coeffs
        for x in range(bound + 1):
            for y in range(bound + 1):
                num = -(shift + a * x * x + b * y * y)
                if num % c:
                    continue
                t = num // c
                if t < 0:
                    continue
                z = isqrt(t)
                if z * z == t and z <= bound:
                    return (x, y, z)
        return None
    a, b, c, d = coeffs
    left: dict[int, tuple[int, int]] = {}
    for x in range(bound + 1):
        for y in range(bound + 1):
            left.setdefault(a * x * x + b * y * y, (x, y))
    for z in range(bound + 1):
        for w in range(bound + 1):
            value = -(shift + c * z * z + d * w * w)
            if value in left:
                x, y = left[value]
                return (x, y, z, w)
    return None


# ---------------------------------------------------------------------------
# Vector-level Witt decomposition over Q


def _polar(coeffs, u, v):
    return sum(a * x * y for a, x, y in zip(coeffs, u, v))


def _integer_coeffs(coeffs) -> tuple[int, ...]:
    from math import lcm

    scale = 1
    for a in coeffs:
        scale = lcm(scale, Fraction(a).denominator)
    return tuple(int(Fraction(a) * scale) for a in coeffs)


def witt_index_by_splitting(coeffs, bound: int = 60) -> int:
    """Global Witt index by explicit vector arithmetic: find an isotropic
    vector, split off the hyperbolic plane it spans with a dual vector, and
    recurse on the diagonalized orthogonal complement.

    Exhaustive within the search box, so the answer is a lower bound in
    general and exact for the small forms the tests feed it.
    """
    coeffs = tuple(Fraction(a) for a in coeffs)
    n = len(coeffs)
    if n == 0:
        return 0
    hit = isotropic_vector(_integer_coeffs(coeffs), bound)
    if hit is None:
        return 0
    v = tuple(Fraction(x) for x in hit)
    assert sum(a * x * x for a, x in zip(coeffs, v)) == 0
    # dual vector: some e_j with polar(v, e_j) != 0 exists (the form is
    # nondegenerate and v is nonzero)
    j = next(i for i in range(n) if coeffs[i] * v[i] != 0)
    u = tuple(Fraction(int(i == j)) for i in range(n))
    # orthogonal complement of span(v, u): solve polar(x, v) = polar(x, u) = 0
    rows = [
        [coeffs[i] * v[i] for i in range(n)],
        [coeffs[i] * u[i] for i in range(n)],
    ]
    basis = _nullspace(rows)
    assert len(basis) == n - 2
    residual = _diagonalize(coeffs, basis)
    return 1 + witt_index_by_splitting(residual, bound)


def _nullspace(rows):
    n = len(rows[0])
    rows = [row[:] for row in rows]
    pivots = {}
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for c in free:
        vec = [Fraction(0)] * n
        vec[c] = Fraction(1)
        for col, row in pivots.items():
            vec[col] = -rows[row][c]
        basis.append(tuple(vec))
    return basis


def _diagonalize(coeffs, basis):
    """Diagonal coefficients of the form restricted to the span of basis."""
    basis = [tuple(b) for b in basis]
    out = []
    while basis:
        # find a basis vector (or a sum of two) of nonzero length
        w = next((b for b in basis if _polar(coeffs, b, b) != 0), None)
        if w is None:
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    cand = tuple(x + y for x, y in zip(basis[i], basis[j]))
                    if _polar(coeffs, cand, cand) != 0:
                        w = cand
                        break
                if w is not None:
                    break
        if w is None:
            # totally isotropic restriction: impossible for a nondegenerate
            # complement, so reaching this means the caller fed a degenerate
            # form
            raise AssertionError("restriction is totally isotropic")
        length = _polar(coeffs, w, w)
        out.append(length)
        reduced = []
        for b in basis:
            proj = _polar(coeffs, b, w) / length
            nb = tuple(x - proj * y for x, y in zip(b, w))
            if any(nb):
                reduced.append(nb)
        # keep an independent subset: drop one vector (the one that became
        # dependent after projection)
        basis = _independent_subset(reduced, len(basis) - 1)
    return tuple(out)


def _independent_subset(vectors, target):
    kept = []
    rows = []
    for vec in vectors:
        test_rows = rows + [list(vec)]
        if _rank(test_rows) > len(rows):
            rows = test_rows
            kept.append(vec)
        if len(kept) == target:
            break
    assert len(kept) == target
    return kept


def _rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Multiplicative-group brute force


def power_products(values, bound: int):
    """All products prod v_i^{e_i} with |e_i| <= bound, as a set of Fractions."""
    out = {Fraction(1)}
    for v in values:
        v = Fraction(v)
        powers = []
        for e in range(-bound, bound + 1):
            powers.append(v**e)
        out = {p * q for p in out for q in powers}
    return out


def groups_intersect_by_search(values1, values2, bound: int = 8) -> bool:
    """Common element != 1 of the generated groups, by exhaustive exponents
    |e_i| <= bound.  An element is its exponent vector: a sign bit and the
    exponent e_p of each prime p met in the values, the latter packed into
    one integer sum e_p * 2**(32*i) (i the index of p), which adds like the
    vector and is exact while every |e_p| < 2**31."""
    facts1 = [_sign_and_exponents(v) for v in values1]
    facts2 = [_sign_and_exponents(v) for v in values2]
    primes = sorted({p for _, exps in facts1 + facts2 for p in exps})

    def box(facts):
        out = {(0, 0)}
        for sign, exps in facts:
            packed = sum(exps.get(p, 0) << (32 * i) for i, p in enumerate(primes))
            steps = [(e % 2 * sign, e * packed) for e in range(-bound, bound + 1)]
            out = {(g_sign ^ s_sign, g + s) for g_sign, g in out for s_sign, s in steps}
        return out

    common = box(facts1) & box(facts2)
    common.discard((0, 0))
    return bool(common)


def witness_by_power_products(s1, s2):
    """The common element of two rational eigenvalue sets as the former
    intersection_witness built it: the first kernel vector (x, y) of
    [A; -B] with nonzero image, raised out as the power products g1 and g2
    of the values (squared when their signs differ); else -1 when some
    kernel vector has odd sign parity on both parts, else None."""
    from arithgenus.weakcomm import _exponent_rows, _left_kernel

    def power_product(values, exponents):
        out = Fraction(1)
        for v, e in zip(values, exponents):
            out *= v**e
        return out

    support, ((a_rows, a_signs), (b_rows, b_signs)) = _exponent_rows(s1, s2)
    kernel = _left_kernel(a_rows + [[-x for x in row] for row in b_rows])
    r1 = len(a_rows)
    for u in kernel:
        x, y = u[:r1], u[r1:]
        if any(sum(xi * row[j] for xi, row in zip(x, a_rows)) for j in range(len(support))):
            g1, g2 = power_product(s1.values, x), power_product(s2.values, y)
            assert abs(g1) == abs(g2)
            return g1 if g1 == g2 else g1 * g1
    a_odd = any(sum(x * s for x, s in zip(u[:r1], a_signs)) % 2 for u in kernel)
    b_odd = any(sum(y * s for y, s in zip(u[r1:], b_signs)) % 2 for u in kernel)
    return Fraction(-1) if a_odd and b_odd else None


def _sign_and_exponents(q) -> tuple[int, dict[int, int]]:
    """(1 if q < 0 else 0, {p: v_p(q)}) by trial division of the numerator
    and the denominator down to 1."""
    q = Fraction(q)
    exponents: dict[int, int] = {}
    for n, step in ((abs(q.numerator), 1), (q.denominator, -1)):
        p = 2
        while n > 1:
            if p * p > n:
                p = n  # what is left is prime
            while n % p == 0:
                n //= p
                exponents[p] = exponents.get(p, 0) + step
            p += 1
    return int(q < 0), exponents


def dependence_by_search(q1, q2, bound: int = 20):
    q1, q2 = Fraction(q1), Fraction(q2)
    for m in range(1, bound + 1):
        for n in range(1, bound + 1):
            if q1**m == q2**n:
                return (m, n)
    return None


# ---------------------------------------------------------------------------
# Same maximal subfields by comparing index profiles


def same_maximal_subfields(c1, c2) -> bool:
    """Equal global index and equal local index at every place; over Q this
    is equivalent to having identical degree-n splitting fields."""
    from arithgenus.brauer import index_profile

    return index_profile(c1) == index_profile(c2)


# ---------------------------------------------------------------------------
# Genus size by enumeration modulo the lcm of the local orders


def genus_size_by_enumeration(orders: list[int]) -> int:
    """Number of tuples (x_v) in (Q/Z)^len(orders) with x_v of exact order
    orders[v] and zero sum, counted modulo L = lcm of the orders."""
    from itertools import product
    from math import gcd, lcm

    if not orders:
        return 1
    L = 1
    for r in orders:
        L = lcm(L, r)
    choices = []
    for r in orders:
        choices.append([k for k in range(L) if L // gcd(k, L) == r])
    return sum(1 for combo in product(*choices) if sum(combo) % L == 0)


def _mobius_and_totient(n: int) -> tuple[int, int]:
    # by trial division; n is a small local order
    mu, phi, p = 1, n, 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            n //= p
            mu, phi = -mu, phi // p * (p - 1)
            if n % p == 0:
                mu = 0
                while n % p == 0:
                    n //= p
        p += 1
    return mu, phi


def _ramanujan_sum(r: int, k: int) -> int:
    """c_r(k), the sum of exp(2 pi i j k / r) over the j mod r prime to r,
    by Hoelder's formula mu(m) * phi(r) / phi(m) with m = r / gcd(r, k)."""
    from math import gcd

    mu_m, phi_m = _mobius_and_totient(r // gcd(r, k))
    return mu_m * _mobius_and_totient(r)[1] // phi_m


def genus_size_by_ramanujan_sums(orders: list[int]) -> int:
    """The count of ``genus_size_by_enumeration`` in closed form: with
    L = lcm of the orders, (1/L) * sum over k mod L of prod_v c_{r_v}(k), as
    the characters of Z/L sum the indicator of a zero sum."""
    from math import lcm, prod

    modulus = lcm(*orders)
    total = sum(prod(_ramanujan_sum(r, k) for r in orders) for k in range(modulus))
    assert total % modulus == 0
    return total // modulus


# ---------------------------------------------------------------------------
# Closed forms of qforms and genus, recomputed by their former searches


def disc_class_by_product(coeffs: tuple[Fraction, ...]) -> int:
    """The discriminant square class of a form, by factoring the product of
    its coefficients (the former qforms._disc_class)."""
    from math import gcd, prod

    from arithgenus.arith import squarefree_part

    # the product's square class, num * den of the reduced product
    num, den = prod(a.numerator for a in coeffs), prod(a.denominator for a in coeffs)
    common = gcd(num, den)
    return squarefree_part(num * den // (common * common))


def form_invariants_by_pairs(f):
    """Discriminant, Hasse invariants and signature of a form, with the
    discriminant factored from the product of the coefficients and the Hasse
    invariant as the product of all n(n-1)/2 pairwise symbols at each place
    (the former qforms.form_invariants)."""
    from arithgenus.arith import Place, hilbert_symbol, support_places
    from arithgenus.qforms import LocalInvariants

    minus = []
    for v in support_places(*f.coeffs):
        h = 1
        for i in range(f.dim):
            for j in range(i + 1, f.dim):
                h *= hilbert_symbol(f.coeffs[i], f.coeffs[j], v)
        if h == -1:
            minus.append(v)
    minus.sort(key=Place.sort_key)
    positives = sum(1 for a in f.coeffs if a > 0)
    return LocalInvariants(
        f.dim, disc_class_by_product(f.coeffs), tuple(minus), (positives, f.dim - positives)
    )


def witt_index_over_support(f) -> int:
    """The global Witt index as the least local index over support_places:
    2, every prime dividing a coefficient and the real place (the former
    qforms.witt_index_global, which did not stop at primes of odd exponent)."""
    from arithgenus.arith import support_places
    from arithgenus.qforms import witt_index_local

    return min(witt_index_local(f, v) for v in support_places(*f.coeffs))


def twins_over_support(b, c) -> bool:
    """The twins test with the form's Witt index checked over support_places
    (the former qforms.twins)."""
    from arithgenus.arith import support_places
    from arithgenus.qforms import witt_index_local

    return c.algebra.is_trivial() and all(
        witt_index_local(b.form, v) == b.rank for v in support_places(*b.form.coeffs))


def similar_over_support(f, g) -> bool:
    """Similarity by the one factor lam = disc f * disc g, with the Hasse
    invariants compared over support_places of both forms' coefficients
    (the former qforms._forms_similar)."""
    from arithgenus.arith import hilbert_symbol, support_places
    from arithgenus.qforms import form_invariants

    inv_f, inv_g = form_invariants(f), form_invariants(g)
    lam = inv_f.disc * inv_g.disc
    signature = inv_f.signature if lam > 0 else inv_f.signature[::-1]
    twist = (f.dim - 1) // 2
    return signature == inv_g.signature and all(
        inv_f.hasse_at(v) * hilbert_symbol(lam, -1, v) ** twist == inv_g.hasse_at(v)
        for v in support_places(*f.coeffs, *g.coeffs))


def scaled(f, lam):
    """The form lam*f (the former QuadraticForm.scaled)."""
    from arithgenus.qforms import QuadraticForm

    if lam == 0:
        raise ValueError("scaling factor must be nonzero")
    return QuadraticForm(tuple(Fraction(lam) * a for a in f.coeffs))


def similar_by_search(f, g) -> bool:
    """Similarity of two forms of equal odd dimension by trying every factor
    supported on -1, 2 and the odd primes of disc(f)*disc(g)."""
    import itertools

    from arithgenus.arith import support_places
    from arithgenus.qforms import forms_equivalent

    odd_primes = sorted(
        v.prime
        for v in support_places(disc_class_by_product(f.coeffs), disc_class_by_product(g.coeffs))
        if v.prime is not None and v.prime != 2
    )
    generators = [Fraction(-1), Fraction(2)] + [Fraction(p) for p in odd_primes]
    candidates = []
    for bits in itertools.product((0, 1), repeat=len(generators)):
        lam = Fraction(1)
        for b, gen in zip(bits, generators):
            if b:
                lam *= gen
        candidates.append(lam)
    return any(forms_equivalent(scaled(f, lam), g) for lam in candidates)


def _exact_order_values(v, order: int) -> list[Fraction]:
    from math import gcd

    if v.is_real:
        # the only nonzero invariant allowed at the real place
        return [Fraction(1, 2)]
    return [Fraction(k, order) for k in range(1, order) if gcd(k, order) == 1]


def genus_size_by_search_cost(c) -> int:
    """The number of invariant tuples genus_members_by_search tries for c."""
    from math import prod

    return prod(len(_exact_order_values(v, local_index(c, v))) for v in c.support)


def genus_members_by_search(c):
    """The genus of c, sorted by invariants: every tuple of invariants of the
    exact local orders of c, kept when it sums to 0 in Q/Z."""
    import itertools

    from arithgenus.brauer import class_from_invariants

    support = c.support
    orders = [local_index(c, v) for v in support]
    members = []
    for combo in itertools.product(
        *(_exact_order_values(v, r) for v, r in zip(support, orders))
    ):
        if sum(combo, Fraction(0)).denominator == 1:
            members.append(class_from_invariants(dict(zip(support, combo))))
    members.sort(key=lambda m: tuple(value for _, value in m.invariants))
    return tuple(members)


def zero_sum_classes_by_fractions(places, orders):
    """Classes with an invariant of exact order orders[i] at places[i] and
    no other ramification, in product order over the places as given: each
    invariant but the last is chosen, and the zero sum fixes the last.

    The invariants are summed as integer numerators mod L = lcm(orders); the
    last one is looked up from the residue of minus the sum.  Refuses, before
    enumerating, more than MAX_GENUS_COMBINATIONS choices (the product of
    phi(r) over every place but the last).  This is the former genus
    enumeration, which built a BrauerClass per member.
    """
    import itertools
    from math import gcd, lcm, prod

    from arithgenus.brauer import BrauerClass
    from arithgenus.genus import MAX_GENUS_COMBINATIONS, _totient

    if not places:
        return [BrauerClass()]
    combinations = prod(_totient(r) for r in orders[:-1])
    if combinations > MAX_GENUS_COMBINATIONS:
        raise ValueError(f"genus enumeration needs {combinations} combinations, "
                         f"above the limit {MAX_GENUS_COMBINATIONS}")
    modulus = lcm(*orders)

    def values(v, r):
        # (numerator mod L, stored pair) for each invariant k/r of exact order r;
        # a real place has r = 2, so its only value is 1/2
        return [(k * (modulus // r), (v, Fraction(k, r))) for k in range(1, r) if gcd(k, r) == 1]

    chosen = [values(v, r) for v, r in zip(places[:-1], orders)]
    closing = dict(values(places[-1], orders[-1]))
    canonical = sorted(range(len(places)), key=lambda i: places[i].sort_key())
    members = []
    for combo in itertools.product(*chosen):
        last = closing.get(-sum(num for num, _ in combo) % modulus)
        if last is not None:
            pairs = [pair for _, pair in combo]
            pairs.append(last)
            members.append(BrauerClass(tuple(pairs[i] for i in canonical)))
    return members


def twins_by_places(b, c) -> bool:
    """The twins test place by place: both groups split at every finite
    place, and split/split or anisotropic/anisotropic at the real place."""
    from arithgenus.arith import Place, support_places
    from arithgenus.qforms import form_invariants, witt_index_local

    n = b.rank
    finite = {v for v in support_places(*b.form.coeffs) if not v.is_real}
    finite.update(v for v in c.algebra.support if not v.is_real)
    for v in sorted(finite, key=Place.sort_key):
        if witt_index_local(b.form, v) != n:
            return False
        if c.algebra.invariant_at(v):
            return False
    real_witt = min(form_invariants(b.form).signature)
    c_ramified = any(v.is_real for v in c.algebra.support)
    b_split, b_anisotropic = real_witt == n, real_witt == 0
    c_split = not c_ramified and not c.real_definite
    c_anisotropic = c_ramified and c.real_definite
    return (b_split and c_split) or (b_anisotropic and c_anisotropic)


# ---------------------------------------------------------------------------
# Closed forms of spectrum, recomputed by their former searches


def admissible_set_by_local_squares(algebra, bound: int) -> list[int]:
    """The squarefree d in [2, bound] that are a square at no ramified place
    of the quaternion class, each d tested by itself: a local square test
    per place, then a factorization."""
    from arithgenus.arith import is_local_square, is_squarefree

    return [d for d in range(2, bound + 1)
            if all(not is_local_square(d, v) for v in algebra.support) and is_squarefree(d)]


def spectrum_generators_by_sine_product(algebra, bound: int, precision: int = 128):
    """One generator (d, log eta(d)) per admissible d up to the bound, with
    the d tested one by one and eta(d) evaluated as the sine product over the
    discriminant."""
    from mpmath import mp

    from arithgenus.spectrum import SpectrumGenerator

    generators = []
    for d in admissible_set_by_local_squares(algebra, bound):
        eta = eta_by_sine_product(d, precision + 16)
        with mp.workprec(precision):
            generators.append(SpectrumGenerator(d, mp.log(eta)))
    return generators


def length_commensurable_by_admissible_sets(a1, a2, bound: int | None = None) -> bool:
    """Length-commensurability of two quaternionic surfaces decided by
    equality of the admissible-d sets up to the bound."""
    from arithgenus.spectrum import (
        _check_surface_algebra,
        admissible_set,
        default_commensurability_bound,
    )

    _check_surface_algebra(a1)
    _check_surface_algebra(a2)
    if bound is None:
        bound = default_commensurability_bound(a1, a2)
    return admissible_set(a1, bound) == admissible_set(a2, bound)


def eta_by_sine_product(d: int, precision: int = 128):
    """prod_{r=1}^{disc-1} sin(pi*r/disc)^(-chi(r)) where disc is the
    fundamental discriminant of Q(sqrt(d)) and chi(r) is the Kronecker symbol
    (disc/r); characters vanishing at r contribute a factor 1.

    Evaluated as exp(-sum chi(r) log sin(pi r/disc)) with 64 guard bits.
    """
    from mpmath import mp

    from arithgenus.arith import kronecker_symbol
    from arithgenus.quadfield import QuadField, _check_d

    _check_d(d)
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    disc = QuadField(d).fundamental_discriminant
    with mp.workprec(precision + 64):
        log_eta = mp.mpf(0)
        pi_over_disc = mp.pi / disc
        for r in range(1, disc):
            chi = kronecker_symbol(disc, r)
            if chi:
                log_eta -= chi * mp.log(mp.sin(pi_over_disc * r))
        value = mp.exp(log_eta)
    with mp.workprec(precision):
        return +value


# ---------------------------------------------------------------------------
# Global isotropy and Witt index by a recursion on global invariants


@dataclass(frozen=True)
class _GlobalState:
    dim: int
    disc: int
    hasse_minus: frozenset[Place]
    signature: tuple[int, int]


def _global_state(inv: LocalInvariants) -> _GlobalState:
    return _GlobalState(inv.dim, inv.disc, frozenset(inv.hasse_minus), inv.signature)


def _state_places(state: _GlobalState) -> list[Place]:
    from arithgenus.arith import Place, support_places

    places = set(support_places(state.disc))
    places.update(state.hasse_minus)
    return sorted(places, key=Place.sort_key)


def _state_isotropic(state: _GlobalState) -> bool:
    from arithgenus.qforms import _tuple_isotropic_local

    # Hasse-Minkowski from invariants: real place plus every finite place
    # where disc or hasse is nontrivial (the criterion holds automatically
    # elsewhere); dimensions <= 2 reduce to a rational square test
    if state.dim <= 1:
        return False
    if min(state.signature) == 0:
        return False
    if state.dim == 2:
        return state.disc == -1
    if state.dim >= 5:
        return True
    for v in _state_places(state):
        if v.is_real:
            continue
        hasse = -1 if v in state.hasse_minus else 1
        if not _tuple_isotropic_local(state.dim, state.disc, hasse, v):
            return False
    return True


def _state_residual(state: _GlobalState) -> _GlobalState:
    from arithgenus.arith import hilbert_symbol, squarefree_part

    flips = set()
    for v in _state_places(state):
        if hilbert_symbol(-1, -state.disc, v) == -1:
            flips.add(v)
    return _GlobalState(
        state.dim - 2,
        squarefree_part(-state.disc),
        frozenset(state.hasse_minus) ^ flips,
        (state.signature[0] - 1, state.signature[1] - 1),
    )


def isotropic_by_global_states(f) -> bool:
    from arithgenus.qforms import form_invariants

    return _state_isotropic(_global_state(form_invariants(f)))


def witt_index_by_global_states(f) -> int:
    from arithgenus.qforms import form_invariants

    state = _global_state(form_invariants(f))
    index = 0
    while state.dim > 0 and _state_isotropic(state):
        state = _state_residual(state)
        index += 1
    return index


# ---------------------------------------------------------------------------
# Local symbols on p-adic unit parts as Fractions


def _fraction_unit_part(q: Fraction, p: int) -> tuple[int, Fraction]:
    """Write q = p**v * u with u a p-adic unit; returns (v, u)."""
    v = 0
    num, den = abs(q.numerator), q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, q / Fraction(p) ** v


def _fraction_unit_mod(u: Fraction, modulus: int) -> int:
    # u has numerator and denominator coprime to `modulus`
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


def is_local_square_by_fractions(q, v: Place) -> bool:
    """Whether q is a square at v, from its p-adic unit part as a Fraction."""
    from arithgenus.arith import _jacobi

    q = Fraction(q)
    if q == 0:
        raise ValueError("0 is not a unit; square test undefined")
    if v.is_real:
        return q > 0
    p = v.prime
    val, u = _fraction_unit_part(q, p)
    if val % 2:
        return False
    if p == 2:
        return _fraction_unit_mod(u, 8) == 1
    return _jacobi(_fraction_unit_mod(u, p), p) == 1


def hilbert_symbol_by_fractions(a, b, v: Place) -> int:
    """The Hilbert symbol (a,b)_v from Serre's formulas (A Course in
    Arithmetic, ch. III, Theorem 1) on the unit parts as Fractions."""
    from arithgenus.arith import _jacobi

    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if v.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = v.prime
    alpha, u = _fraction_unit_part(a, p)
    beta, w = _fraction_unit_part(b, p)
    if p == 2:
        eps_u = (_fraction_unit_mod(u, 4) - 1) // 2
        eps_w = (_fraction_unit_mod(w, 4) - 1) // 2
        omega_u = 1 if _fraction_unit_mod(u, 8) in (3, 5) else 0
        omega_w = 1 if _fraction_unit_mod(w, 8) in (3, 5) else 0
        e = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if e % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        s = -s
    if beta % 2:
        s *= _jacobi(_fraction_unit_mod(u, p), p)
    if alpha % 2:
        s *= _jacobi(_fraction_unit_mod(w, p), p)
    return s


# ---------------------------------------------------------------------------
# Reference definitions for live local tests


def local_square_class_generators(v: Place) -> tuple[int, ...]:
    """A generating set for the square classes of the completion at v."""
    from arithgenus.arith import _jacobi

    if v.is_real:
        return (-1,)
    p = v.prime
    if p == 2:
        return (-1, 2, 5)
    n_p = 2
    while _jacobi(n_p, p) != -1:
        n_p += 1
    return (p, n_p)


@dataclass(frozen=True)
class LocalDegreeProfile:
    """Local degree data of a number field F of degree n over Q: at each
    listed place v, the degrees [F_w : Q_v] of the completions above v."""

    degree: int
    local_degrees: tuple[tuple[Place, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be positive")
        for place, degrees in self.local_degrees:
            if sum(degrees) != self.degree:
                raise ValueError(f"local degrees at {place} must sum to {self.degree}")
            if place.is_real and any(d not in (1, 2) for d in degrees):
                raise ValueError("real completions have degree 1 or 2")
            if any(d < 1 for d in degrees):
                raise ValueError("local degrees must be positive")

    def degrees_at(self, v: Place) -> tuple[int, ...] | None:
        for place, degrees in self.local_degrees:
            if place == v:
                return degrees
        return None


def quadratic_field_profile(d: int, places: list[Place]) -> LocalDegreeProfile:
    """The degree profile of Q(sqrt(d)) at the given places: [2] where d is
    not a local square, [1, 1] where it splits."""
    from arithgenus.arith import is_local_square, is_squarefree

    if not is_squarefree(d) or d in (0, 1):
        raise ValueError("d must be squarefree and different from 0, 1")
    entries = tuple(
        (v, (1, 1) if is_local_square(d, v) else (2,)) for v in places
    )
    return LocalDegreeProfile(2, entries)


def splits_with_profile(profile: LocalDegreeProfile, c) -> bool:
    """Whether a field with the given local degrees splits c: at every
    ramified place, each completion degree must be divisible by the local
    index."""
    for v in c.support:
        degrees = profile.degrees_at(v)
        if degrees is None:
            raise ValueError(f"profile is missing place {v} in the support of the class")
        r = local_index(c, v)
        if any(deg % r for deg in degrees):
            return False
    return True


# ---------------------------------------------------------------------------
# Former kernels of heavy_math's hot paths: every reduced form in a set, two
# logarithms per enclosure, trial division by every odd d


def positive_reduced_forms(disc: int) -> set[tuple[int, int, int]]:
    """The reduced forms (a, b, c) with a > 0 of the fundamental discriminant
    disc: b^2 - 4ac = disc, 0 < b < sqrt(disc) and
    sqrt(disc) - b < 2|a| < sqrt(disc) + b.  The rest are their (-a, b, -c).

    c obeys the same bounds as a, and |a|*|c| = (disc - b^2)/4, so one of
    |a|, |c| is below sqrt(disc)/2; (a, b, c) -> (-c, b, -a) keeps a form
    reduced.  So every form is (a, b, -c) or (c, b, -a) for an a with
    0 < 2a <= isqrt(disc), whose bounds leave sqrt(disc) - 2a < b < sqrt(disc):
    one b in each class x mod 2a with x^2 = disc mod 4a, and
    c = (disc - b^2)/(4a).  For a = 2^e * m with m odd, x comes by CRT from
    the x mod 2^(e+1) with x^2 = disc mod 2^(e+2), each kept and lifted from
    the last by x -> x, x + 2^e, and the roots mod m: Tonelli-Shanks mod
    each prime p, lifted to p^k (an odd p | disc divides it once, so p^2 has
    no root), and CRT over the primes.
    """
    from arithgenus.quadfield import _odd_roots

    root = isqrt(disc)
    top = root // 2
    # smallest prime factor: the least divisor p > 1 with p^2 <= n, written last
    spf = list(range(top + 1))
    for p in range(isqrt(top), 1, -1):
        spf[p * p::p] = [p] * ((top - p * p) // p + 1)
    two_roots = [[disc % 2]]  # x mod 2^(e+1) with x^2 = disc mod 2^(e+2), 2^e <= top
    while two_roots[-1] and 1 << len(two_roots) <= top:
        power = 1 << len(two_roots)
        two_roots.append([y for x in two_roots[-1] for y in (x, x + power)
                          if (y * y - disc) % (power << 2) == 0])
    odd_roots = {1: [0]}  # x mod m with x^2 = disc mod m, for odd m
    forms = set()
    for m in range(1, top + 1, 2):
        if m > 1:
            odd_roots[m] = _odd_roots(m, spf[m], odd_roots, disc)
        ys = odd_roots[m]
        if not ys:
            continue
        # a = 2^e * m: x = t mod 2^(e+1) and y mod m, with k = 2^-(e+1) mod m
        half = k = (m + 1) // 2
        for e, ts in enumerate(two_roots):
            a = m << e
            if a > top:
                break
            modulus, two_a, four_a = 2 << e, 2 * a, 4 * a
            for t in ts:
                for y in ys:
                    b = root - (root - t - modulus * ((y - t) * k % m)) % two_a
                    c = (disc - b * b) // four_a
                    forms.update(((a, b, -c), (c, b, -a)))
            k = k * half % m
    return forms


def class_numbers_by_form_set(eps) -> tuple[int, int]:
    """(h+, h) for the fundamental unit eps: every cycle of the forms with
    a > 0 under two reduction steps is walked from a form left in the set of
    all of them, removing each form it meets."""
    disc = eps.field.fundamental_discriminant
    remaining = positive_reduced_forms(disc)
    root = isqrt(disc)
    cycles = 0
    while remaining:
        cycles += 1
        # reduction permutes the reduced forms, and a reduced form has ac < 0,
        # so each cycle alternates the sign of a and its forms with a > 0 are
        # one cycle of two steps; a walk from any unvisited form meets only
        # unvisited ones until it is back at its start
        start = remaining.pop()
        _, b, c = start
        while True:
            # (a, b, c) -> (c, b', (b'^2 - disc)/(4c)) with b' = -b mod 2|c|
            # the largest such residue below sqrt(disc), first with c < 0
            b = root - (root + b) % (-2 * c)
            c = (b * b - disc) // (4 * c)
            b = root - (root + b) % (2 * c)
            a, c = c, (b * b - disc) // (4 * c)
            current = (a, b, c)
            if current == start:
                break
            remaining.remove(current)
    if eps.norm == -1:
        return cycles, cycles
    assert cycles % 2 == 0, "narrow class number must be even when N(eps) = +1"
    return cycles, cycles // 2


def rounded_logs_by_two_ends(units, precision: int):
    """2 log u for each unit u > 1, correctly rounded to `precision` bits:
    the logs of the two ends of the integer bracket of u, rounded down and
    up, enclose log u; each end is rounded once to nearest, and the bracket
    widens until both round alike."""
    from mpmath import mp
    from mpmath.libmp import (
        from_man_exp, mpf_log, mpf_pos, mpf_shift, round_ceiling, round_floor, round_nearest,
    )

    from arithgenus.quadfield import _bracket

    logs = []
    for u in units:
        bits = precision + 32
        while True:
            n, k = _bracket(u, bits)  # u in (n, n + 1) * 2^-(k+1)
            lo, hi = (mpf_pos(mpf_log(from_man_exp(end, -k - 1), bits, rounding), precision,
                              round_nearest)
                      for end, rounding in ((n, round_floor), (n + 1, round_ceiling)))
            if lo == hi:
                break
            bits *= 2
        logs.append(mp.make_mpf(mpf_shift(lo, 1)))
    return logs


def factor_by_odd_trial_division(n: int) -> dict[int, int]:
    """Factor n >= 1 into a prime -> exponent map: 2, 3, 5, then every odd
    d from 7 while d^2 <= n and d <= 2**12, then Brent rho as the package
    does it."""
    from arithgenus.arith import _RHO_BUDGET, _TRIAL_BOUND, _brent_rho, _check_size, is_prime

    _check_size(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    if n == 1:
        return factors
    if d * d > n:  # no factor up to its square root: prime
        factors[n] = factors.get(n, 0) + 1
        return factors
    budget = _RHO_BUDGET
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g, c = m, 0
        while not 1 < g < m:
            c += 1
            g, steps = _brent_rho(m, c, budget)
            budget -= steps
        stack.extend((g, m // g))
    return factors
