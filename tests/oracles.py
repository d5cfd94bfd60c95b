"""Independent brute-force oracles used by the tests.

Everything here recomputes results by search or enumeration, staying off the
code paths it is used to check.
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
    """Common element != 1 of the generated groups, by exhaustive exponents."""
    g1 = power_products(values1, bound)
    g2 = power_products(values2, bound)
    common = g1 & g2
    common.discard(Fraction(1))
    return bool(common)


def dependence_by_search(q1, q2, bound: int = 20):
    q1, q2 = Fraction(q1), Fraction(q2)
    for m in range(1, bound + 1):
        for n in range(1, bound + 1):
            if q1**m == q2**n:
                return (m, n)
    return None


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


# ---------------------------------------------------------------------------
# Closed forms of qforms and genus, recomputed by their former searches


def similar_by_search(f, g) -> bool:
    """Similarity of two forms of equal odd dimension by trying every factor
    supported on -1, 2 and the odd primes of disc(f)*disc(g)."""
    import itertools

    from arithgenus.arith import support_places
    from arithgenus.qforms import _disc_class, forms_equivalent

    odd_primes = sorted(
        v.prime
        for v in support_places(_disc_class(f.coeffs), _disc_class(g.coeffs))
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
    return any(forms_equivalent(f.scaled(lam), g) for lam in candidates)


def _exact_order_values(v, order: int) -> list[Fraction]:
    from math import gcd

    if v.is_real:
        # the only nonzero invariant allowed at the real place
        return [Fraction(1, 2)]
    return [Fraction(k, order) for k in range(1, order) if gcd(k, order) == 1]


def genus_members_by_search(c):
    """The genus of c, sorted by invariants: every tuple of invariants of the
    exact local orders of c, kept when it sums to 0 in Q/Z."""
    import itertools

    from arithgenus.brauer import class_from_invariants

    support = c.support
    orders = [c.local_index(v) for v in support]
    members = []
    for combo in itertools.product(
        *(_exact_order_values(v, r) for v, r in zip(support, orders))
    ):
        if sum(combo, Fraction(0)).denominator == 1:
            members.append(class_from_invariants(dict(zip(support, combo))))
    members.sort(key=lambda m: tuple(value for _, value in m.invariants))
    return tuple(members)


def twins_by_places(b, c) -> bool:
    """The twins test place by place: both groups split at every finite
    place, and split/split or anisotropic/anisotropic at the real place."""
    from arithgenus.arith import Place
    from arithgenus.qforms import _relevant_places, form_invariants, witt_index_local

    n = b.rank
    finite = {v for v in _relevant_places(b.form) if not v.is_real}
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


def spectrum_generators_by_sine_product(algebra, bound: int, precision: int = 128):
    """One generator (d, log eta(d)) per admissible d up to the bound, with
    eta(d) evaluated as the sine product over the discriminant."""
    from mpmath import mp

    from arithgenus.spectrum import SpectrumGenerator, admissible_set

    generators = []
    for d in admissible_set(algebra, bound):
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
    from arithgenus.quadfield import _GUARD_BITS, DEFAULT_MAX_D, QuadField, _check_d

    _check_d(d, DEFAULT_MAX_D)
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")
    disc = QuadField(d).fundamental_discriminant
    with mp.workprec(precision + _GUARD_BITS):
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
