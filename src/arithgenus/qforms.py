"""Quadratic forms over Q and the group data built on them.

Isotropy, Witt indices, equivalence and similarity are decided from the
classifying invariants (dimension, discriminant, Hasse symbols, signature),
read from the square class of each coefficient: a form is refused only when
a coefficient is too large or cannot be factored.  On top of the forms sit
the odd-orthogonal/symplectic group data, the twins test, and the
commensurability verdict for arithmetic triples (group, field tag, places),
whose orthogonal datum is the odd-dimensional form itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from typing import Union

from .arith import (
    REAL_PLACE,
    Place,
    Rational,
    _prime_powers,
    hilbert_symbol,
    is_local_square,
    is_prime,
)
from .brauer import BrauerClass, global_index


@dataclass(frozen=True)
class QuadraticForm:
    """A diagonal form <a_1, ..., a_n> with nonzero rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a form needs at least one coefficient")
        if any(a == 0 for a in self.coeffs):
            raise ValueError("coefficients must be nonzero")

    @classmethod
    def of(cls, *coeffs: Rational) -> "QuadraticForm":
        return cls(tuple(Fraction(a) for a in coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.coeffs)

    @cached_property
    def _invariants(self) -> LocalInvariants:  # form_invariants, once per form object
        odd = [[p for p, e in powers if e % 2] for powers in _prime_powers(self.coeffs)]
        classes = [(1 if a > 0 else -1) * prod(ps) for a, ps in zip(self.coeffs, odd)]
        pairs, disc = [], classes[0]
        for s in classes[1:]:
            pairs.append((disc, s))
            disc = disc * s // gcd(disc, s) ** 2  # squarefree, as disc and s are
        places = (*(Place(p) for p in sorted({2}.union(*odd))), REAL_PLACE)
        minus = tuple(v for v in places if prod(hilbert_symbol(d, s, v) for d, s in pairs) == -1)
        positives = sum(1 for a in self.coeffs if a > 0)
        return LocalInvariants(self.dim, disc, minus, (positives, self.dim - positives), places)


@dataclass(frozen=True)
class LocalInvariants:
    """Classifying data of a form: dimension, discriminant square class,
    the places with Hasse invariant -1, and the real signature, read at
    ``places``: 2, the primes of odd exponent in a coefficient, and the real
    place.  Equality ignores them, as <5,5> and <1,1> list different ones."""

    dim: int
    disc: int
    hasse_minus: tuple[Place, ...]
    signature: tuple[int, int]
    places: tuple[Place, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.signature[0] + self.signature[1] != self.dim:
            raise ValueError("signature must sum to the dimension")

    def hasse_at(self, v: Place) -> int:
        return -1 if v in self.hasse_minus else 1


def form_invariants(f: QuadraticForm) -> LocalInvariants:
    """Discriminant square class, Hasse invariants (nontrivial places only)
    and the real signature, from one factorization of each distinct |a_j|:
    a_j's sign and primes of odd exponent are its square class.  Off 2, the real
    place and those primes the Hasse invariant is +1; at each other place v
    it is the product of the n - 1 symbols (a_1...a_{j-1}, a_j)_v.  Computed once per form."""
    return f._invariants


def _tuple_isotropic_local(n: int, disc: int, hasse: int, v: Place) -> bool:
    # invariant-level local isotropy; callers handle the real place
    if n <= 1:
        return False
    if n == 2:
        return is_local_square(-disc, v)
    if n == 3:
        return hasse == hilbert_symbol(-1, -disc, v)
    if n == 4:
        return (not is_local_square(disc, v)) or hasse == hilbert_symbol(-1, -1, v)
    return True


def is_isotropic_local(f: QuadraticForm, v: Place) -> bool:
    return witt_index_local(f, v) > 0


def witt_index_local(f: QuadraticForm, v: Place) -> int:
    """Number of hyperbolic planes split off over the completion at v,
    by recursion on the residual invariants."""
    return _witt_index(form_invariants(f), v)


def _witt_index(inv: LocalInvariants, v: Place) -> int:
    if v.is_real:
        return min(inv.signature)
    n, disc, hasse = inv.dim, inv.disc, inv.hasse_at(v)
    index = 0
    while n > 0 and _tuple_isotropic_local(n, disc, hasse, v):
        hasse *= hilbert_symbol(-1, -disc, v)
        disc = -disc  # form_invariants keeps disc squarefree
        n -= 2
        index += 1
    return index


def is_isotropic_global(f: QuadraticForm) -> bool:
    return witt_index_global(f) > 0


def witt_index_global(f: QuadraticForm) -> int:
    """Witt index over Q: the least local Witt index (Hasse-Minkowski; Lam,
    Introduction to Quadratic Forms over Fields, ch. VI) over the places of
    its invariants.  At any other prime the form is, up to squares, unimodular
    with Hasse invariant +1, so its local index there is the largest its
    discriminant allows.  A discriminant that lowers it is not a square, so it
    is a non-square at the real place, at 2 or at one of its odd primes, all
    of which have odd exponent in some coefficient."""
    inv = form_invariants(f)
    return min(_witt_index(inv, v) for v in inv.places)


def forms_equivalent(f: QuadraticForm, g: QuadraticForm) -> bool:
    """Q-equivalence: equal dimension, discriminant class, signature and
    Hasse invariants (complete by the Hasse-Minkowski classification)."""
    return form_invariants(f) == form_invariants(g)


def _forms_similar(f: QuadraticForm, g: QuadraticForm) -> bool:
    # for equal odd dimension n, disc(lam*f) = lam*disc(f) mod squares, so
    # lam = disc(f)*disc(g) is the one factor to try (Lam, Introduction to
    # Quadratic Forms over Fields), and bimultiplicativity gives c(lam*f) =
    # c(f) * (lam,-1)^(n(n-1)/2) * (lam,disc f)^(n-1) = c(f) * (lam,-1)^((n-1)/2)
    inv_f, inv_g = form_invariants(f), form_invariants(g)
    lam = inv_f.disc * inv_g.disc
    signature = inv_f.signature if lam > 0 else inv_f.signature[::-1]
    twist = (f.dim - 1) // 2
    # off the places of f and g both Hasse invariants are +1 and lam is a unit
    return signature == inv_g.signature and all(
        inv_f.hasse_at(v) * hilbert_symbol(lam, -1, v) ** twist == inv_g.hasse_at(v)
        for v in {*inv_f.places, *inv_g.places})


# ---------------------------------------------------------------------------
# Group data of types B and C, and the twins test.


@dataclass(frozen=True)
class GroupB:
    """The special orthogonal group of a form of odd dimension 2n+1, n >= 2."""

    form: QuadraticForm

    def __post_init__(self):
        if self.form.dim % 2 == 0 or self.form.dim < 5:
            raise ValueError("a type-B datum needs an odd-dimensional form, dim >= 5")

    @property
    def rank(self) -> int:
        return (self.form.dim - 1) // 2


@dataclass(frozen=True)
class GroupC:
    """A type-C datum: a quaternion class, the rank, and whether the
    hermitian form is definite at the (ramified) real place."""

    algebra: BrauerClass
    rank: int
    real_definite: bool = False

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be at least 2")
        if any(value.denominator > 2 for _, value in self.algebra.invariants):
            raise ValueError("the algebra must have local indices 1 or 2")
        if self.real_definite and not any(v.is_real for v in self.algebra.support):
            raise ValueError("real-definite requires ramification at the real place")


def twins(b: GroupB, c: GroupC) -> bool:
    """Whether the two groups are simultaneously split or simultaneously
    anisotropic at every place of Q.

    Neither type is anisotropic at a finite place, so both must be split
    there.  An anisotropic C side at the real place is ramified there, and
    since invariants sum to 0 it is then ramified at a finite place as well,
    which already fails.  So the pair are twins exactly when the algebra is
    trivial and the form has maximal Witt index at the real place, at 2 and
    at every prime of odd exponent in a coefficient.  At any other prime the
    form of odd dimension is unimodular with Hasse invariant +1, hence split.
    """
    if b.rank != c.rank:
        raise ValueError(f"rank mismatch: B side has rank {b.rank}, C side {c.rank}")
    if not c.algebra.is_trivial():
        return False
    inv = form_invariants(b.form)
    return all(_witt_index(inv, v) == b.rank for v in inv.places)


# ---------------------------------------------------------------------------
# Arithmetic triples and the commensurability verdict.

GroupDatum = Union[QuadraticForm, GroupC, BrauerClass, str]


@dataclass(frozen=True)
class ArithmeticTriple:
    """(group datum, base-field tag, finite place set).

    Over Q the datum is an odd-dimensional form (its special orthogonal
    group), a GroupC, or a quaternion class (its norm-one group).
    Only the tag "Q" supports group arithmetic; any other tag makes the
    group payload opaque and usable solely for tag-inequality verdicts.
    The set S holds finite places (the archimedean place is implicit).
    """

    group: GroupDatum
    field_tag: str = "Q"
    places: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        for p in self.places:
            if not is_prime(p):
                raise ValueError(f"S must contain primes; got {p}")
        if self.field_tag == "Q":
            self._validate_group()
            self._warn_anisotropic_places()

    def _validate_group(self):
        group = self.group
        if isinstance(group, QuadraticForm):
            if group.dim % 2 == 0:
                raise ValueError("orthogonal group data must use odd-dimensional forms")
        elif isinstance(group, BrauerClass):
            if global_index(group) > 2:
                raise ValueError("norm-one group data needs a quaternion class")
        elif isinstance(group, str):
            raise ValueError("opaque group payloads require a non-Q field tag")
        elif not isinstance(group, GroupC):
            raise ValueError(f"unsupported group datum {group!r}")

    def _warn_anisotropic_places(self):
        # S must avoid places where the group is anisotropic: S-arithmetic
        # subgroups cannot detect such places; a form is read by its invariants
        group = self.group
        if self.places and isinstance(group, QuadraticForm):
            group = form_invariants(group)
        for v in map(Place, sorted(self.places)):
            if (_witt_index(group, v) == 0 if isinstance(group, LocalInvariants)
                    else isinstance(group, BrauerClass) and group.invariant_at(v) != 0):
                warnings.warn(f"place {v} in S but the group is anisotropic there; it does "
                              "not change the commensurability class", stacklevel=4)


def _group_kind(group: GroupDatum) -> tuple[str, int]:
    if isinstance(group, QuadraticForm):
        return ("orthogonal", group.dim)
    if isinstance(group, GroupC):
        return ("symplectic", group.rank)
    if isinstance(group, BrauerClass):
        return ("norm-one", 0)
    return ("opaque", 0)


def triple_verdict(t1: ArithmeticTriple, t2: ArithmeticTriple) -> tuple[bool, str | None]:
    """Commensurability of the arithmetic groups described by two triples:
    equal field tags, equal place sets, and Q-isomorphic group data."""
    if t1.field_tag != t2.field_tag:
        return False, f"base fields differ ({t1.field_tag} vs {t2.field_tag})"
    if t1.field_tag != "Q":
        raise ValueError(
            f"group comparison over {t1.field_tag} is not supported (only Q)"
        )
    kind1, kind2 = _group_kind(t1.group), _group_kind(t2.group)
    if kind1[0] != kind2[0]:
        return False, f"group kinds differ ({kind1[0]} vs {kind2[0]})"
    if kind1 != kind2:
        return False, f"group types differ ({kind1[0]} of sizes {kind1[1]} vs {kind2[1]})"
    if kind1[0] == "symplectic":
        raise ValueError(
            "type-C group data does not determine the group up to isomorphism; "
            "the comparison is not supported"
        )
    if t1.places != t2.places:
        return False, "place sets differ"
    if kind1[0] == "norm-one":
        if t1.group == t2.group:
            return True, None
        return False, "quaternion classes differ"
    if _forms_similar(t1.group, t2.group):
        return True, None
    return False, "forms are not similar over Q"
