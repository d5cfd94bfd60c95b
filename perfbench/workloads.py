"""Seeded generator of the benchmark's command lines.

Every workload is an endless stream of ``Line`` objects built from a seed.
The stream is cut into fixed blocks whose composition never changes; the
seed picks the numbers inside each command and the order inside each block.
For the expensive commands the parameter that sets the cost (a discriminant,
a bound, a prime size) is spread evenly over its range by ``Draw.level``, so
two seeds get the same cost mix from different inputs.

The generator never calls the package under test: expected answers used by
the cross-checks (genus and family sizes, length-commensurability verdicts)
are computed here from the inputs alone.

Option values that may start with ``-`` are always passed as ``--opt=value``:
argparse reads a separate ``-3,4,5`` as an unknown option.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator

WORKLOADS = ("batch_mix", "heavy_math")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Line:
    """One command: the exact batch text sent and what its reply must satisfy.

    ``argv`` is None only for deliberately malformed batch lines, which have
    no argv.  ``check`` names a cross-check and carries its expected data;
    ``group`` ties lines whose replies are checked together, as
    ``(group id, number of lines in the group)``.
    """

    text: str
    argv: tuple[str, ...] | None
    expect_ok: bool
    check: tuple = ()
    group: tuple[int, int] | None = None
    block: int = 0

    @property
    def verb(self) -> str:
        if self.argv is None:
            return "malformed"
        return self.argv[0] if self.argv else "none"


def _line(argv: list[str], check: tuple = (), expect_ok: bool = True) -> Line:
    return Line(json.dumps({"argv": argv}), tuple(argv), expect_ok, check)


# ---------------------------------------------------------------------------
# Small exact helpers (independent of the package under test)


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


PRIMES = _primes_below(1100)


def is_prime(n: int) -> bool:
    """Trial division; exact for n < 1100**2."""
    if n < 2:
        return False
    for p in PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    raise ValueError(f"{n} is beyond the trial-division range")


def is_squarefree(n: int) -> bool:
    n = abs(n)
    for p in PRIMES:
        if p * p > n:
            return n != 0
        if n % (p * p) == 0:
            return False
    raise ValueError(f"{n} is beyond the trial-division range")


def fundamental_discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def _exact_order_values(order: int, real: bool) -> list[Fraction]:
    if real:
        return [Fraction(1, 2)]
    return [Fraction(k, order) for k in range(1, order) if gcd(k, order) == 1]


def genus_size(orders: list[tuple[str, int]]) -> int:
    """Number of invariant tuples of the given exact local orders summing to
    0 mod 1 (the genus of a Brauer class over Q)."""
    modulus = lcm(*(r for _, r in orders))
    counts = Counter({0: 1})
    for place, r in orders:
        nxt: Counter = Counter()
        for value in _exact_order_values(r, place == "inf"):
            step = value.numerator * (modulus // value.denominator)
            for s, c in counts.items():
                nxt[(s + step) % modulus] += c
        counts = nxt
    return counts[0]


def genus_combinations(orders: list[tuple[str, int]]) -> int:
    """Product of the candidate counts per place that a search visits."""
    total = 1
    for place, r in orders:
        total *= len(_exact_order_values(r, place == "inf"))
    return total


def family_size(k: int) -> int:
    """Number of +-1 sign tuples of length k summing to 0 mod 3."""
    return sum(1 for s in itertools.product((1, -1), repeat=k) if sum(s) % 3 == 0)


def _place_key(place: str) -> tuple[int, int]:
    return (1, 0) if place == "inf" else (0, int(place))


def class_text(entries: dict[str, Fraction]) -> str:
    """Canonical class string: places ascending, the real place last."""
    items = sorted(((p, v) for p, v in entries.items() if v % 1), key=lambda kv: _place_key(kv[0]))
    return ",".join(f"{p}:{v % 1}" for p, v in items)


# ---------------------------------------------------------------------------
# Input pieces


class Draw(random.Random):
    """A seeded random source that can also spread a cost parameter evenly.

    ``level(key)`` walks a golden-ratio sequence from a seeded start, one
    sequence per key, so any n draws cover [0, 1) about evenly whatever the
    seed; ``turn(key, options)`` picks options in the same even way.
    """

    def __init__(self, seed: str):
        super().__init__(seed)
        self._walks: dict[str, tuple[float, int]] = {}

    def level(self, key: str) -> float:
        start, n = self._walks.get(key) or (self.random(), 0)
        self._walks[key] = (start, n + 1)
        return (start + n * 0.6180339887498949) % 1.0

    def turn(self, key: str, options):
        return options[int(self.level(key) * len(options))]


def _squarefree_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        d = rng.randrange(lo, hi + 1)
        if d > 1 and is_squarefree(d):
            return d


def _squarefree_from(start: int) -> int:
    d = start
    while not is_squarefree(d):
        d += 1
    return d


def _d_from_disc(target: int) -> int:
    """The squarefree d > 1 with the smallest fundamental discriminant >= target."""
    t = target
    while True:
        if t % 4 == 1 and is_squarefree(t):
            return t
        if t % 4 == 0 and (t // 4) % 4 in (2, 3) and is_squarefree(t // 4):
            return t // 4
        t += 1


def _d_with_disc(rng: random.Random, lo: int, hi: int) -> int:
    """Squarefree d > 1 whose fundamental discriminant lies in [lo, hi]."""
    while True:
        disc_target = rng.randrange(lo, hi + 1)
        d = disc_target if rng.random() < 0.5 else disc_target // 4
        if d > 1 and is_squarefree(d) and lo <= fundamental_discriminant(d) <= hi:
            return d


def _rational(rng: random.Random, primes: list[int], allow_fraction: bool = True) -> Fraction:
    num = 1
    for _ in range(rng.randint(1, 3)):
        num *= rng.choice(primes)
    if rng.random() < 0.3:
        num *= rng.choice(primes) ** 2
    value = Fraction(num)
    if allow_fraction and rng.random() < 0.25:
        value /= rng.choice(primes)
    if value == 1:
        return _rational(rng, primes, allow_fraction)  # +-1 is torsion: no weakcomm data
    return -value if rng.random() < 0.4 else value


def _random_class(rng: random.Random, index: int, places: int, prime_pool: list[int]) -> dict[str, Fraction]:
    """A class of exact global index ``index`` ramified at ``places`` places
    (rounded down to an even count for quaternion classes)."""
    if index == 2:
        places = max(2, places - places % 2)
    while True:
        chosen = [str(p) for p in rng.sample(prime_pool, places)]
        if index == 2 and rng.random() < 0.3:
            chosen[-1] = "inf"
        values = [Fraction(rng.randrange(1, index), index) for _ in chosen[:-1]]
        last = -sum(values, Fraction(0)) % 1
        if last == 0 or (chosen[-1] == "inf" and last != Fraction(1, 2)):
            continue
        values.append(last)
        if lcm(*(v.denominator for v in values)) == index:
            return dict(zip(chosen, values))


def _orders(entries: dict[str, Fraction]) -> list[tuple[str, int]]:
    return [(p, v.denominator) for p, v in entries.items()]


def _quaternion(rng: random.Random, prime_pool: list[int], real_split: bool = True) -> list[str]:
    """Ramification set of a quaternion division algebra (an even number of
    places)."""
    count = rng.choice((2, 2, 4))
    chosen = sorted(rng.sample(prime_pool, count))
    places = [str(p) for p in chosen]
    if not real_split and rng.random() < 0.5:
        places[-1] = "inf"
    return places


def _quat_text(places: list[str]) -> str:
    return class_text({p: Fraction(1, 2) for p in places})


def _form(rng: random.Random, dim: int, primes: list[int]) -> list[Fraction]:
    return [_rational(rng, primes, allow_fraction=rng.random() < 0.3) for _ in range(dim)]


def _form_text(coeffs: list[Fraction]) -> str:
    return ",".join(str(c) for c in coeffs)


def _odd_disc_primes(*forms: list[Fraction]) -> set[int]:
    primes = set()
    for coeffs in forms:
        prod = Fraction(1)
        for c in coeffs:
            prod *= c
        n = abs(prod.numerator * prod.denominator)
        for p in PRIMES[1:]:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                primes.add(p)
    return primes


SMALL = PRIMES[:8]  # 2 .. 19
MEDIUM = [p for p in PRIMES if p < 60]


# ---------------------------------------------------------------------------
# Commands.  Each returns a list of lines (a group when more than one).


def hilbert_one(rng):
    a = rng.randint(-2000, 2000) or 7
    b = _rational(rng, SMALL, allow_fraction=False) if rng.random() < 0.5 else rng.randint(-500, 500) or 3
    if rng.random() < 0.2:
        a = Fraction(abs(a), rng.choice(SMALL))  # positive fractions only: '-3/4' parses as an option
    v = rng.choice(["inf", "2", str(rng.choice(MEDIUM))])
    return [_line(["hilbert", str(a), str(b), v])]


def hilbert_product(rng):
    """(a,b)_v over every place of the support: the product must be 1."""
    a = int(_rational(rng, SMALL, allow_fraction=False))
    b = int(_rational(rng, SMALL, allow_fraction=False))
    support = {2} | {p for p in SMALL if a % p == 0 or b % p == 0}
    places = [str(p) for p in sorted(support)] + ["inf"]
    return [_line(["hilbert", str(a), str(b), v], ("hilbert_product",)) for v in places]


def brauer_cmd(rng):
    if rng.random() < 0.4:
        a, b = rng.randint(-60, 60) or 5, rng.randint(-60, 60) or -1
        argv = ["brauer", f"--quaternion={a},{b}"]
    else:
        cls = _random_class(rng, rng.choice((2, 3, 4, 6)), rng.randint(2, 4), MEDIUM)
        argv = ["brauer", f"--algebra={class_text(cls)}"]
    if rng.random() < 0.4:
        argv.append(f"--add={class_text(_random_class(rng, rng.choice((2, 3)), 2, SMALL))}")
    if rng.random() < 0.3:
        argv.append("--neg")
    return [_line(argv, ("brauer",))]


def brauer_semiprime(rng):
    """b = p*q with p, q ~20-bit primes: trial division runs up to the
    smaller one, spread evenly over 2**19..2**20."""
    p = _prime_in(rng, (1 << 19) + int(rng.level("semiprime") * (1 << 19)), 1 << 20)
    q = _prime_in(rng, p, 1 << 20)
    a = rng.choice((-1, 2, 3, -3, 5, 7, -7, 11))
    return [_line(["brauer", f"--quaternion={a},{p * q}"], ("brauer",))]


def _prime_in(rng, lo, hi):
    """A prime in [lo, hi), drawn near lo."""
    while True:
        n = rng.randrange(lo, min(hi, lo + 2000)) | 1
        if is_prime(n):
            return n


def genus_cmd(rng, index_places=((2, 4), (3, 3), (4, 3), (3, 4), (6, 3))):
    index, places = rng.choice(index_places)
    cls = _random_class(rng, index, places, MEDIUM)
    orders = _orders(cls)
    return [_line(["genus", f"--algebra={class_text(cls)}"],
                  ("genus", genus_size(orders), genus_combinations(orders)))]


def genus_heavy(rng):
    return genus_cmd(rng, (rng.turn("genus", ((5, 5), (5, 6), (7, 5))),))


def family_cmd(rng, sizes=(2, 3, 4, 5, 6)):
    k = rng.choice(sizes)
    primes = sorted(rng.sample(PRIMES[:40], k))
    return [_line(["family", "--primes=" + ",".join(map(str, primes))], ("family", family_size(k)))]


def family_heavy(rng):
    return family_cmd(rng, (rng.turn("family", (10, 11, 12)),))


def unit_cmd(rng):
    argv = ["unit", f"--d={_squarefree_in(rng, 2, 10_000)}"]
    if rng.random() < 0.3:
        argv.append("--norm-one")
    return [_line(argv, ("unit",))]


def classnum_cmd(rng):
    return [_line(["classnum", f"--d={_squarefree_in(rng, 2, 10_000)}"], ("classnum",))]


def eta_group(rng):
    """unit, classnum and eta for one d: eta must equal eps^(2h)."""
    return _eta_lines(_d_with_disc(rng, 5, 400), rng.choice((None, 128)))


def eta_heavy(rng, prec):
    """Fundamental discriminant spread evenly over 5e3..2.5e4."""
    return _eta_lines(_d_from_disc(5000 + int(rng.level(f"eta{prec}") * 20000)), prec)


def _eta_lines(d, prec):
    eta = ["eta", f"--d={d}"] + ([f"--prec={prec}"] if prec else [])
    return [
        _line(["unit", f"--d={d}"], ("unit",)),
        _line(["classnum", f"--d={d}"], ("classnum",)),
        _line(eta, ("eta", prec or 192)),
    ]


def spectrum_cmd(rng):
    algebra = _quat_text(_quaternion(rng, SMALL[:6]))
    bound = rng.randint(10, 40)
    return _spectrum_line(rng, algebra, bound)


def spectrum_heavy(rng):
    """Two ramified primes; the bound spread evenly over 100..300."""
    algebra = _quat_text([str(p) for p in sorted(rng.sample(SMALL[:6], 2))])
    return _spectrum_line(rng, algebra, 100 + int(rng.level("spectrum") * 200))


def _spectrum_line(rng, algebra, bound):
    argv = ["spectrum", f"--algebra={algebra}", f"--bound={bound}"]
    if rng.random() < 0.3:
        argv.append("--prec=128")
    return [_line(argv, ("spectrum", bound))]


def lencomm_cmd(rng):
    a1 = _quaternion(rng, SMALL[:6])
    a2 = list(a1) if rng.random() < 0.4 else _quaternion(rng, SMALL[:6])
    return [_line(["lencomm", f"--algebra1={_quat_text(a1)}", f"--algebra2={_quat_text(a2)}"],
                  ("lencomm", set(a1) == set(a2)))]


def lencomm_heavy(rng):
    """Two real-split quaternion algebras whose largest ramified prime is
    50..100, so the default bound p**2 is 2500..10000."""
    top = rng.turn("lencomm", [p for p in PRIMES if 50 < p < 100])
    a1 = sorted([rng.choice(SMALL), top])
    if rng.turn("lencomm_equal", (True, False)):
        a2 = list(a1)
    else:
        a2 = sorted([rng.choice(SMALL), rng.choice([p for p in PRIMES if 20 < p <= top])])
    if len(set(a1)) < 2 or len(set(a2)) < 2:
        return lencomm_heavy(rng)
    t1, t2 = _quat_text([str(p) for p in a1]), _quat_text([str(p) for p in a2])
    return [_line(["lencomm", f"--algebra1={t1}", f"--algebra2={t2}"], ("lencomm", set(a1) == set(a2)))]


def weakcomm_cmd(rng, lo=1, hi=4):
    def values():
        return ",".join(str(_rational(rng, MEDIUM[:10])) for _ in range(rng.randint(lo, hi)))
    return [_line(["weakcomm", f"--set1={values()}", f"--set2={values()}"], ("weakcomm",))]


def weakcomm_heavy(rng):
    return weakcomm_cmd(rng, 6, 10)


def classnum_or_unit_heavy(rng):
    """d spread evenly over 5e5..1e6."""
    d = _squarefree_from(500_000 + int(rng.level("classnum_unit") * 500_000))
    if rng.turn("classnum_or_unit", ("classnum", "unit")) == "unit":
        return [_line(["unit", f"--d={d}"], ("unit",))]
    return [_line(["classnum", f"--d={d}"], ("classnum",))]


def form_cmd(rng):
    argv = ["form", f"--form={_form_text(_form(rng, rng.randint(2, 5), SMALL))}"]
    if rng.random() < 0.4:
        argv.append(f"--place={rng.choice(['inf', '2', '3', '5', '7'])}")
    return [_line(argv, ("form",))]


def twins_cmd(rng):
    places = _quaternion(rng, SMALL, real_split=False)
    argv = ["twins", f"--form={_form_text(_form(rng, 5, SMALL))}", f"--algebra={_quat_text(places)}"]
    if "inf" in places and rng.random() < 0.5:
        argv.append("--real-definite")
    return [_line(argv, ("twins",))]


def _triple_side(rng, kind: str, places: list[int]) -> str:
    if kind == "form":
        text = f"form={_form_text(_form(rng, 3, SMALL[:5]))}"
    elif kind == "quat":
        text = f"quat={rng.randint(-20, 20) or 3},{rng.randint(-20, 20) or -1}"
    else:
        text = f"algebra={_quat_text(_quaternion(rng, SMALL[:5], real_split=False))}"
    if places:
        text += ";S=" + ",".join(map(str, places))
    return text


def triple_cmd(rng):
    places = sorted(rng.sample([3, 5, 7, 11, 13], rng.randint(0, 2)))
    kinds = ["form", "form", "quat", "algebra"]
    k1 = rng.choice(kinds)
    k2 = k1 if rng.random() < 0.7 else rng.choice(kinds)
    s1 = _triple_side(rng, k1, places)
    s2 = _triple_side(rng, k2, places if rng.random() < 0.8 else [])
    if rng.random() < 0.1:
        s1 = "K=Q(sqrt2);" + s1  # differing base fields: answered without group data
    return [_line(["triple", f"--triple1={s1}", f"--triple2={s2}"], ("triple",))]


def triple_heavy(rng):
    """5-dim forms: the similarity search tries 2**(2+k) scalings, k the odd
    primes of the two discriminants, taking 5 and 6 in turn.  One pair in
    four is similar, which ends the search early."""
    pool = [3, 5, 7, 11, 13, 17]
    k = rng.turn("triple_k", (5, 6))
    similar = rng.turn("triple_similar", (True, False, False, False))
    while True:
        f = _form(rng, 5, pool)
        if similar:
            lam = _rational(rng, pool[:3], allow_fraction=False)
            g = [c * lam * rng.choice((1, 4, 9)) for c in f]
            rng.shuffle(g)
        else:
            g = _form(rng, 5, pool)
        if len(_odd_disc_primes(f) | _odd_disc_primes(g)) == k:
            break
    return [_line(["triple", f"--triple1=form={_form_text(f)}", f"--triple2=form={_form_text(g)}"], ("triple",))]


def weyl_cmd(rng):
    return [_line(["weyl", f"--dim={rng.randint(1, 8)}", f"--volume={rng.uniform(0.5, 50):.4f}",
                   f"--lam={rng.uniform(0, 40):.3f}"], ("weyl",))]


# Deliberately malformed lines: each must get {"ok":false,...}.
def error_line(rng):
    n = rng.randint(2, 999)
    p = rng.choice(MEDIUM)
    choices = [
        lambda: Line('{"argv": ["hilbert", "%d", ' % n, None, False),
        lambda: Line(json.dumps({"args": ["hilbert", str(n), "3", "5"]}), None, False),
        lambda: Line(json.dumps({"argv": f"unit --d={n}"}), None, False),
        lambda: _line(["frobnicate", f"--d={n}"], expect_ok=False),
        lambda: _line(["hilbert", str(n), str(p)], expect_ok=False),
        lambda: _line(["hilbert", "0", str(n), str(p)], expect_ok=False),
        lambda: _line(["hilbert", str(n), str(p), str(p * p)], expect_ok=False),
        lambda: _line(["unit", f"--d={n * p * p}"], expect_ok=False),
        lambda: _line(["genus", f"--algebra={p}:1/3"], expect_ok=False),
        lambda: _line(["spectrum", "--algebra=2:1/2,3:1/2", f"--bound={rng.randint(-5, 1)}"], expect_ok=False),
        lambda: _line(["eta", f"--d={_squarefree_in(rng, 2, 500)}", f"--prec={rng.randint(8, 63)}"], expect_ok=False),
        lambda: _line(["form", f"--form=1,0,{n}"], expect_ok=False),
        lambda: _line(["weyl", "--dim=0", f"--volume={n}", "--lam=2"], expect_ok=False),
        lambda: _line(["brauer", f"--algebra=2:1/2,{p}:1/2", f"--quaternion={n},3"], expect_ok=False),
        lambda: _line(["family", f"--primes=2,{n * 2},{p}"], expect_ok=False),
        lambda: _line(["twins", f"--form=1,{n},3,5", "--algebra=2:1/2,3:1/2"], expect_ok=False),
        lambda: _line(["weakcomm", "--set1=-1,1", f"--set2={n}"], expect_ok=False),
    ]
    return [rng.choice(choices)()]


# ---------------------------------------------------------------------------
# Workload blocks

_BLOCKS = {
    # About 26 lines (hilbert_product sends one line per place of the
    # support), 2 of them malformed (7.7%); all 14 verbs.
    "batch_mix": [hilbert_one, hilbert_one, hilbert_product, brauer_cmd, brauer_cmd, genus_cmd,
                  family_cmd, unit_cmd, eta_group, classnum_cmd, spectrum_cmd, lencomm_cmd,
                  weakcomm_cmd, form_cmd, form_cmd, twins_cmd, triple_cmd, triple_cmd, weyl_cmd,
                  error_line, error_line],
    # 10 expensive commands plus the unit and classnum lines (for the same
    # d) that the eta cross-check needs: 14 lines.
    "heavy_math": [lambda rng: eta_heavy(rng, 128), lambda rng: eta_heavy(rng, 384),
                   spectrum_heavy, lencomm_heavy, genus_heavy, family_heavy,
                   classnum_or_unit_heavy, brauer_semiprime, triple_heavy, weakcomm_heavy],
}


def generate(workload: str, seed: int) -> Iterator[Line]:
    """The endless line stream of a workload; the same seed gives the same
    lines."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = Draw(f"{workload}/{seed}")
    group_id = 0
    for block_id in itertools.count():
        block = list(_BLOCKS[workload])
        rng.shuffle(block)
        for make in block:
            lines = make(rng)
            group = None
            if len(lines) > 1:
                group = (group_id, len(lines))
                group_id += 1
            for ln in lines:
                yield replace(ln, group=group, block=block_id)


def take(workload: str, seed: int, n: int) -> list[Line]:
    return list(itertools.islice(generate(workload, seed), n))


def mix_stats(lines: list[Line]) -> dict:
    """Verb mix, share of malformed lines and share of repeated argv."""
    seen: set[str] = set()
    repeats = 0
    for ln in lines:
        if ln.text in seen:
            repeats += 1
        seen.add(ln.text)
    n = max(len(lines), 1)
    verbs = Counter(ln.verb for ln in lines)
    return {
        "lines": len(lines),
        "verb_mix": {v: round(c / n, 4) for v, c in sorted(verbs.items())},
        "error_share": round(sum(not ln.expect_ok for ln in lines) / n, 4),
        "repeat_share": round(repeats / n, 4),
    }
