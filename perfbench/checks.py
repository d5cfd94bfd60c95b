"""Correctness checks on the CLI's replies; they feed ``wrong_reply_frac``.

A reply is wrong when it is missing, is not a JSON object with a boolean
``ok``, has an ``ok`` other than the line expects, or fails a cross-check.
On the default seed every reply must also match, byte for byte, the
reference recorded in ``reference/<workload>.txt`` (as a short hash per
line) for the lines that reference covers; ``CheckResult.compared`` counts
the lines compared with it, and the run reports the lines beyond it.

The cross-checks hold on any seed and need no recording:

* Hilbert product formula over every place of the support of (a, b);
* Brauer invariants sum to 0 mod 1, with consistent local and global index;
* x^2 - d*y^2 = +-1 for ``unit`` (and +1 with ``--norm-one``);
* ``narrow`` is h or 2h;
* ``eta`` equals eps^(2h) at the line's precision, from the ``unit`` and
  ``classnum`` replies for the same d;
* ``genus`` size equals the count of zero-sum invariant tuples;
* ``family`` size equals the count of +-1 tuples summing to 0 mod 3;
* the ``lencomm`` verdict equals equality of the two ramification sets.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from mpmath import mp, mpf

from workloads import DEFAULT_SEED, Line

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class Wrong(Exception):
    pass


def reply_hash(reply: str) -> str:
    return hashlib.blake2b(reply.encode(), digest_size=4).hexdigest()


def lines_digest(lines: list[Line]) -> str:
    h = hashlib.sha256()
    for ln in lines:
        h.update(ln.text.encode() + b"\n")
    return h.hexdigest()


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.txt")


def write_reference(workload: str, lines: list[Line], replies: list[str]) -> None:
    header = {"workload": workload, "seed": DEFAULT_SEED, "lines": len(lines),
              "lines_sha256": lines_digest(lines)}
    with open(reference_path(workload), "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for reply in replies:
            fh.write(reply_hash(reply) + "\n")


def load_reference(workload: str, lines_for) -> list[str]:
    """Reference hashes for the default seed.  ``lines_for(n)`` returns the
    first n generated lines; a reference recorded from other lines is
    refused rather than compared."""
    with open(reference_path(workload)) as fh:
        header = json.loads(fh.readline())
        hashes = [h.strip() for h in fh]
    if header["seed"] != DEFAULT_SEED or len(hashes) != header["lines"]:
        raise ValueError(f"reference for {workload} is malformed")
    if lines_digest(lines_for(header["lines"])) != header["lines_sha256"]:
        raise ValueError(f"reference for {workload} was recorded from other lines; record it again")
    return hashes


@dataclass
class CheckResult:
    attempted: int = 0
    wrong: int = 0
    compared: int = 0  # lines compared with the recorded reference
    reasons: Counter = field(default_factory=Counter)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.wrong += other.wrong
        self.compared += other.compared
        self.reasons.update(other.reasons)

    @property
    def wrong_frac(self) -> float:
        return self.wrong / self.attempted if self.attempted else 0.0


def _class_entries(text: str) -> dict[str, Fraction]:
    entries = {}
    for chunk in filter(None, text.split(",")):
        place, _, value = chunk.partition(":")
        entries[place] = Fraction(value)
    return entries


def _check_brauer(result: dict) -> None:
    entries = _class_entries(result["class"])
    if sum(entries.values(), Fraction(0)).denominator != 1:
        raise Wrong("brauer invariants do not sum to 0 mod 1")
    local = {p: v.denominator for p, v in entries.items()}
    if result["local_index"] != local:
        raise Wrong("brauer local index disagrees with the invariants")
    if result["global_index"] != lcm(1, *local.values()):
        raise Wrong("brauer global index is not the lcm of the local indices")


def _check_unit(line: Line, result: dict) -> tuple[int, Fraction, Fraction]:
    d = int(line.argv[1].split("=", 1)[1])
    x, y = Fraction(result["x"]), Fraction(result["y"])
    norm = x * x - d * y * y
    if result["d"] != d or norm != result["norm"] or norm not in (1, -1):
        raise Wrong("unit does not satisfy x^2 - d*y^2 = +-1")
    if "--norm-one" in line.argv and norm != 1:
        raise Wrong("norm-one unit has norm -1")
    if x <= 0 or y <= 0:
        raise Wrong("unit is not > 1")
    return d, x, y


def _check_one(line: Line, reply: str | None):
    """Check one reply on its own; returns the parsed result for group checks."""
    if reply is None:
        raise Wrong("no reply")
    try:
        obj = json.loads(reply)
    except json.JSONDecodeError:
        raise Wrong("reply is not JSON") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("ok"), bool):
        raise Wrong("reply has no boolean ok")
    if obj["ok"] != line.expect_ok:
        raise Wrong(f"ok is {obj['ok']}, expected {line.expect_ok}")
    if not obj["ok"]:
        if not isinstance(obj.get("error"), str):
            raise Wrong("error reply without an error text")
        return None
    if "result" not in obj:
        raise Wrong("ok reply without a result")
    result = obj["result"]
    kind = line.check[0] if line.check else None
    try:
        if kind == "hilbert_product":
            if result not in (1, -1):
                raise Wrong("hilbert symbol is not +-1")
        elif kind == "brauer":
            _check_brauer(result)
        elif kind == "unit":
            _check_unit(line, result)
        elif kind == "classnum":
            if result["h"] < 1 or result["narrow"] not in (result["h"], 2 * result["h"]):
                raise Wrong("narrow class number is not h or 2h")
        elif kind == "genus":
            if result["size"] != line.check[1] or len(result["members"]) != result["size"]:
                raise Wrong("genus size differs from the zero-sum count")
            if result["base"] != line.argv[1].split("=", 1)[1]:
                raise Wrong("genus base differs from the input class")
        elif kind == "family":
            if result["size"] != line.check[1] or len(result["members"]) != result["size"]:
                raise Wrong("family size differs from the sign-tuple count")
        elif kind == "lencomm":
            if result["length_commensurable"] is not line.check[1]:
                raise Wrong("lencomm verdict differs from ramification-set equality")
        elif kind == "spectrum":
            ds = [g["d"] for g in result]
            if ds != sorted(set(ds)) or any(d < 2 or d > line.check[1] for d in ds):
                raise Wrong("spectrum generators are not increasing d within the bound")
            if any(mpf(g["log_eta"]) <= 0 for g in result):
                raise Wrong("spectrum generator with log eta <= 0")
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise Wrong(f"malformed {kind} result: {exc}") from None
    return result


def _check_eta_group(members: list[tuple[Line, dict]]) -> None:
    unit_line, unit = members[0]
    d, x, y = _check_unit(unit_line, unit)
    h = members[1][1]["h"]
    eta_line, eta = members[2]
    prec = eta_line.check[1]
    # the reply shows 50 significant digits (about 166 bits)
    tolerance = mpf(2) ** -(min(prec, 166) - 12)
    with mp.workprec(prec + 64):
        eps = mpf(x.numerator) / x.denominator + mpf(y.numerator) / y.denominator * mp.sqrt(d)
        algebraic = eps ** (2 * h)
        value = mpf(eta["eta"])
        if abs(value - algebraic) / algebraic > tolerance:
            raise Wrong(f"eta({d}) differs from eps^(2h)")


def _check_group(members: list[tuple[Line, dict]]) -> None:
    kind = members[-1][0].check[0]
    if kind == "hilbert_product":
        product = 1
        for _, result in members:
            product *= result
        if product != 1:
            raise Wrong("Hilbert product formula fails")
    elif kind == "eta":
        _check_eta_group(members)


def check_replies(lines: list[Line], replies: list[str | None], reference: list[str] | None = None) -> CheckResult:
    """Check each reply against its line; ``reference`` holds the recorded
    hashes for the default seed (None on other seeds)."""
    out = CheckResult(attempted=len(lines))
    if reference is not None:
        out.compared = min(len(lines), len(reference))
    wrong = [False] * len(lines)
    replies = list(replies) + [None] * (len(lines) - len(replies))
    groups: dict[int, list[tuple[int, Line, dict]]] = {}
    for i, (line, reply) in enumerate(zip(lines, replies)):
        try:
            result = _check_one(line, reply)
            if reference is not None and i < len(reference) and reply_hash(reply) != reference[i]:
                raise Wrong("reply differs from the recorded reference")
        except Wrong as exc:
            wrong[i] = True
            out.reasons[str(exc)] += 1
            continue
        if line.group is not None:
            groups.setdefault(line.group[0], []).append((i, line, result))
    for members in groups.values():
        if len(members) != members[0][1].group[1]:
            continue  # cut off at the end of the run, or a member already wrong
        try:
            _check_group([(ln, res) for _, ln, res in members])
        except (Wrong, KeyError, TypeError, ValueError) as exc:
            out.reasons[str(exc)] += len(members)
            for i, _, _ in members:
                wrong[i] = True
    out.wrong = sum(wrong)
    return out
