"""Command-line front end: one deterministic JSON report per command.

Each verb is declared once, by decorating its handler with
``_verb(name, help, *options, build=...)``.  The ``_opt`` options go to
argparse's ``add_argument`` in order; argparse's error texts follow the order
of verbs and options in this file.  ``build`` turns the parsed namespace into
``Command.args`` and raises ``UsageError`` on bad input (so does a library
``ValueError``).  The handler gets ``Command.args`` as keyword arguments and
returns the JSON-ready result; an ``args["prec"]`` is echoed in the report.
The argparse tree is built once per process.

Exit codes: 0 on success, 1 on a domain error, 2 on a usage error.  The env
var ARITHGENUS_PREC_BITS overrides the default working precision; display
output uses 50 significant digits.  ``--batch`` reads one command object per
line from stdin ({"argv": [...]}) and never lets one bad line abort the stream.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from mpmath import mp

from . import brauer, genus, qforms, quadfield, spectrum, weakcomm
from .arith import Place, hilbert_symbol, is_squarefree

DISPLAY_DIGITS = 50
DEFAULT_PREC_BITS = 192


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of exiting so parse() is testable
        raise UsageError(message)


@dataclass(frozen=True)
class Command:
    verb: str
    args: dict[str, Any]


@dataclass(frozen=True)
class Report:
    ok: bool
    result: Any = None
    error: str | None = None
    prec: int | None = None

    def to_json(self) -> str:
        payload: dict[str, Any] = {"ok": self.ok}
        if self.prec is not None:
            payload["prec"] = self.prec
        if self.ok:
            payload["result"] = self.result
        else:
            payload["error"] = self.error
        return json.dumps(payload, separators=(",", ":"))


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational {text!r}: {exc}") from None


def _class(text: str) -> brauer.BrauerClass:
    try:
        return brauer.parse_class(text)
    except ValueError as exc:
        raise UsageError(f"malformed class {text!r}: {exc}") from None


def _form(text: str) -> qforms.QuadraticForm:
    try:
        return qforms.QuadraticForm.of(*(Fraction(c) for c in text.split(",")))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed form {text!r}: {exc}") from None


def _squarefree_d(value: int) -> int:
    if value <= 1 or not is_squarefree(value):
        raise UsageError(f"d must be a squarefree integer > 1, got {value}")
    return value


def _bound(value: int | None) -> int | None:
    if value is not None and value < 2:
        raise UsageError("bound must be at least 2")
    return value


def _rational_set(text: str) -> weakcomm.RationalEigenvalues:
    values = [_rational(chunk) for chunk in text.split(",") if chunk.strip()]
    if not values:
        raise UsageError("eigenvalue set must be nonempty")
    if any(v == 0 for v in values):
        raise UsageError("eigenvalues must be nonzero")
    return weakcomm.RationalEigenvalues(tuple(values))


def _parse_triple(text: str) -> qforms.ArithmeticTriple:
    fields: dict[str, str] = {}
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise UsageError(f"malformed triple component {chunk!r}")
        fields[key.strip()] = value.strip()
    tag = fields.get("K", "Q")
    s_text = fields.get("S", "")
    try:
        places = frozenset(int(p) for p in s_text.split(",") if p.strip())
    except ValueError:
        raise UsageError(f"malformed place set {s_text!r}") from None
    group: qforms.GroupDatum
    if tag != "Q":
        group = fields.get("form") or fields.get("algebra") or fields.get("group", "")
    elif "form" in fields:
        group = _form(fields["form"])
    elif "algebra" in fields:
        group = _class(fields["algebra"])
    elif "quat" in fields:
        a, _, b = fields["quat"].partition(",")
        group = brauer.class_from_quaternion(_rational(a), _rational(b))
    else:
        raise UsageError("triple needs form=, algebra= or quat=")
    return qforms.ArithmeticTriple(group, tag, places)


def _prec_bits(flag_value: int | None) -> int:
    if flag_value is not None:
        if flag_value < 64:
            raise UsageError("precision must be at least 64 bits")
        return flag_value
    env = os.environ.get("ARITHGENUS_PREC_BITS")
    if env is not None:
        try:
            bits = int(env)
        except ValueError:
            raise UsageError(f"ARITHGENUS_PREC_BITS={env!r} is not an integer") from None
        if bits < 64:
            raise UsageError("ARITHGENUS_PREC_BITS must be at least 64")
        return bits
    return DEFAULT_PREC_BITS


def _decimal(value) -> str:
    return mp.nstr(value, DISPLAY_DIGITS)


def _class_report(c: brauer.BrauerClass) -> dict[str, Any]:
    local, glob = brauer.index_profile(c)
    return {
        "class": str(c),
        "local_index": {str(v): r for v, r in local.items()},
        "global_index": glob,
    }


# ---------------------------------------------------------------------------
# The verb table.  Builders validate in the same order as the checks they
# replace, so that a line with several faults keeps its error text.  Handlers
# look library functions up when called instead of storing them in the table,
# so that rebinding a library name (as a tracer does) reaches every call.


@dataclass(frozen=True)
class _Verb:
    help: str
    options: tuple[tuple[tuple[str, ...], dict[str, Any]], ...]
    build: Callable[[argparse.Namespace], dict[str, Any]]
    run: Callable[..., Any]


_VERBS: dict[str, _Verb] = {}


def _opt(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, kwargs


def _verb(name: str, help: str, *options, build):
    def register(run):
        _VERBS[name] = _Verb(help, options, build, run)
        return run

    return register


_D_OPT = _opt("--d", type=int, required=True)
_PREC_OPT = _opt("--prec", type=int)


def _hilbert_args(ns) -> dict[str, Any]:
    args = {"a": _rational(ns.a), "b": _rational(ns.b), "v": Place.parse(ns.v)}
    if args["a"] == 0 or args["b"] == 0:
        raise UsageError("hilbert symbol arguments must be nonzero")
    return args


@_verb("hilbert", "Hilbert symbol (a,b) at a place", _opt("a"), _opt("b"), _opt("v"),
       build=_hilbert_args)
def _hilbert(a, b, v):
    return hilbert_symbol(a, b, v)


def _brauer_args(ns) -> dict[str, Any]:
    if (ns.algebra is None) == (ns.quaternion is None):
        raise UsageError("give exactly one of --algebra or --quaternion")
    if ns.quaternion is not None:
        a_text, sep, b_text = ns.quaternion.partition(",")
        if not sep:
            raise UsageError("--quaternion expects 'a,b'")
        base = brauer.class_from_quaternion(_rational(a_text), _rational(b_text))
    else:
        base = _class(ns.algebra)
    return {"base": base, "add": _class(ns.add) if ns.add is not None else None, "neg": ns.neg}


@_verb("brauer", "inspect or combine Brauer classes",
       _opt("--algebra", help="class string, e.g. 2:1/3,3:1/3,5:1/3"),
       _opt("--quaternion", help="a,b for the quaternion class (a,b)"),
       _opt("--add", help="class string to add"),
       _opt("--neg", action="store_true", help="negate (opposite algebra)"), build=_brauer_args)
def _brauer(base, add, neg):
    if add is not None:
        base = brauer.class_add(base, add)
    if neg:
        base = brauer.class_neg(base)
    return _class_report(base)


@_verb("genus", "enumerate the genus of a class", _opt("--algebra", required=True),
       build=lambda ns: {"algebra": _class(ns.algebra)})
def _genus(algebra):
    return genus.genus_report(genus.genus_enumerate(algebra))


def _family_args(ns) -> dict[str, Any]:
    try:
        return {"primes": tuple(int(p) for p in ns.primes.split(","))}
    except ValueError:
        raise UsageError(f"malformed prime list {ns.primes!r}") from None


@_verb("family", "cubic classes ramified at given primes",
       _opt("--primes", required=True, help="comma-separated primes"), build=_family_args)
def _family(primes):
    members = genus.epsilon_family(primes)
    return {"primes": list(primes), "size": len(members), "members": [str(m) for m in members]}


@_verb("unit", "fundamental unit of Q(sqrt(d))", _D_OPT,
       _opt("--norm-one", action="store_true", help="smallest unit of norm +1"),
       build=lambda ns: {"d": _squarefree_d(ns.d), "norm_one": ns.norm_one})
def _unit(d, norm_one):
    u = quadfield.norm_one_unit(d) if norm_one else quadfield.fundamental_unit(d)
    return {"d": d, "x": str(u.x), "y": str(u.y), "norm": u.norm, "text": str(u)}


@_verb("eta", "analytic unit eta(d) = eps(d)^(2h)", _D_OPT, _PREC_OPT,
       build=lambda ns: {"d": _squarefree_d(ns.d), "prec": _prec_bits(ns.prec)})
def _eta(d, prec):
    return {"d": d, "eta": _decimal(quadfield.eta_analytic(d, prec))}


@_verb("classnum", "class number of Q(sqrt(d))", _D_OPT,
       build=lambda ns: {"d": _squarefree_d(ns.d)})
def _classnum(d):
    data = quadfield.class_number(d)
    return {"d": d, "h": data.class_number, "narrow": data.narrow_class_number}


@_verb("spectrum", "rational length spectrum generators", _opt("--algebra", required=True),
       _opt("--bound", type=int, required=True), _PREC_OPT,
       build=lambda ns: {"bound": _bound(ns.bound), "algebra": _class(ns.algebra),
                         "prec": _prec_bits(ns.prec)})
def _spectrum(algebra, bound, prec):
    gens = spectrum.spectrum_generators(algebra, bound, prec)
    return [{"d": g.d, "log_eta": _decimal(g.log_eta)} for g in gens]


@_verb("lencomm", "length-commensurability of two surfaces", _opt("--algebra1", required=True),
       _opt("--algebra2", required=True), _opt("--bound", type=int),
       build=lambda ns: {"bound": _bound(ns.bound), "a1": _class(ns.algebra1),
                         "a2": _class(ns.algebra2)})
def _lencomm(a1, a2, bound):
    # the verdict needs no bound; it is validated and echoed to keep the reply shape
    if bound is None:
        bound = spectrum.default_commensurability_bound(a1, a2)
    return {"length_commensurable": spectrum.length_commensurable(a1, a2), "bound": bound}


@_verb("weakcomm", "weak commensurability of eigenvalue sets",
       _opt("--set1", required=True), _opt("--set2", required=True),
       build=lambda ns: {"s1": _rational_set(ns.set1), "s2": _rational_set(ns.set2)})
def _weakcomm(s1, s2):
    weakcomm.refuse_torsion(s1, s2)
    witness = weakcomm.intersection_witness(s1, s2)
    if witness is None or witness == -1:  # -1 is shared, but is torsion
        return {"weakly_commensurable": False}
    return {"weakly_commensurable": True, "witness": str(witness)}


@_verb("form", "invariants and isotropy of a form",
       _opt("--form", required=True, dest="form_text"), _opt("--place"),
       build=lambda ns: {"form": _form(ns.form_text),
                         "place": Place.parse(ns.place) if ns.place else None})
def _inspect_form(form, place):
    if place is not None:
        witt = qforms.witt_index_local(form, place)
        return {"place": str(place), "isotropic": witt > 0, "witt": witt}
    inv = qforms.form_invariants(form)
    witt = qforms.witt_index_global(form)
    return {
        "dim": inv.dim,
        "disc": inv.disc,
        "signature": list(inv.signature),
        "hasse_minus_places": [str(v) for v in inv.hasse_minus],
        "isotropic_global": witt > 0,
        "witt_global": witt,
    }


def _twins_args(ns) -> dict[str, Any]:
    form = _form(ns.form_text)
    if form.dim % 2 == 0 or form.dim < 5:
        raise UsageError("twins needs an odd-dimensional form of dim >= 5")
    return {"b": qforms.GroupB(form), "algebra": _class(ns.algebra),
            "real_definite": ns.real_definite}


@_verb("twins", "twins test for a B/C pair", _opt("--form", required=True, dest="form_text"),
       _opt("--algebra", required=True), _opt("--real-definite", action="store_true"),
       build=_twins_args)
def _twins(b, algebra, real_definite):
    return {"twins": qforms.twins(b, qforms.GroupC(algebra, b.rank, real_definite))}


@_verb("triple", "commensurability of arithmetic triples",
       _opt("--triple1", required=True), _opt("--triple2", required=True),
       build=lambda ns: {"t1": _parse_triple(ns.triple1), "t2": _parse_triple(ns.triple2)})
def _triple(t1, t2):
    verdict, reason = qforms.triple_verdict(t1, t2)
    result: dict[str, Any] = {"commensurable": verdict}
    if reason is not None:
        result["reason"] = reason
    return result


def _weyl_args(ns) -> dict[str, Any]:
    if ns.dim < 1 or ns.volume <= 0 or ns.lam < 0:
        raise UsageError("weyl needs dim >= 1, volume > 0, lambda >= 0")
    if not (math.isfinite(ns.volume) and math.isfinite(ns.lam)):
        raise UsageError("weyl needs a finite volume and lambda")
    return {"query": spectrum.WeylQuery(ns.dim, ns.volume, ns.lam)}


@_verb("weyl", "Weyl-law main term", _opt("--dim", type=int, required=True),
       _opt("--volume", type=float, required=True),
       _opt("--lam", "--lambda", type=float, required=True, dest="lam"), build=_weyl_args)
def _weyl(query):
    return spectrum.weyl_main_term(query)


@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="arithgenus", description=__doc__)
    parser.add_argument("--batch", action="store_true", help="read {'argv': [...]} JSON lines from stdin")
    sub = parser.add_subparsers(dest="verb")
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for flags, kwargs in verb.options:
            p.add_argument(*flags, **kwargs)
    return parser


def parse(argv: list[str]) -> Command:
    """Validate argv into a Command; raises UsageError on any bad input."""
    ns = _parser().parse_args(argv)
    if ns.batch:
        return Command("batch", {})
    if ns.verb is None:
        raise UsageError("a subcommand is required (or --batch)")
    try:
        return Command(ns.verb, _VERBS[ns.verb].build(ns))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def execute(cmd: Command) -> Report:
    """Run a validated command; library errors become Report errors."""
    try:
        result = _VERBS[cmd.verb].run(**cmd.args)
    except (ValueError, RuntimeError, ZeroDivisionError, OverflowError) as exc:
        return Report(ok=False, error=str(exc))
    return Report(True, result, prec=cmd.args.get("prec"))


def _run_batch(stream, out) -> int:
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            argv = obj["argv"]
            if not isinstance(argv, list) or not all(isinstance(x, str) for x in argv):
                raise UsageError("'argv' must be a list of strings")
            try:
                # argparse prints help to stdout and exits; stdout carries
                # only replies here
                with contextlib.redirect_stdout(io.StringIO()):
                    cmd = parse(argv)
            except SystemExit:
                raise UsageError("help is not available in --batch") from None
            if cmd.verb == "batch":
                raise UsageError("--batch cannot be nested")
            report = execute(cmd)
        except UsageError as exc:
            report = Report(ok=False, error=f"usage: {exc}")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            report = Report(ok=False, error=f"bad batch line: {exc}")
        print(report.to_json(), file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else argv
    try:
        cmd = parse(argv)
    except UsageError as exc:
        print(Report(ok=False, error=f"usage: {exc}").to_json(), file=sys.stderr)
        return 2
    if cmd.verb == "batch":
        return _run_batch(sys.stdin, sys.stdout)
    report = execute(cmd)
    print(report.to_json())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
