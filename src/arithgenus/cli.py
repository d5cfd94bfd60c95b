"""Command-line front end: one deterministic JSON report per command.

Each verb is declared once, by decorating its handler with
``_verb(name, help, *options, build=...)``.  An option is
``_opt(*flags, dest=, type=, required=, switch=, help=)`` and nothing else:
one positional name, or long ``--flags`` that take a value or, as a
``switch``, none.  argparse's ``add_argument`` calls are made from these, in
order, so argparse's texts follow the order of verbs and options here.
``build`` turns the parsed namespace into ``Command.args`` and raises
``UsageError`` on bad input (so does a library ``ValueError``); the handler
gets ``Command.args`` as keyword arguments and returns the JSON-ready
result.  An ``args["prec"]`` is echoed in the report.

The direct parser reads each verb's flags, positionals, defaults, required
set and types, gathered when the verb is registered.  It accepts a line only
where argparse surely builds the same namespace: exact option names as
``--name=value`` or ``--name value``, switches, and positionals (negative
numbers included).  Every other line (an abbreviation, a repeated or unknown
option, a separate value that starts with "-", help, a missing option, a
failed type) goes to the argparse tree, built once per process when first
needed, which stays the only source of usage-error and help text.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .arith import Place, hilbert_symbol, parse_rational


class _Library:
    # Stands in for a library module, so that a start-up imports only arith
    # (all that `hilbert` needs).  The first attribute read on a stand-in
    # imports its module (with what that module imports), so a one-shot call
    # loads only what its verb reads; in a --batch stream it imports all six
    # as one group, since loaded one by one amid the stream's lines they
    # raised its peak RSS.  The read rebinds these globals to the real
    # modules: later lookups are plain module lookups, which a rebound library
    # function (as a tracer makes) reaches.
    group = False  # set by _run_batch

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attr: str):
        for name in _LIBRARY if _Library.group else (self.name,):
            globals()[name] = importlib.import_module(f".{name}", __package__)
        return getattr(globals()[self.name], attr)


_LIBRARY = ("brauer", "genus", "quadfield", "spectrum", "weakcomm", "qforms")
brauer, genus, quadfield, spectrum, weakcomm, qforms = map(_Library, _LIBRARY)

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
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational {text!r}: {exc}") from None


def _class(text: str) -> brauer.BrauerClass:
    try:
        return brauer.parse_class(text)
    except ValueError as exc:
        raise UsageError(f"malformed class {text!r}: {exc}") from None


def _form(text: str) -> qforms.QuadraticForm:
    try:
        return qforms.QuadraticForm.of(*(parse_rational(c) for c in text.split(",")))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed form {text!r}: {exc}") from None


def _quad_field(value: int) -> quadfield.QuadField:
    # the one squarefree test of d; the library takes the built field as is
    try:
        return quadfield.QuadField(value)
    except ValueError:
        raise UsageError(f"d must be a squarefree integer > 1, got {value}") from None


def _bound(value: int | None) -> int | None:
    if value is not None and value < 2:
        raise UsageError("bound must be at least 2")
    return value


def _rational_set(text: str) -> weakcomm.RationalEigenvalues:
    # an empty or zero-containing set raises ValueError, a usage error in parse
    return weakcomm.RationalEigenvalues(
        tuple(_rational(chunk) for chunk in text.split(",") if chunk.strip()))


def _parse_triple(text: str) -> Callable[[], qforms.ArithmeticTriple]:
    # returns a function making the triple, so that a quat= class is built when the
    # command runs and a factoring limit there is a domain error
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
        a_text, _, b_text = fields["quat"].partition(",")
        quaternion = _quaternion(a_text, b_text)
        # S is checked now, on the trivial class, which no place makes anisotropic
        qforms.ArithmeticTriple(brauer.BrauerClass(), tag, places)
        return lambda: qforms.ArithmeticTriple(
            brauer.class_from_quaternion(*quaternion), tag, places)
    else:
        raise UsageError("triple needs form=, algebra= or quat=")
    triple = qforms.ArithmeticTriple(group, tag, places)
    return lambda: triple


def _quaternion(a_text: str, b_text: str) -> tuple[Fraction, Fraction]:
    quaternion = (_rational(a_text), _rational(b_text))
    if 0 in quaternion:
        raise UsageError("cannot factor 0")
    return quaternion


def _prec_bits(flag_value: int | None) -> int:
    # one range for --prec and ARITHGENUS_PREC_BITS; only the wording differs
    bits, name, unit = flag_value, "precision", " bits"
    if bits is None:
        env = os.environ.get("ARITHGENUS_PREC_BITS")
        if env is None:
            return DEFAULT_PREC_BITS
        try:
            bits, name, unit = int(env), "ARITHGENUS_PREC_BITS", ""
        except ValueError:
            raise UsageError(f"ARITHGENUS_PREC_BITS={env!r} is not an integer") from None
    if bits < 64:
        raise UsageError(f"{name} must be at least 64{unit}")
    if bits > quadfield.MAX_PREC_BITS:
        raise UsageError(f"{name} must be at most {quadfield.MAX_PREC_BITS}{unit}")
    return bits


def _decimal(value) -> str:
    from mpmath import mp  # imported where a real value is made, not at start-up

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


class _Option(NamedTuple):
    flags: tuple[str, ...]  # empty for a positional
    dest: str
    type: Callable[[str], Any] | None
    required: bool
    switch: bool  # a flag that takes no value
    help: str | None


def _opt(*flags: str, dest: str | None = None, type: Callable[[str], Any] | None = None,
         required: bool = False, switch: bool = False, help: str | None = None) -> _Option:
    if not flags[0].startswith("-"):
        if len(flags) > 1 or dest or required or switch:
            raise ValueError(f"positional {flags[0]!r} takes only type= and help=")
        return _Option((), flags[0], type, False, False, help)
    if not all(f.startswith("--") and len(f) > 2 and "=" not in f for f in flags) or switch and type:
        raise ValueError(f"{flags}: options are long flags, and a switch has no type")
    return _Option(flags, dest or flags[0][2:].replace("-", "_"), type, required, switch, help)


@dataclass(frozen=True)
class _Verb:
    help: str
    options: tuple[_Option, ...]
    build: Callable[[argparse.Namespace], dict[str, Any]]
    run: Callable[..., Any]
    # what the direct parser reads, gathered once when the verb is registered
    positionals: tuple[str, ...]  # dests, in order
    flags: dict[str, tuple[str, bool]]  # flag: (dest, whether it takes a value)
    defaults: dict[str, Any]
    required: frozenset[str]
    types: dict[str, Callable[[str], Any]]  # dest: type


_VERBS: dict[str, _Verb] = {}


def _verb(name: str, help: str, *options: _Option, build):
    def register(run):
        named = [o for o in options if o.flags]
        _VERBS[name] = _Verb(
            help, options, build, run, tuple(o.dest for o in options if not o.flags),
            {flag: (o.dest, not o.switch) for o in named for flag in o.flags},
            {o.dest: False if o.switch else None for o in named},
            frozenset(o.dest for o in named if o.required),
            {o.dest: o.type for o in options if o.type is not None})
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
    quaternion = None
    if ns.quaternion is not None:
        a_text, sep, b_text = ns.quaternion.partition(",")
        if not sep:
            raise UsageError("--quaternion expects 'a,b'")
        quaternion = _quaternion(a_text, b_text)
    return {"algebra": _class(ns.algebra) if quaternion is None else None,
            "quaternion": quaternion, "add": _class(ns.add) if ns.add is not None else None,
            "neg": ns.neg}


@_verb("brauer", "inspect or combine Brauer classes",
       _opt("--algebra", help="class string, e.g. 2:1/3,3:1/3,5:1/3"),
       _opt("--quaternion", help="a,b for the quaternion class (a,b)"),
       _opt("--add", help="class string to add"),
       _opt("--neg", switch=True, help="negate (opposite algebra)"), build=_brauer_args)
def _brauer(algebra, quaternion, add, neg):
    # the quaternion class is built here, so a factoring limit is a domain error
    base = algebra if quaternion is None else brauer.class_from_quaternion(*quaternion)
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
    family = genus.epsilon_family(primes)
    return {"primes": list(primes), "size": family.size, "members": family.texts()}


@_verb("unit", "fundamental unit of Q(sqrt(d))", _D_OPT,
       _opt("--norm-one", switch=True, help="smallest unit of norm +1"),
       build=lambda ns: {"field": _quad_field(ns.d), "norm_one": ns.norm_one})
def _unit(field, norm_one):
    u = quadfield.norm_one_unit(field) if norm_one else quadfield.fundamental_unit(field)
    return {"d": field.d, "x": str(u.x), "y": str(u.y), "norm": u.norm, "text": str(u)}


@_verb("eta", "analytic unit eta(d) = eps(d)^(2h)", _D_OPT, _PREC_OPT,
       build=lambda ns: {"field": _quad_field(ns.d), "prec": _prec_bits(ns.prec)})
def _eta(field, prec):
    return {"d": field.d, "eta": _decimal(quadfield.eta_analytic(field, prec))}


@_verb("classnum", "class number of Q(sqrt(d))", _D_OPT,
       build=lambda ns: {"field": _quad_field(ns.d)})
def _classnum(field):
    data = quadfield.class_number(field)
    return {"d": field.d, "h": data.class_number, "narrow": data.narrow_class_number}


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
       _opt("--algebra", required=True), _opt("--real-definite", switch=True),
       build=_twins_args)
def _twins(b, algebra, real_definite):
    return {"twins": qforms.twins(b, qforms.GroupC(algebra, b.rank, real_definite))}


@_verb("triple", "commensurability of arithmetic triples",
       _opt("--triple1", required=True), _opt("--triple2", required=True),
       build=lambda ns: {"t1": _parse_triple(ns.triple1), "t2": _parse_triple(ns.triple2)})
def _triple(t1, t2):
    verdict, reason = qforms.triple_verdict(t1(), t2())
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
    parser = _Parser(prog="arithgenus", description=(
        "Exact arithmetic over Q for commensurability of arithmetic groups; each command "
        "prints one JSON report. Exit codes: 0 on success, 1 on a domain error, 2 on a usage "
        "error. ARITHGENUS_PREC_BITS sets the default working precision in bits. With --batch, "
        'each stdin line {"argv": [...]} gets one reply line, and a bad line never stops the '
        "stream."))
    parser.add_argument("--batch", action="store_true", help="read {'argv': [...]} JSON lines from stdin")
    sub = parser.add_subparsers(dest="verb")
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for o in verb.options:
            if not o.flags:
                p.add_argument(o.dest, type=o.type, help=o.help)
            else:
                kind = {"action": "store_true"} if o.switch else {"type": o.type}
                p.add_argument(*o.flags, dest=o.dest, required=o.required, help=o.help, **kind)
    return parser


# ---------------------------------------------------------------------------
# The direct parser; it returns None ("undecided") where argparse must parse.
# argparse's own test for a token that is a negative number, not an option:
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _parse_direct(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse builds from argv, or None where it might
    differ: an abbreviation, a repeated or unknown option, a separate option
    value that starts with "-", "-h", "--" (also as "--name=--"), a missing
    required option, a wrong positional count or a failed type conversion."""
    if argv == ["--batch"]:
        return argparse.Namespace(batch=True, verb=None)
    verb = _VERBS.get(argv[0]) if argv else None
    if verb is None:
        return None
    values: dict[str, Any] = {"batch": False, "verb": argv[0], **verb.defaults}
    given: set[str] = set()
    positional: list[str] = []
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        if not token.startswith("-") or _NEGATIVE_NUMBER.match(token):
            positional.append(token)
            continue
        flag, eq, value = token.partition("=")
        dest, takes_value = verb.flags.get(flag, (None, False))
        # unknown, abbreviated, repeated, a flag given a value, or "--name=--",
        # which argparse reads as []
        if dest is None or dest in given or eq and not takes_value or value == "--":
            return None
        given.add(dest)
        if not takes_value:
            values[dest] = True
            continue
        if not eq:
            if i == end or argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
        values[dest] = value
    if len(positional) != len(verb.positionals) or not verb.required <= given:
        return None
    values.update(zip(verb.positionals, positional))
    try:
        for dest, convert in verb.types.items():
            if values[dest] is not None:
                values[dest] = convert(values[dest])
    except (TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


def parse(argv: list[str], *, batch_line: bool = False) -> Command:
    """Validate argv into a Command; raises UsageError on any bad input.  In
    a batch line argparse may not print: its help is a usage error there."""
    ns = _parse_direct(argv)
    if ns is None:
        try:
            # argparse prints help to stdout and exits; stdout carries only
            # replies in a batch
            with contextlib.redirect_stdout(io.StringIO()) if batch_line else contextlib.nullcontext():
                ns = _parser().parse_args(argv)
        except SystemExit:
            if not batch_line:
                raise
            raise UsageError("help is not available in --batch") from None
        if any(isinstance(value, list) for value in vars(ns).values()):
            raise UsageError("'--' is not an option value")  # argparse reads "--name=--" as []
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
    _Library.group = True
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            argv = json.loads(line)["argv"]
        except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
            # RecursionError: JSON nested too deeply to decode
            report = Report(ok=False, error=f"bad batch line: {exc}")
        else:
            report = _batch_reply(argv)
        print(report.to_json(), file=out)
    return 0


def _batch_reply(argv) -> Report:
    try:
        if not isinstance(argv, list) or not all(isinstance(x, str) for x in argv):
            raise UsageError("'argv' must be a list of strings")
        cmd = parse(argv, batch_line=True)
        if cmd.verb == "batch":
            raise UsageError("--batch cannot be nested")
        return execute(cmd)
    except UsageError as exc:
        return Report(ok=False, error=f"usage: {exc}")
    except Exception as exc:  # a fault of the program, not of the line: the stream goes on
        return Report(ok=False, error=f"internal error: {type(exc).__name__}: {exc}")


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
