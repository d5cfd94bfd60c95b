"""The direct parser of batch lines against argparse.

``cli._parse_direct`` may only accept a line when argparse builds the same
namespace from it; every other line is left to argparse (``None``).  Both
parsers are made from the same ``_opt`` declarations.  The properties fuzz
argv built from the real verb table: well-formed lines, then
abbreviations, repeats, separate values, negative numbers, values that start
with "-", missing values, "-h", "--" and unknown tokens spliced in."""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithgenus import cli
from arithgenus.cli import _opt

# Values by option type; each pool mixes good values with ones that fail the
# type, start with "-" or look like negative numbers to argparse.
VALUES = {
    None: ["3", "2:1/2,3:1/2", "1,1,-3", "form=1,1,-3;K=Q;S=", "", "a=b", " 7 ", "inf",
           "-3", "-3/4", "-1.5", "-.5", "-1e5", "-", "--", "-h", "-x"],
    int: ["5", "0", "79", " 12 ", "1_000", "٣", "x", "", "1.5", "-3", "-٣", "--1"],
    float: ["1", "2.5", "1e3", "nan", "inf", "x", "", "-1", "-.5", "-1e3"],
}
SPECIALS = ["-h", "--help", "--", "--batch", "-", "--unknown", "-x", "--=x", "-1", "-3/4",
            "-1.5", "-.5", "-1e5", "frobnicate", ""]


def _flags(verbs):
    return sorted({flag for name in verbs for o in cli._VERBS[name].options for flag in o.flags})


@st.composite
def argvs(draw, verbs):
    """A well-formed line of one of ``verbs`` (every required option, some of
    the others, each value in either form), then up to three edits."""
    verb = draw(st.sampled_from(verbs))
    positionals, options = [], []
    for o in cli._VERBS[verb].options:
        values = st.sampled_from(VALUES[o.type])
        if not o.flags:
            positionals.append([draw(values)])
        elif o.required or draw(st.booleans()):
            flag = draw(st.sampled_from(o.flags))
            if o.switch:
                options.append([flag])
            elif draw(st.booleans()):
                options.append([f"{flag}={draw(values)}"])
            else:
                options.append([flag, draw(values)])
    tokens = [t for item in positionals + draw(st.permutations(options)) for t in item]
    flags = _flags(cli._VERBS)
    noise = st.one_of(
        st.sampled_from(SPECIALS),
        st.sampled_from(flags),  # another verb's option, or a value left out
        st.builds(lambda f, k: f[:k], st.sampled_from(flags), st.integers(3, 7)),  # abbreviation
        st.builds(lambda f, v: f"{f}={v}", st.sampled_from(flags), st.sampled_from(VALUES[None])),
        st.sampled_from(VALUES[int] + VALUES[None]),
    )
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "repeat", "drop", "verb"]))
        if edit == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(noise))
        elif edit == "repeat" and tokens:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(tokens)))
        elif edit == "drop" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif edit == "verb":
            verb = draw(st.sampled_from(["--batch", "-h", "frobnicate", verb[:3], ""]))
    return [verb, *tokens] if verb else tokens


def _shown(ns):
    # repr, so that a nan from --volume=nan compares equal to itself
    return {key: (type(value), repr(value)) for key, value in vars(ns).items()}


def assert_agrees(argv):
    """Wherever the direct parser accepts, argparse accepts and agrees."""
    direct = cli._parse_direct(argv)
    if direct is None:
        return False
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        reference = cli._parser().parse_args(argv)  # a usage error or exit fails here
    assert printed.getvalue() == ""
    assert _shown(direct) == _shown(reference), argv
    return True


@settings(max_examples=1000)
@given(argvs(list(cli._VERBS)))
def test_direct_parser_agrees_with_argparse(argv):
    assert_agrees(argv)


def test_negative_number_test_is_argparses():
    # the direct parser copies argparse's pattern; a Python whose argparse
    # reads negative numbers otherwise must fail here first
    assert cli._NEGATIVE_NUMBER.pattern == argparse.ArgumentParser()._negative_number_matcher.pattern


@contextlib.contextmanager
def extra_verb(name, *options):
    """The verb table with one more verb, and argparse built anew."""
    cli._verb(name, "test verb", *options, build=lambda ns: {})(lambda: None)
    cli._parser.cache_clear()
    try:
        yield
    finally:
        del cli._VERBS[name]
        cli._parser.cache_clear()


def test_positionals_among_options_agree_with_argparse():
    # no verb of the table mixes positionals and options, or has a required
    # store_true; this one does
    with extra_verb("mixed", _opt("n", type=int), _opt("--flag", switch=True, required=True),
                    _opt("--x-y", "--xy", dest="xy"), _opt("word"), _opt("--f", type=float)):
        accepted = []

        @settings(max_examples=300)
        @given(argvs(["mixed"]))
        def check(argv):
            accepted.append(assert_agrees(argv))

        check()
        assert any(accepted)
        assert cli._parse_direct(["mixed", "5", "--flag", "w", "--x-y=-2"]) == cli._parser().parse_args(
            ["mixed", "5", "--flag", "w", "--x-y=-2"])


@pytest.mark.parametrize("option", [
    (("--n",), {"type": int, "choices": [1, 2]}, TypeError),
    (("--n",), {"nargs": "?"}, TypeError),
    (("--n",), {"default": "7"}, TypeError),
    (("--n",), {"action": "count"}, TypeError),
    (("--n",), {"action": "store_const", "const": 3}, TypeError),
    (("-n",), {"type": int}, ValueError),
    (("n",), {"nargs": "*"}, TypeError),
])
def test_unmodelled_option_is_refused(option):
    # an option has only the terms both parsers read, so none is declared
    # that only argparse would understand
    flags, kwargs, error = option
    with pytest.raises(error):
        _opt(*flags, **kwargs)


@pytest.mark.parametrize("flags,kwargs", [
    (("--n", "-n"), {}), (("--",), {}), (("--n=1",), {}), (("--n", "-"), {}),
    (("--n",), {"switch": True, "type": int}),
    (("n", "m"), {}), (("n",), {"dest": "m"}), (("n",), {"required": True}),
    (("n",), {"switch": True}),
])
def test_option_outside_the_grammar_is_refused(flags, kwargs):
    # a short flag, an "=" in a flag, a typed switch, or a positional with
    # option terms
    with pytest.raises(ValueError):
        _opt(*flags, **kwargs)


WELL_FORMED = [
    ["hilbert", "-1", "3", "3"],
    ["hilbert", "-3", "-.5", "inf"],
    ["brauer", "--algebra=2:1/3,3:1/3,5:1/3", "--add", "2:1/3,7:2/3", "--neg"],
    ["brauer", "--quaternion=-1,3"],
    ["genus", "--algebra", "2:1/3,3:1/3,5:1/3"],
    ["family", "--primes", "2,3,5,7"],
    ["unit", "--d", "13", "--norm-one"],
    ["eta", "--d=5", "--prec", "128"],
    ["classnum", "--d", "79"],
    ["spectrum", "--algebra", "2:1/2,3:1/2", "--bound", "30"],
    ["lencomm", "--algebra1", "2:1/2,3:1/2", "--algebra2=2:1/2,7:1/2"],
    ["weakcomm", "--set1", "6,10", "--set2", "3/5,7"],
    ["form", "--form=-3,4,5", "--place", "3"],
    ["twins", "--form", "1,-1,1,-1,1,-1,1", "--algebra", "", "--real-definite"],
    ["triple", "--triple1", "form=1,1,-3;K=Q;S=", "--triple2", "form=1,2,-7;K=Q;S="],
    ["weyl", "--dim", "2", "--volume", "12.5", "--lambda", "1"],
    ["--batch"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=[argv[0] for argv in WELL_FORMED])
def test_well_formed_lines_skip_argparse(argv):
    assert assert_agrees(argv)
    cli._parser.cache_clear()
    cli.parse(argv)
    assert cli._parser.cache_info().misses == 0  # argparse was not built


@pytest.mark.parametrize("argv", [
    ["genus", "--alg", "2:1/2,3:1/2"],              # abbreviation
    ["eta", "--d", "5", "--d", "7"],                # repeat
    ["weyl", "--dim=2", "--volume=1", "--lam=1", "--lambda=2"],  # one option, two names
    ["form", "--form", "-3,4,5"],                   # separate value starting with "-"
    ["eta", "--d", "-5"],                           # even a negative number
    ["eta", "--d"],                                 # missing value
    ["eta"],                                        # missing required option
    ["eta", "--d", "x"],                            # failed type
    ["hilbert", "1", "2"],                          # too few positionals
    ["hilbert", "1", "2", "3", "4"],                # too many
    ["hilbert", "-3/4", "2", "3"],                  # "-3/4" is an option to argparse
    ["hilbert", "--", "1", "2", "3"],
    ["hilbert", "-h"],
    ["brauer", "--neg=yes"],
    ["frobnicate"],
    [],
])
def test_doubtful_lines_are_left_to_argparse(argv):
    assert cli._parse_direct(argv) is None
