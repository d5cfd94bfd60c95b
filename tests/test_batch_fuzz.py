"""``--batch`` fed fuzzed lines never raises, never stops, and answers
exactly one JSON object per non-blank input line: malformed JSON, JSON that
is not a command object or is nested too deeply to decode, argv that is
not a list of strings, nested ``--batch``, help, and good and bad commands
mixed."""

import io
import json
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from arithgenus import cli
from test_direct_parser import argvs

GOOD = ["hilbert", "-1", "3", "3"]
# cheap verbs only, so that a fuzzed value never starts a long computation
CHEAP = ["hilbert", "brauer", "genus", "family", "unit", "classnum", "lencomm", "weakcomm",
         "form", "twins", "triple", "weyl"]

lines = st.one_of(
    argvs(CHEAP).map(lambda argv: json.dumps({"argv": argv})),
    st.just(json.dumps({"argv": GOOD})),
    st.sampled_from([
        '{"argv": ["--batch"]}', '{"argv": ["-h"]}', '{"argv": ["hilbert", "--help"]}',
        '{"argv": "hilbert -1 3 3"}', '{"argv": ["hilbert", -1, 3, 3]}', '{"argv": null}',
        '{"argv": {"0": "hilbert"}}', '{"args": ["hilbert"]}', '{"argv": []}', "[1, 2]", "3",
        "null", '"argv"', "{", "not json", '{"argv": ["hilbert", "1", "2", "3"]', "   ", "",
        "[" * 5000,
    ]),
    st.text(st.characters(exclude_characters="\r\n"), max_size=30),
)


def nonblank(text):
    return [line for line in text.split("\n") if line.strip()]


@settings(max_examples=300)
@given(st.lists(lines, min_size=1, max_size=8))
def test_fuzzed_stream_answers_every_line(batch):
    text = "\n".join(batch) + "\n"
    out = io.StringIO()
    assert cli._run_batch(io.StringIO(text), out) == 0
    replies = out.getvalue().split("\n")
    assert replies.pop() == ""
    assert len(replies) == len(nonblank(text))
    for reply, line in zip(replies, nonblank(text)):
        report = json.loads(reply)
        assert isinstance(report["ok"], bool)
        if line.strip() == json.dumps({"argv": GOOD}):
            assert report == {"ok": True, "result": -1}


def test_fuzzed_stream_through_a_real_process():
    batch = ['{"argv": ["--batch"]}', "{", '{"argv": ["hilbert", "--help"]}', "\t",
             '{"argv": "hilbert"}', "[]", '{"argv": ["hilbert", "1e2000000", "3", "5"]}',
             '{"argv": ["eta", "--d", "-5"]}', "[" * 100000, json.dumps({"argv": GOOD})]
    proc = subprocess.run([sys.executable, "-m", "arithgenus.cli", "--batch"],
                          input="\n".join(batch) + "\n", capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(replies) == len(nonblank("\n".join(batch)))
    assert [r["ok"] for r in replies] == [False] * 8 + [True]
