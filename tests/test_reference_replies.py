"""Replay the start of the benchmark's default-seed streams, every line of the
quadratic-form and quaternion verbs in them, and every line that argparse
parses, through the batch loop and compare each reply with the hash recorded
in ``perfbench/reference/``.  The
generator (``perfbench/workloads.py``) is read without importing it as a
module or writing bytecode."""

import hashlib
import io
import itertools
import json
import sys
import types
from pathlib import Path

import pytest

from arithgenus import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REPLAYED = {"batch_mix": 2000, "heavy_math": 42}
# verbs replayed over the whole reference: the quadratic-form verdicts, the
# quaternion classes, the units, class numbers and length spectra, and weak
# commensurability
FULL_REPLAY = {"form", "twins", "triple", "brauer", "spectrum", "eta", "classnum", "unit",
               "lencomm", "weakcomm"}


@pytest.fixture(scope="module")
def workloads():
    module = types.ModuleType("perfbench_workloads")
    source = PERFBENCH / "workloads.py"
    # dataclasses look their module up by name while the class is built
    sys.modules[module.__name__] = module
    try:
        exec(compile(source.read_text(), str(source), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def references(workloads):
    """Per workload, the recorded lines and reply hashes, the lines checked
    against the digest the reference was recorded from."""
    loaded = {}
    for workload in REPLAYED:
        with open(PERFBENCH / "reference" / f"{workload}.txt") as fh:
            header = json.loads(fh.readline())
            recorded = [line.strip() for line in fh]
        assert header["seed"] == workloads.DEFAULT_SEED
        assert len(recorded) == header["lines"]
        lines = list(itertools.islice(workloads.generate(workload, header["seed"]),
                                      header["lines"]))
        digest = hashlib.sha256()
        for line in lines:
            digest.update(line.text.encode() + b"\n")
        assert digest.hexdigest() == header["lines_sha256"]
        loaded[workload] = lines, recorded
    return loaded


def mismatched_replies(lines, recorded, indices):
    out = io.StringIO()
    assert cli._run_batch((lines[i].text + "\n" for i in indices), out) == 0
    replies = out.getvalue().splitlines()
    assert len(replies) == len(indices)
    return [(i, lines[i].text, reply) for i, reply in zip(indices, replies)
            if hashlib.blake2b(reply.encode(), digest_size=4).hexdigest() != recorded[i]]


# triple lines with an anisotropic place in S warn, as they do in the CLI
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workload", sorted(REPLAYED))
def test_replies_match_recorded_hashes(workload, references):
    lines, recorded = references[workload]
    assert mismatched_replies(lines, recorded, range(REPLAYED[workload])) == []


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workload", sorted(REPLAYED))
def test_every_form_and_quaternion_line_matches(workload, references):
    lines, recorded = references[workload]
    indices = [i for i, line in enumerate(lines) if line.argv and line.argv[0] in FULL_REPLAY]
    assert indices
    assert mismatched_replies(lines, recorded, indices) == []


# the lines that argparse parses: an unknown verb, or hilbert with two
# positionals; they guard argparse's error texts byte for byte
ARGPARSE_LINES = {"batch_mix": 424, "heavy_math": 0}


@pytest.mark.parametrize("workload", sorted(REPLAYED))
def test_every_argparse_line_matches(workload, references):
    lines, recorded = references[workload]
    indices = [i for i, line in enumerate(lines)
               if line.argv is not None and cli._parse_direct(list(line.argv)) is None]
    assert len(indices) == ARGPARSE_LINES[workload]
    assert mismatched_replies(lines, recorded, indices) == []
