"""Replay the start of the benchmark's default-seed streams through the batch
loop and compare each reply with the hash recorded in
``perfbench/reference/``.  The generator (``perfbench/workloads.py``) is read
without importing it as a module or writing bytecode."""

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


# triple lines with an anisotropic place in S warn, as they do in the CLI
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workload", sorted(REPLAYED))
def test_replies_match_recorded_hashes(workload, workloads):
    with open(PERFBENCH / "reference" / f"{workload}.txt") as fh:
        header = json.loads(fh.readline())
        recorded = [line.strip() for line in fh]
    assert header["seed"] == workloads.DEFAULT_SEED
    assert len(recorded) == header["lines"]

    lines = list(itertools.islice(workloads.generate(workload, header["seed"]), header["lines"]))
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.text.encode() + b"\n")
    assert digest.hexdigest() == header["lines_sha256"]

    n = REPLAYED[workload]
    out = io.StringIO()
    assert cli._run_batch((line.text + "\n" for line in lines[:n]), out) == 0
    replies = out.getvalue().splitlines()
    assert len(replies) == n
    mismatched = [
        (i, lines[i].text, reply)
        for i, reply in enumerate(replies)
        if hashlib.blake2b(reply.encode(), digest_size=4).hexdigest() != recorded[i]
    ]
    assert mismatched == []
