#!/usr/bin/env python3
"""Record the default-seed reference replies of every workload.

Run from the repository root, on the commit whose output is the reference:

    python3 perfbench/record_reference.py [workload ...]

Each workload's pregenerated lines go through one ``--batch`` CLI process
(untimed); ``reference/<workload>.txt`` stores a short hash of every reply.
Record again only when the generator changes, never to make a changed reply
pass.
"""

from __future__ import annotations

import sys

import checks
from run import PREGENERATED, BatchChild, Stream, child_env
from workloads import DEFAULT_SEED, WORKLOADS


def record(workload: str) -> None:
    lines = Stream(workload, DEFAULT_SEED).first(PREGENERATED[workload])
    child = BatchChild(child_env())
    try:
        replies = [child.ask(line.text) for line in lines]
    finally:
        child.close()
    if any(r is None for r in replies):
        raise RuntimeError(f"{workload}: the CLI left lines unanswered")
    result = checks.check_replies(lines, replies)
    if result.wrong:
        raise RuntimeError(f"{workload}: {result.wrong} replies fail the cross-checks: {dict(result.reasons)}")
    checks.write_reference(workload, lines, replies)
    print(f"{workload}: {len(lines)} replies recorded")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
