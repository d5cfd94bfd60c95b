"""Self-tests of the benchmark (not of the package):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gzip
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from arithgenus import arith, cli, genus  # noqa: E402

SIZES = {"batch_mix": 300, "heavy_math": 60}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_lines_other_seed_other_lines(workload):
    n = SIZES[workload]
    first = [ln.text for ln in workloads.take(workload, 5, n)]
    again = [ln.text for ln in workloads.take(workload, 5, n)]
    other = [ln.text for ln in workloads.take(workload, 6, n)]
    assert first == again
    assert first != other


def _replies(lines):
    out = []
    for line in lines:
        try:
            obj = json.loads(line.text)
            report = cli.execute(cli.parse(obj["argv"]))
        except cli.UsageError as exc:
            report = cli.Report(ok=False, error=f"usage: {exc}")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            report = cli.Report(ok=False, error=f"bad batch line: {exc}")
        out.append(report.to_json())
    return out


@pytest.fixture(scope="module")
def sample():
    lines = workloads.take("batch_mix", workloads.DEFAULT_SEED, 120)
    return lines, _replies(lines)


def test_clean_replies_pass(sample):
    lines, replies = sample
    result = checks.check_replies(lines, replies)
    assert result.wrong == 0, result.reasons


def _first(lines, kind):
    return next(i for i, ln in enumerate(lines) if ln.check and ln.check[0] == kind)


def test_corrupted_reply_counts_as_wrong(sample):
    lines, replies = sample
    i = _first(lines, "unit")
    obj = json.loads(replies[i])
    obj["result"]["x"] = str(int(obj["result"]["x"].split("/")[0]) + 1)
    corrupted = list(replies)
    corrupted[i] = json.dumps(obj, separators=(",", ":"))
    assert checks.check_replies(lines, corrupted).wrong_frac > 0


def test_flipped_ok_counts_as_wrong(sample):
    lines, replies = sample
    i = next(i for i, ln in enumerate(lines) if not ln.expect_ok)
    corrupted = list(replies)
    corrupted[i] = '{"ok":true,"result":1}'
    assert checks.check_replies(lines, corrupted).wrong_frac > 0


def test_dropped_reply_counts_as_wrong(sample):
    lines, replies = sample
    dropped = list(replies)
    dropped[_first(lines, "brauer")] = None
    assert checks.check_replies(lines, dropped).wrong_frac > 0


def test_group_check_catches_a_consistent_looking_lie(sample):
    lines, replies = sample
    i = next(i for i, ln in enumerate(lines) if ln.check and ln.check[0] == "eta")
    obj = json.loads(replies[i])
    obj["result"]["eta"] = obj["result"]["eta"].replace("1", "2", 1)
    corrupted = list(replies)
    corrupted[i] = json.dumps(obj, separators=(",", ":"))
    assert checks.check_replies(lines, corrupted).wrong == lines[i].group[1]


def test_reference_catches_a_changed_reply(sample):
    lines, replies = sample
    reference = [checks.reply_hash(r) for r in replies]
    i = next(i for i, ln in enumerate(lines) if ln.verb == "weyl")
    changed = list(replies)
    changed[i] = changed[i].replace('"result":', '"result":1')
    assert checks.check_replies(lines, replies, reference).wrong == 0
    assert checks.check_replies(lines, changed, reference).wrong == 1


def test_recorded_reference_matches_the_generator():
    stream = run.Stream("heavy_math", workloads.DEFAULT_SEED)
    assert len(checks.load_reference("heavy_math", stream.first)) == run.PREGENERATED["heavy_math"]


def _tree(spans):
    """A tracer holding the given (name, parent, start, end) spans."""
    t = Tracer()
    for name, parent, start, end in spans:
        if name not in t.names:
            t.names.append(name)
        t.name.append(t.names.index(name))
        t.parent.append(parent)
        t.line.append(0)
        t.start.append(start)
        t.end.append(end)
    return t


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_lines_are_whole_blocks(workload):
    n = run.TRACED_BLOCKS[workload]
    lines = run.Stream(workload, 7).blocks(n)
    assert [ln.block for ln in lines] == sorted(ln.block for ln in lines)
    assert lines[0].block == 0 and lines[-1].block == n - 1
    assert workloads.take(workload, 7, len(lines) + 1)[-1].block == n


def test_self_time_on_a_synthetic_tree():
    t = _tree([
        ("cli.main", -1, 0.0, 10.0),
        ("arith.factor", 0, 1.0, 4.0),
        ("arith.is_prime", 1, 2.0, 3.0),
        ("quadfield.eta_analytic", 0, 3.0, 6.0),   # overlaps its sibling by 1
        ("arith.factor", 0, 8.0, 12.0),            # runs past its parent's end
    ])
    assert list(t.self_times()) == [10 - 5 - 2, 3 - 1, 1, 3, 4]
    summary = t.summary()
    assert summary["arith.factor"] == {"calls": 2, "self_s": 6.0}
    assert t.count_under("arith.is_prime", "cli.main") == 1
    assert t.count_under("cli.main", "arith.factor") == 0


def test_dump_writes_every_span(tmp_path):
    t = _tree([("cli.main", -1, 0.0, 2.0), ("arith.factor", 0, 0.5, 1.0)])
    t.dump(str(tmp_path / "spans.jsonl.gz"))
    with gzip.open(tmp_path / "spans.jsonl.gz", "rt") as fh:
        rows = [json.loads(row) for row in fh]
    assert rows == [
        {"id": 0, "name": "cli.main", "parent": -1, "line": 0, "start": 0.0, "end": 2.0},
        {"id": 1, "name": "arith.factor", "parent": 0, "line": 0, "start": 0.5, "end": 1.0},
    ]


def test_copied_binding_is_counted():
    original = arith.is_squarefree
    assert genus.is_squarefree is original  # copied by ``from .arith import``
    tracer = Tracer()
    tracer.install()
    try:
        assert genus.is_squarefree(30) is True
        cli.execute(cli.parse(["hilbert", "-1", "3", "3"]))
    finally:
        tracer.uninstall()
    assert genus.is_squarefree is original and arith.is_squarefree is original
    summary = tracer.summary()
    assert summary["arith.is_squarefree"]["calls"] == 1
    assert summary["arith.squarefree_part"]["calls"] == 1
    assert summary["arith.hilbert_symbol"]["calls"] == 1


def test_time_metrics_are_scaled_to_the_reference_speed():
    raw = {"latencies": [0.001, 0.002, 0.003], "elapsed": 0.006, "setups": [0.1, 0.2, 0.3],
           "peak_rss_mb": 20.0, "probe_s": 0.016}
    metrics, notes = run.end_to_end(raw, 0.008, 90)  # a host at half the reference speed
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)
    assert metrics["latency_tail_ms"] == pytest.approx(1.5)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["throughput_cmd_per_s"] == pytest.approx(1000.0)
    assert metrics["peak_rss_mb"] == 20.0
    assert notes["unscaled"]["latency_p50_ms"] == 2.0


def test_tail_percentile_and_samples_beyond():
    assert run.tail_latency([float(i) for i in range(1, 1001)], 99) == (990.0, 10)
    assert run.tail_latency([float(i) for i in range(1, 201)], 90) == (180.0, 20)
    assert run.tail_latency([5.0], 99) == (5.0, 0)
