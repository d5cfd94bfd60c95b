#!/usr/bin/env python3
"""Benchmark of the arithgenus CLI on seeded, generated command lines.

Run from the repository root:

    python3 perfbench/run.py --workload batch_mix --seed 3 --seconds 20 --trace 0

With ``--trace 0`` it drives the real CLI (``python -u -m arithgenus.cli``)
from this single process, one child at a time, in a closed loop: the next
line is sent only after the reply to the previous one has arrived.  Lines go
in whole blocks (see workloads.py) until ``--seconds`` have passed.  It
prints the end-to-end metrics, with the times scaled to a reference host
speed by a speed probe (see speed_probe).  With ``--trace 1`` it feeds a
fixed number of whole blocks of the same lines in-process to
``arithgenus.cli.main`` with spans around the package's public functions
(see spans.py), prints the per-module metrics and writes every span to
``perfbench/out/spans_<workload>.jsonl.gz``.

Every run checks the replies (see checks.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for people.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import re
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from mpmath import mp, mpf

from workloads import DEFAULT_SEED, WORKLOADS, Line, generate, mix_stats

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9          # CLI start-ups per run; setup_s is their median
PROBE_EVERY_S = 0.25       # timed phase between two speed probes
# latency_tail_ms: the highest of p99, p95, p90 with at least 10 samples
# beyond it in every 50 s baseline run (heavy_math sends 196-280 lines, so
# p95 sometimes has 9).  Fixed per workload, so that a slower commit, which
# sends fewer lines, is not measured at a lower percentile.
TAIL_PERCENTILE = {"batch_mix": 99, "heavy_math": 90}
REPLY_TIMEOUT_S = 60.0     # a line without a reply by then stalls the stream
WARMUP_ARGV = ("hilbert", "2", "3", "inf")
WARMUP_LINE = json.dumps({"argv": list(WARMUP_ARGV)})
# Lines generated before timing starts; also the reference length, about
# four times what a 50 s run sends at the baseline.
PREGENERATED = {"batch_mix": 48000, "heavy_math": 1250}
# Whole blocks fed to the traced run, a fixed amount of work so that its
# call counts and self times compare across commits.
TRACED_BLOCKS = {"batch_mix": 58, "heavy_math": 3}
SPANS_DIR = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
# metric name -> unit, in the order BENCHMARK.json lists them
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("ARITHGENUS_PREC_BITS", None)  # keep the default precision
    return env


class BatchChild:
    """One ``--batch`` CLI process answering lines on unbuffered stdout."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "arithgenus.cli", "--batch"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            cwd=ROOT, env=env, bufsize=0)
        self._out = self.proc.stdout.fileno()
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._out, selectors.EVENT_READ)
        self._buf = b""

    def ask(self, text: str, timeout: float = REPLY_TIMEOUT_S) -> str | None:
        """Send one line and wait for one reply line; None if the child
        closed its output or did not answer in time."""
        try:
            self.proc.stdin.write(text.encode() + b"\n")
        except BrokenPipeError:
            return None
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._sel.select(remaining):
                return None
            chunk = os.read(self._out, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        reply, _, self._buf = self._buf.partition(b"\n")
        return reply.decode()

    def peak_rss_mb(self) -> float:
        """The child's own peak resident memory (VmHWM), read while it runs.
        getrusage(RUSAGE_CHILDREN) would also count this process: a child
        spawned with vfork and exec keeps the high-water mark of the
        address space it shared with its parent."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        return 0.0  # the child has exited; its missing replies count as wrong

    def close(self) -> None:
        self._sel.close()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tail_latency(samples: list[float], q: int) -> tuple[float, int]:
    """The q-th percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(math.ceil(len(ordered) * q / 100), 1)
    return ordered[rank - 1], len(ordered) - rank


class Stream:
    """The pregenerated lines of a run, extended on demand."""

    def __init__(self, workload: str, seed: int):
        self._gen = generate(workload, seed)
        self.lines: list[Line] = list(itertools.islice(self._gen, PREGENERATED[workload]))

    def __getitem__(self, i: int) -> Line:
        while i >= len(self.lines):
            self.lines.extend(itertools.islice(self._gen, 1000))
        return self.lines[i]

    def first(self, n: int) -> list[Line]:
        self[n - 1]
        return self.lines[:n]

    def blocks(self, n: int) -> list[Line]:
        """The lines of the first ``n`` blocks."""
        i = 0
        while self[i].block < n:
            i += 1
        return self.lines[:i]


# ---------------------------------------------------------------------------
# Untraced runs: the real CLI in child processes


def _cli_task() -> None:
    """argparse parsers, exact fractions, big integers and JSON, like a
    batch_mix line."""
    for k in range(8):
        parser = argparse.ArgumentParser(prog="probe")
        verbs = parser.add_subparsers(dest="verb")
        for verb in ("a", "b", "c", "d"):
            sub = verbs.add_parser(verb)
            sub.add_argument("--x", type=int)
            sub.add_argument("--y", default="z")
        parser.parse_args(["b", "--x", str(k), "--y=q"])
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    n = 3**2000
    for i in range(200):
        n = (n * 7 + i) % (10**600 + 7)
    json.loads(json.dumps({"a": [str(total)] * 20}))


def _math_task() -> None:
    """384-bit mpmath functions and trial division, like a heavy_math line."""
    with mp.workprec(384):
        total = mpf(0)
        for k in range(1, 70):
            total += mp.log(mpf(k) + 2) * mp.sqrt(mpf(k) + 2) / mp.exp(mpf(k) / 7)
    n = 1_000_003 * 999_983
    for p in range(3, 70_000, 2):
        if n % p == 0:
            break


# Per workload: the probe task and its time at the reference host speed.
PROBES = {"batch_mix": (_cli_task, 0.008), "heavy_math": (_math_task, 0.0065)}


def speed_probe(task) -> float:
    """Seconds this process takes for a fixed pure-Python task shaped like
    the workload's work.  The host's CPU speed swings by up to 50% over
    minutes; the time metrics are scaled by the reference time over the
    run's median probe, which cancels that swing and which no change to the
    package can move."""
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def run_batch(stream: Stream, seconds: float, env, probe_task) -> dict:
    """Closed loop over whole blocks of lines until ``seconds`` of timed
    phase have passed.  The SETUP_REPEATS start-ups are spread evenly over
    the run, outside the timed phase, so that setup_s sees the same slow and
    fast stretches of the host as the other metrics; so are the speed probes,
    one before the first line and one after each PROBE_EVERY_S of timed
    phase.  Each start-up spawns a
    child and waits for its reply to the warm-up line; the first child is
    the one that is then timed, later ones are closed at once."""
    children = []

    def startup() -> float:
        t0 = time.perf_counter()
        child = BatchChild(env)
        ok = child.ask(WARMUP_LINE) is not None
        took = time.perf_counter() - t0
        if children or not ok:
            child.close()
        else:
            children.append(child)
        if not ok:
            raise RuntimeError("the CLI did not answer the warm-up line")
        return took

    try:
        setups = [startup()]
        replies, latencies = [], []
        probes, probed_at = [speed_probe(probe_task)], 0.0
        elapsed, block = 0.0, 0
        for i in itertools.count():
            line = stream[i]
            if line.block != block:
                if elapsed >= seconds:
                    break  # only whole blocks, so every run has the same command mix
                block = line.block
                if elapsed >= len(setups) * seconds / SETUP_REPEATS:
                    setups.append(startup())
            t0 = time.perf_counter()
            reply = children[0].ask(line.text)
            t1 = time.perf_counter()
            elapsed += t1 - t0
            replies.append(reply)
            if reply is None:
                break  # a stalled or dead child answers nothing more
            latencies.append(t1 - t0)
            if elapsed - probed_at >= PROBE_EVERY_S:
                probes.append(speed_probe(probe_task))
                probed_at = elapsed
        while len(setups) < SETUP_REPEATS:
            setups.append(startup())
        peak_rss = children[0].peak_rss_mb()
    finally:
        for child in children:
            child.close()
    return {"setups": setups, "replies": replies, "latencies": latencies, "elapsed": elapsed,
            "peak_rss_mb": peak_rss, "probe_s": statistics.median(probes)}


def end_to_end(raw: dict, ref_probe_s: float, q: int) -> tuple[dict, dict]:
    if not raw["latencies"]:
        raise RuntimeError("the CLI answered no line of the timed phase")
    lat_ms = [x * 1000 for x in raw["latencies"]]
    tail, beyond = tail_latency(lat_ms, q)
    measured = {
        "setup_s": statistics.median(raw["setups"]),
        "throughput_cmd_per_s": len(raw["latencies"]) / raw["elapsed"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail,
    }
    # Times at the reference host speed: a slow stretch of the host slows
    # the probe as much as the CLI.
    scale = ref_probe_s / raw["probe_s"]
    metrics = {k: v / scale if k == "throughput_cmd_per_s" else v * scale for k, v in measured.items()}
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    notes = {"tail_percentile": f"p{q}", "tail_samples_beyond": beyond,
             "samples": len(lat_ms), "probe_ms": round(raw["probe_s"] * 1000, 4),
             "unscaled": {k: round(v, 4) for k, v in measured.items()}}
    return metrics, notes


# ---------------------------------------------------------------------------
# Traced runs: the same lines in-process


def _feed_batch(cli, lines: list[Line], tracer=None) -> tuple[list[str], float]:
    """Run ``cli.main(["--batch"])`` on the lines; stdin yields them one by
    one and tells the tracer which line is current."""
    def stdin():
        for i, line in enumerate(lines):
            if tracer is not None:
                tracer.line_id = i
            yield line.text + "\n"

    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin(), out, io.StringIO()
    t0 = time.perf_counter()
    try:
        cli.main(["--batch"])
    finally:
        wall = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return out.getvalue().splitlines(), wall


def import_ms(env, repeats: int = 5) -> float:
    """Import time of arithgenus.cli from ``python -X importtime``: the
    cumulative microseconds of the top-level arithgenus entries."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import arithgenus.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                              timeout=REPLY_TIMEOUT_S)
        total = 0
        for row in proc.stderr.splitlines():
            # top-level rows have exactly one space before the module name
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\| (\S+)", row)
            if m and m.group(2).split(".")[0] == "arithgenus":
                total += int(m.group(1))
        times.append(total / 1000.0)
    return statistics.median(times)


def per_layer(tracer, lines: list[Line], replies: list[str], traced_wall: float,
              untraced_wall: float, imp_ms: float) -> dict:
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def share(module):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(module + ".")) / traced_wall

    def ratio(num, den):
        return num / den if den else 0.0

    genus_lines = [ln for ln in lines if ln.check and ln.check[0] == "genus"]
    generators = 0
    for ln, reply in zip(lines, replies):
        if ln.verb == "spectrum" and ln.expect_ok:
            try:
                generators += len(json.loads(reply)["result"])
            except (json.JSONDecodeError, KeyError, TypeError):
                pass  # counted as a wrong reply by the checks
    metrics = {
        "cli.parse.self_s": self_s("cli.parse"),
        "cli.parse.calls": calls("cli.parse"),
        "cli.execute.self_s": self_s("cli.execute"),
        "cli.to_json.self_s": self_s("cli.to_json"),
        "cli.import_ms": imp_ms,
        "cli.share": share("cli"),
        "arith.factor.calls": calls("arith.factor"),
        "arith.factor.self_s": self_s("arith.factor"),
        "arith.squarefree.calls": calls("arith.is_squarefree") + calls("arith.squarefree_part"),
        "arith.hilbert_symbol.calls": calls("arith.hilbert_symbol"),
        "arith.kronecker_symbol.calls": calls("arith.kronecker_symbol"),
        "arith.share": share("arith"),
        "brauer.class_from_quaternion.self_s": self_s("brauer.class_from_quaternion"),
        "brauer.share": share("brauer"),
        "genus.genus_enumerate.self_s": self_s("genus.genus_enumerate"),
        "genus.epsilon_family.self_s": self_s("genus.epsilon_family"),
        "genus.members_per_combination": ratio(sum(ln.check[1] for ln in genus_lines),
                                               sum(ln.check[2] for ln in genus_lines)),
        "genus.share": share("genus"),
        "quadfield.eta_analytic.calls": calls("quadfield.eta_analytic"),
        "quadfield.eta_analytic.self_s": self_s("quadfield.eta_analytic"),
        "quadfield.class_number.self_s": self_s("quadfield.class_number"),
        "quadfield.fundamental_unit.self_s": self_s("quadfield.fundamental_unit"),
        "quadfield.share": share("quadfield"),
        "spectrum.admissible_set.self_s": self_s("spectrum.admissible_set"),
        "spectrum.spectrum_generators.self_s": self_s("spectrum.spectrum_generators"),
        "spectrum.length_commensurable.self_s": self_s("spectrum.length_commensurable"),
        "spectrum.eta_calls_per_generator": ratio(
            tracer.count_under("quadfield.eta_analytic", "spectrum.spectrum_generators"), generators),
        "spectrum.share": share("spectrum"),
        "qforms.triple_verdict.self_s": self_s("qforms.triple_verdict"),
        "qforms.form_invariants.calls": calls("qforms.form_invariants"),
        "qforms.equiv_tests_per_similarity": ratio(
            tracer.count_under("qforms.forms_equivalent", "qforms.triple_verdict"),
            calls("qforms.triple_verdict")),
        "qforms.share": share("qforms"),
        "weakcomm.weakly_commensurable.self_s": self_s("weakcomm.weakly_commensurable"),
        "weakcomm.intersection_witness.self_s": self_s("weakcomm.intersection_witness"),
        "weakcomm.share": share("weakcomm"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
    }
    return metrics


def run_traced(workload: str, stream: Stream, env):
    sys.path.insert(0, SRC)
    os.environ.pop("ARITHGENUS_PREC_BITS", None)
    import arithgenus.cli as cli
    from spans import Tracer

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported {cli.__file__}, not the package under src/")
    _feed_batch(cli, [Line(WARMUP_LINE, WARMUP_ARGV, True)])
    lines = stream.blocks(TRACED_BLOCKS[workload])
    # A first untraced pass warms lazy state; the overhead compares the
    # traced pass with the untraced pass after it.
    first_replies, _ = _feed_batch(cli, lines)
    tracer = Tracer()
    tracer.install()
    try:
        replies, traced_wall = _feed_batch(cli, lines, tracer=tracer)
    finally:
        tracer.uninstall()
    plain_replies, plain_wall = _feed_batch(cli, lines)
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"spans_{workload}.jsonl.gz")
    tracer.dump(spans_path)
    metrics = per_layer(tracer, lines, replies, traced_wall, plain_wall, import_ms(env))
    notes = {"traced_lines": len(lines), "spans": len(tracer),
             "spans_file": os.path.relpath(spans_path, ROOT)}
    return lines, (first_replies, replies, plain_replies), metrics, notes


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="length of the timed phase of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "arithgenus", "cli.py")):
        print(f"error: {SRC}/arithgenus/cli.py not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = child_env()
    stream = Stream(args.workload, args.seed)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = checks.load_reference(args.workload, stream.first)

    if args.trace:
        sent, passes, metrics, notes = run_traced(args.workload, stream, env)
        result = checks.CheckResult()
        for replies in passes:
            result.add(checks.check_replies(sent, replies, reference))
        units = PER_LAYER_UNITS
    else:
        probe_task, ref_probe_s = PROBES[args.workload]
        raw = run_batch(stream, args.seconds, env, probe_task)
        sent = stream.first(len(raw["replies"]))
        result = checks.check_replies(sent, raw["replies"], reference)
        metrics, notes = end_to_end(raw, ref_probe_s, TAIL_PERCENTILE[args.workload])
        units = E2E_UNITS

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    stats = mix_stats(sent)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {json.dumps(notes)}")
    print(f"  lines {stats['lines']}  error_share {stats['error_share']}  "
          f"repeat_share {stats['repeat_share']}  verb_mix {json.dumps(stats['verb_mix'])}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    print(f"  {'wrong_reply_frac':40s} {result.wrong_frac:14.6g} ratio"
          f"  ({result.wrong} of {result.attempted})")
    if reference is not None:
        print(f"  reference: {result.compared} of {result.attempted} replies compared byte for byte,"
              f" {result.attempted - result.compared} beyond the recorded {len(reference)} lines")
    for reason, count in result.reasons.most_common():
        print(f"  wrong: {count} x {reason}")
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.wrong,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
