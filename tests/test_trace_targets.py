"""The benchmark tracer (``perfbench/spans.py``) wraps package functions by
name; a renamed or removed name makes a traced run fail.  This reads the
tracer's source without importing it as a module or writing bytecode."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = []
    for short, attrs in spans.TARGETS.items():
        module = importlib.import_module(f"{spans.PACKAGE}.{short}")
        for attr in attrs:
            holder = module
            for part in attr.split("."):
                holder = getattr(holder, part, None)
            if not callable(holder):
                missing.append(f"{short}.{attr}")
    assert missing == []
