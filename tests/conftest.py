"""Shared test settings: hypothesis runs a fixed, bounded set of examples
(derandomized, no example database on disk, no per-example deadline), so
the suite gives the same result on every run.  ``child_env`` lets a child
Python process import the package from this checkout's ``src``."""

import os
from pathlib import Path

import pytest
from hypothesis import settings

SRC = str(Path(__file__).resolve().parents[1] / "src")

settings.register_profile("deterministic", derandomize=True, database=None,
                          max_examples=100, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def child_env():
    """The environment for ``subprocess.run``, with ``src`` first on PYTHONPATH."""
    paths = [SRC, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [SRC]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
