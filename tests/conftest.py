"""Shared test settings: hypothesis runs a fixed, bounded set of examples
(derandomized, no example database on disk, no per-example deadline), so
the suite gives the same result on every run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          max_examples=100, deadline=None)
settings.load_profile("deterministic")
