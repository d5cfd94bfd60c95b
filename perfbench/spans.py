"""In-memory spans around calls into the package's public functions.

``Tracer.install`` wraps each listed function and also every binding of it
that another module made with ``from .x import f`` (found by identity across
the package's modules), so calls through copied names stay inside spans.
Each span records its name, start, end, parent span and the id of the batch
line it belongs to.  Spans are kept in flat arrays during the run and
reduced to per-name self time and call counts at the end.

Self time is a span's duration minus the part of its interval covered by its
child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

# (module, attribute) of each wrapped function; "Cls.meth" wraps a method.
TARGETS = {
    "cli": ["main", "parse", "execute", "Report.to_json"],
    "arith": ["factor", "squarefree_part", "is_squarefree", "hilbert_symbol", "kronecker_symbol",
              "is_prime", "is_local_square", "padic_valuation", "support_places"],
    "brauer": ["class_from_quaternion", "class_from_invariants", "class_add", "class_neg",
               "index_profile", "parse_class", "format_class"],
    "genus": ["genus_enumerate", "epsilon_family", "genus_report", "embeds_quadratic"],
    "quadfield": ["eta_analytic", "class_number", "fundamental_unit", "norm_one_unit",
                  "unit_real_value"],
    "spectrum": ["admissible_set", "spectrum_generators", "length_commensurable",
                 "default_commensurability_bound", "weyl_main_term"],
    "qforms": ["triple_verdict", "form_invariants", "forms_equivalent", "is_isotropic_local",
               "is_isotropic_global", "witt_index_local", "witt_index_global", "twins"],
    "weakcomm": ["weakly_commensurable", "intersection_witness", "groups_intersect",
                 "to_exponent_vector"],
}
PACKAGE = "arithgenus"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.line = array("i")
        self.start = array("d")
        self.end = array("d")
        self.line_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        name, parent, line, start, end, stack = (
            self.name, self.parent, self.line, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            line.append(self.line_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function in TARGETS and rebind each copy of it in the
        package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for short, attrs in TARGETS.items():
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = getattr(holder, leaf)
                traced = self.wrap(f"{short}.{leaf}", original)
                self._set(holder, leaf, traced)
                if owner:
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, traced)

    def _set(self, holder, key, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    def self_times(self) -> array:
        """Self time of every span: its duration minus the union of its
        children's intervals clipped to it.  Span ids follow start order, so
        one pass sees each parent's children sorted by start."""
        n = len(self.name)
        covered = array("d", bytes(8 * n))
        reach = array("d", self.start)
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            cs, ce = max(self.start[i], reach[p]), min(self.end[i], self.end[p])
            if ce > cs:
                covered[p] += ce - cs
                reach[p] = ce
        return array("d", (self.end[i] - self.start[i] - covered[i] for i in range(n)))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and total self time in seconds."""
        totals: dict[str, dict[str, float]] = {}
        for i, st in enumerate(self.self_times()):
            entry = totals.setdefault(self.names[self.name[i]], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += st
        return totals

    def count_under(self, child: str, ancestor: str) -> int:
        """Number of spans named ``child`` with a span named ``ancestor``
        above them."""
        ids = {n: i for i, n in enumerate(self.names)}
        want, above = ids.get(child), ids.get(ancestor)
        count = 0
        for i in range(len(self.name)):
            if self.name[i] != want:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name[p] == above:
                    count += 1
                    break
                p = self.parent[p]
        return count

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed (a traced run
        makes up to a million spans)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps({"id": i, "name": self.names[self.name[i]], "parent": self.parent[i],
                                     "line": self.line[i], "start": self.start[i], "end": self.end[i]}) + "\n")
