"""Span tracing of the zipcones layers, installed from outside the package.

``TARGETS`` lists the public functions a traced job wraps, one per row:
the metric prefix, the module, the attribute path and the extra counts
taken from each call's arguments and result.  ``Tracer.install`` replaces
every binding of each function in the loaded ``zipcones`` modules, so a
name imported with ``from .x import f`` is wrapped too, and for a method
every alias in its class (``__rmul__ = __mul__``).  A target that no
longer exists is recorded as absent; a count that can no longer be taken
from the arguments is recorded as broken.  Neither stops the job.

Spans are ``(id, parent id, target index, start, end)`` with
``time.perf_counter`` times, kept in memory and written once, with the
counts, when the job ends.  ``summarize`` turns the dumps of one pass into
per-layer metrics.
"""

from __future__ import annotations

import importlib
import itertools
import marshal
import sys
import time
from collections import defaultdict


def _terms(poly):
    return len(poly.terms) if hasattr(poly, "terms") else 1


# (metric prefix, module, attribute path, {count: fn(args, result) -> int})
TARGETS = [
    ("cli.main", "zipcones.cli", "main", {}),
    ("sections.h0_dimension", "zipcones.sections", "h0_dimension", {}),
    ("sections.enumerate_weight_monomials", "zipcones.sections",
     "enumerate_weight_monomials", {"monomials": lambda a, r: len(r)}),
    ("sections.gamma_matrix", "zipcones.sections", "gamma_matrix", {}),
    ("sections.check_equivariance", "zipcones.sections",
     "check_equivariance", {}),
    ("sections.catalog_section", "zipcones.sections", "catalog_section", {}),
    ("fpoly.mul", "zipcones.fpoly", "FpPolynomial.__mul__",
     {"term_products": lambda a, r: _terms(a[0]) * _terms(a[1])}),
    ("fpoly.substitute", "zipcones.fpoly", "FpPolynomial.substitute",
     {"terms_in": lambda a, r: _terms(a[0])}),
    ("fpoly.leading", "zipcones.fpoly", "FpPolynomial.leading",
     {"terms_scanned": lambda a, r: _terms(a[0])}),
    ("fpoly.exact_divide", "zipcones.fpoly", "exact_divide",
     {"quotient_terms": lambda a, r: 0 if r is None else _terms(r)}),
    ("fpoly.reduce", "zipcones.fpoly", "RationalFunction.reduce", {}),
    ("fplinalg.fp_nullspace", "zipcones.fplinalg", "fp_nullspace",
     {"columns": lambda a, r: len(a[0]),
      "nnz": lambda a, r: sum(len(c) for c in a[0]),
      "nullity": lambda a, r: len(r)}),
    ("modules.build_module", "zipcones.modules", "build_module",
     {"dim": lambda a, r: r.dim}),
    ("modules.invariants_finite_group", "zipcones.modules",
     "invariants_finite_group", {"fixed_dim": lambda a, r: len(r)}),
    ("modules.intersection_dimension", "zipcones.modules",
     "intersection_dimension", {}),
    ("modules.group_elements", "zipcones.modules", "group_elements", {}),
    ("modules.group_generators", "zipcones.modules", "group_generators", {}),
    ("gfq.gf_matrix_rank", "zipcones.gfq", "gf_matrix_rank", {}),
    ("cones.halfspaces_of", "zipcones.cones", "halfspaces_of",
     {"facets": lambda a, r: len(r.inequalities)}),
    ("cones.fourier_motzkin_project", "zipcones.cones",
     "fourier_motzkin_project", {"rows_out": lambda a, r: len(r)}),
    ("cones.nonneg_combination", "zipcones.cones", "nonneg_combination",
     {"feasible": lambda a, r: r is not None}),
    ("cones.extreme_rays", "zipcones.cones", "extreme_rays",
     {"rays": lambda a, r: len(r)}),
    ("cones.monoid_membership", "zipcones.cones", "monoid_membership", {}),
    ("catalog.catalog_cone", "zipcones.catalog", "catalog_cone", {}),
]

# the per-layer metrics a traced run reports, in BENCHMARK.json order;
# nonneg_combination.feasible is reported as a ratio of its calls
COUNTS = [name + "." + count for name, _, _, counts in TARGETS
          for count in counts if count != "feasible"]
RATIOS = {"cones.nonneg_combination.feasible_ratio":
          ("cones.nonneg_combination.feasible", "cones.nonneg_combination.calls")}
METRICS = ([(name + ".calls", "count") for name, _, _, _ in TARGETS]
           + [(name + ".s", "s") for name, _, _, _ in TARGETS]
           + [(name + ".self_s", "s") for name, _, _, _ in TARGETS]
           + [(name, "count") for name in COUNTS]
           + [(name, "1") for name in RATIOS])

# layer -> (end-to-end metric it should move, on which workload)
SHOULD_MOVE = {
    "cli": "self_s (argument parsing, JSON emit) -> job_p50_s on every workload, small",
    "sections": "wall_s, job_tail_s on h0-oracle; gamma_matrix on exact-catalog",
    "fpoly": "mul/substitute -> wall_s on h0-oracle; leading/exact_divide/reduce "
             "-> wall_s on exact-catalog, none on h0-oracle",
    "fplinalg": "wall_s on h0-oracle and module-compare",
    "modules": "invariants_finite_group -> wall_s, job_tail_s on module-compare, "
               "zero elsewhere",
    "gfq": "wall_s on module-compare",
    "cones": "wall_s and peak_rss_mb on exact-catalog, about zero on h0-oracle",
    "catalog": "span time only, no optimisation target",
}


class Tracer:
    """Spans and counts of one job, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self.broken = set()
        self._stack = [0]
        self._ids = itertools.count(1)

    def install(self):
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "zipcones" or name.startswith("zipcones.")]
        for index, (name, module, path, counts) in enumerate(TARGETS):
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, name, original, counts)
            holders = loaded if not outer else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def _wrap(self, index, name, fn, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        next_id, totals, broken = self._ids.__next__, self.counts, self.broken
        counters = [(name + "." + key, count) for key, count in counts.items()]

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, start, end))
            for key, count in counters:
                try:
                    totals[key] += count(args, result)
                except (AttributeError, IndexError, TypeError):
                    broken.add(key)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "wb") as fh:
            marshal.dump({"spans": self.spans, "counts": dict(self.counts),
                          "absent": self.absent,
                          "broken": sorted(self.broken)}, fh)


def load(path):
    with open(path, "rb") as fh:
        return marshal.load(fh)


def summarize(dumps):
    """Per-layer metrics of one pass from the dumps of its jobs.

    ``.s`` is inclusive time, counted once for nested calls of the same
    function; ``.self_s`` is inclusive time minus that of wrapped children.
    Returns the metrics and the sorted names of those that could not be
    measured because their function is absent or a count broke; these
    read 0.
    """
    values = defaultdict(float)
    absent, unavailable = set(), set()
    for dump in dumps:
        absent.update(dump["absent"])
        unavailable.update(dump["broken"])
        for key, value in dump["counts"].items():
            values[key] += value
        owner = {}
        child_time = defaultdict(float)
        for sid, parent, index, start, end in dump["spans"]:
            owner[sid] = (parent, index)
            child_time[parent] += end - start
        for sid, parent, index, start, end in dump["spans"]:
            name = TARGETS[index][0]
            values[name + ".calls"] += 1
            values[name + ".self_s"] += end - start - child_time[sid]
            up = parent
            while up and owner[up][1] != index:
                up = owner[up][0]
            if not up:
                values[name + ".s"] += end - start
    for name in absent:
        unavailable.update(metric for metric, _ in METRICS
                           if metric.startswith(name + "."))
    for ratio, (num, den) in RATIOS.items():
        values[ratio] = values[num] / values[den] if values[den] else 0.0
        if num in unavailable:
            unavailable.add(ratio)
    metrics = {name: values[name] if unit in ("s", "1") else int(values[name])
               for name, unit in METRICS}
    return metrics, sorted(unavailable)
