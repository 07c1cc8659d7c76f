"""Which program functions get spans, and the per-layer metrics derived from them.

The layers are the modules of ``src/brauerloop``. Only stage-level public
functions are wrapped: the per-diagram helpers (``apply_monoid``,
``apply_braid``, ``rotate``, the label functions) run millions of times per
run, so a span around each call would cost more than the work it measures.
Their time is part of their caller's self time. ``counting`` gets no span:
``class_count`` runs in microseconds.

Counts (dimension, nnz, reconstruction rounds, cache bytes) repeat exactly
from run to run, so later changes can cite them next to the times.
``kernel.dense_bytes_computed`` is computed from the matrix dimension, 8 * n**2
bytes for the dense copy of each matrix solved by the modular path (a
``kernel_vector`` call that reconstructs rationals); it is not measured.
"""

from __future__ import annotations

import os
import sys

from spans import self_times

ROOT_SPAN = "worker.ops"

TARGETS = [
    ("brauerloop.diagrams", "enumerate_diagrams"),
    ("brauerloop.diagrams", "compute_orbits"),
    ("brauerloop.generators", "check_relations"),
    ("brauerloop.hamiltonian", "build_reduced"),
    ("brauerloop.hamiltonian", "IntensityMatrix.validate"),
    ("brauerloop.hamiltonian", "connectivity_check"),
    ("brauerloop.hamiltonian", "annihilates"),
    ("brauerloop.kernel", "groundstate"),
    ("brauerloop.kernel", "kernel_vector"),
    ("brauerloop.kernel", "rational_reconstruction"),
    ("brauerloop.kernel", "normalize_integer"),
    ("brauerloop.kernel", "load_cached_groundstate"),
    ("brauerloop.kernel", "save_cached_groundstate"),
    ("brauerloop.checks", "permutation_weight_table"),
    ("brauerloop.checks", "verify_integrality"),
    ("brauerloop.checks", "verify_maximality"),
    ("brauerloop.checks", "verify_sum_rule"),
    ("brauerloop.checks", "verify_factorization"),
    ("brauerloop.checks", "verify_degrees"),
    ("brauerloop.checks", "monte_carlo_crosscheck"),
    ("brauerloop.cli", "main"),
]

VERIFY_SPANS = (
    "checks.verify_integrality",
    "checks.verify_maximality",
    "checks.verify_sum_rule",
    "checks.verify_factorization",
    "checks.verify_degrees",
)


def _cache_load(result, args, kwargs):
    if result is None:
        return {"hit": 0, "miss": 1, "bytes": 0}
    path = sys.modules["brauerloop.kernel"].cache_path(*args, **kwargs)
    return {"hit": 1, "miss": 0, "bytes": os.path.getsize(path)}


COUNTERS = {
    "diagrams.enumerate_diagrams": lambda r, a, k: {"basis_size": len(r)},
    "diagrams.compute_orbits": lambda r, a, k: {"orbit_count": len(r)},
    "generators.check_relations": lambda r, a, k: {
        "cases": sum(c.cases for c in r.checks)},
    "hamiltonian.build_reduced": lambda r, a, k: {
        "dimension": r.dimension, "nnz": sum(len(c) for c in r.columns)},
    "kernel.kernel_vector": lambda r, a, k: {"dimension": len(r)},
    "kernel.load_cached_groundstate": _cache_load,
    "kernel.save_cached_groundstate": lambda r, a, k: {"bytes": os.path.getsize(r)},
    "checks.monte_carlo_crosscheck": lambda r, a, k: {"steps": r.samples + r.burn_in},
}

# (name, unit, better); every name here is in BENCHMARK.json's per_layer list.
PER_LAYER = [
    ("diagrams.enumerate_s", "s", "lower"),
    ("diagrams.orbits_s", "s", "lower"),
    ("diagrams.basis_size", "count", "lower"),
    ("diagrams.orbit_count", "count", "lower"),
    ("generators.check_relations_s", "s", "lower"),
    ("generators.relation_cases", "count", "higher"),
    ("generators.cases_per_s", "1/s", "higher"),
    ("hamiltonian.build_reduced_s", "s", "lower"),
    ("hamiltonian.validate_s", "s", "lower"),
    ("hamiltonian.connectivity_s", "s", "lower"),
    ("hamiltonian.annihilates_s", "s", "lower"),
    ("hamiltonian.dimension", "count", "lower"),
    ("hamiltonian.nnz", "count", "lower"),
    ("kernel.kernel_vector_s", "s", "lower"),
    ("kernel.kernel_vector_calls", "count", "lower"),
    ("kernel.rational_reconstruction_s", "s", "lower"),
    ("kernel.reconstruction_rounds", "count", "lower"),
    ("kernel.dense_bytes_computed", "bytes", "lower"),
    ("kernel.normalize_s", "s", "lower"),
    ("kernel.groundstate_self_s", "s", "lower"),
    ("kernel.cache_save_s", "s", "lower"),
    ("kernel.cache_load_s", "s", "lower"),
    ("kernel.cache_bytes_written", "bytes", "lower"),
    ("kernel.cache_bytes_read", "bytes", "lower"),
    ("kernel.cache_hits", "count", "higher"),
    ("kernel.cache_misses", "count", "lower"),
    ("checks.weight_table_s", "s", "lower"),
    ("checks.verify_s", "s", "lower"),
    ("checks.monte_carlo_s", "s", "lower"),
    ("checks.mc_steps_per_s", "1/s", "higher"),
    ("cli.self_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.cpu_util", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


class _Absent(Exception):
    pass


def span_metrics(spans: list[dict], absent) -> dict[str, float | None]:
    """Per-layer metrics from one traced run's spans; None marks absent.

    A metric is absent when a span it needs names a function that could not
    be found, or when a counter could not be read from a call's result.
    """
    absent = set(absent)
    self_s = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)
    parent = {sp["id"]: sp["parent"] for sp in spans}

    def calls(name):
        if name in absent:
            raise _Absent(name)
        return by_name.get(name, [])

    def self_of(*names):
        return sum(self_s[sp["id"]] for n in names for sp in calls(n))

    def counter(name, key):
        total = 0
        for sp in calls(name):
            if key not in sp["counters"]:
                raise _Absent(f"{name}:{key}")
            total += sp["counters"][key]
        return total

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def reconstruction():
        """(rounds, dense bytes) over the kernel_vector calls."""
        per_call: dict[int, int] = {}
        solves = {sp["id"]: sp for sp in calls("kernel.kernel_vector")}
        for sp in calls("kernel.rational_reconstruction"):
            node = sp["parent"]
            while node is not None and node not in solves:
                node = parent[node]
            if node is not None:
                per_call[node] = per_call.get(node, 0) + 1
        rounds = dense = 0
        for sid, count in per_call.items():
            n = solves[sid]["counters"].get("dimension")
            if n is None:
                raise _Absent("kernel.kernel_vector:dimension")
            rounds += count / n
            dense += 8 * n * n
        return rounds, dense

    formulas = {
        "diagrams.enumerate_s": lambda: self_of("diagrams.enumerate_diagrams"),
        "diagrams.orbits_s": lambda: self_of("diagrams.compute_orbits"),
        "diagrams.basis_size": lambda: counter("diagrams.enumerate_diagrams", "basis_size"),
        "diagrams.orbit_count": lambda: counter("diagrams.compute_orbits", "orbit_count"),
        "generators.check_relations_s": lambda: self_of("generators.check_relations"),
        "generators.relation_cases": lambda: counter("generators.check_relations", "cases"),
        "generators.cases_per_s": lambda: rate(
            counter("generators.check_relations", "cases"),
            self_of("generators.check_relations")),
        "hamiltonian.build_reduced_s": lambda: self_of("hamiltonian.build_reduced"),
        "hamiltonian.validate_s": lambda: self_of("hamiltonian.IntensityMatrix.validate"),
        "hamiltonian.connectivity_s": lambda: self_of("hamiltonian.connectivity_check"),
        "hamiltonian.annihilates_s": lambda: self_of("hamiltonian.annihilates"),
        "hamiltonian.dimension": lambda: counter("hamiltonian.build_reduced", "dimension"),
        "hamiltonian.nnz": lambda: counter("hamiltonian.build_reduced", "nnz"),
        "kernel.kernel_vector_s": lambda: self_of("kernel.kernel_vector"),
        "kernel.kernel_vector_calls": lambda: len(calls("kernel.kernel_vector")),
        "kernel.rational_reconstruction_s": lambda: self_of("kernel.rational_reconstruction"),
        "kernel.reconstruction_rounds": lambda: reconstruction()[0],
        "kernel.dense_bytes_computed": lambda: reconstruction()[1],
        "kernel.normalize_s": lambda: self_of("kernel.normalize_integer"),
        "kernel.groundstate_self_s": lambda: self_of("kernel.groundstate"),
        "kernel.cache_save_s": lambda: self_of("kernel.save_cached_groundstate"),
        "kernel.cache_load_s": lambda: self_of("kernel.load_cached_groundstate"),
        "kernel.cache_bytes_written": lambda: counter("kernel.save_cached_groundstate", "bytes"),
        "kernel.cache_bytes_read": lambda: counter("kernel.load_cached_groundstate", "bytes"),
        "kernel.cache_hits": lambda: counter("kernel.load_cached_groundstate", "hit"),
        "kernel.cache_misses": lambda: counter("kernel.load_cached_groundstate", "miss"),
        "checks.weight_table_s": lambda: self_of("checks.permutation_weight_table"),
        "checks.verify_s": lambda: self_of(*VERIFY_SPANS),
        "checks.monte_carlo_s": lambda: self_of("checks.monte_carlo_crosscheck"),
        "checks.mc_steps_per_s": lambda: rate(
            counter("checks.monte_carlo_crosscheck", "steps"),
            self_of("checks.monte_carlo_crosscheck")),
        "cli.self_s": lambda: self_of("cli.main"),
        "trace.unattributed_s": lambda: self_of(ROOT_SPAN),
    }
    out: dict[str, float | None] = {}
    for name, formula in formulas.items():
        try:
            out[name] = formula()
        except _Absent:
            out[name] = None
    return out
