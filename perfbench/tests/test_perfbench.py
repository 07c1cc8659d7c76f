"""Tests of the benchmark itself, at L <= 8 so they finish in seconds.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import Tracer, covered, self_times  # noqa: E402

TINY_COLD = run.Workload(
    "tiny-cold", "cold", tuple(range(2, 9)),
    lambda seed, cache: [
        run.cli_op("verify", "--max-length", "8", "--which", "all", cache_dir=cache),
        run.cli_op("sequence", "--max-n", "4", cache_dir=cache),
    ],
)
TINY_WARM = run.Workload(
    "tiny-warm", "warm", tuple(range(2, 9)),
    lambda seed, cache: [
        run.cli_op("groundstate", "--length", "8", "--format", "json", cache_dir=cache),
        run.cli_op("sequence", "--max-n", "4", cache_dir=cache),
    ] + [{"kind": "check_relations", "length": n, "golden": None} for n in (3, 4, 5)],
)


@pytest.fixture
def golden():
    return json.loads(run.GOLDEN.read_text())


@pytest.fixture(autouse=True)
def few_setup_spawns(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_duration_minus_children():
    tracer = Tracer("t", clock=fake_clock([0.0, 1.0, 1.5, 2.0, 3.0, 3.0, 4.0, 10.0]))
    with tracer.span("root"):          # 0 .. 10
        with tracer.span("a"):         # 1 .. 3, with a child 1.5 .. 2
            with tracer.span("a1"):
                pass
        with tracer.span("b"):         # 3 .. 4
            pass
    spans = tracer.export()
    by_id = self_times(spans)
    by_name = {sp["name"]: by_id[sp["id"]] for sp in spans}
    assert by_name == {"root": 7.0, "a": 1.5, "a1": 0.5, "b": 1.0}
    assert sum(by_name.values()) == pytest.approx(10.0)
    assert [sp["parent"] for sp in spans] == [None, 0, 1, 0]
    assert {sp["run_id"] for sp in spans} == {"t"}


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0), (-2.0, 0.5)]) == 5.5
    assert covered((0.0, 1.0), []) == 0.0


def test_summary_reports_median_quartiles_and_count():
    s = run.summarize([8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    assert s == {"median": 4.5, "q1": 2.25, "q3": 6.75, "n": 8}
    assert run.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_missing_names_are_reported_absent():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return [x] * x

    mod.work = user.work = work
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user})
    try:
        tracer = Tracer("t")
        absent = tracer.install(
            [("fakepkg.mod", "work"), ("fakepkg.mod", "gone"), ("fakepkg.nomod", "f")],
            counters={"mod.work": lambda r, a, k: {"items": len(r)}},
        )
        assert absent == ["mod.gone", "nomod.f"]
        assert user.work(3) == [3, 3, 3] and mod.work is user.work
        (span,) = tracer.export()
        assert span["name"] == "mod.work" and span["counters"] == {"items": 3}
    finally:
        for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
            sys.modules.pop(name)

    metrics = layers.span_metrics([], absent=["kernel.kernel_vector"])
    assert metrics["kernel.kernel_vector_s"] is None
    assert metrics["kernel.reconstruction_rounds"] is None
    assert metrics["diagrams.enumerate_s"] == 0

    broken = {"id": 0, "parent": None, "name": "hamiltonian.build_reduced", "start": 0.0,
              "end": 1.0, "counters": {"counter_error": "AttributeError: columns"}}
    metrics = layers.span_metrics([broken], absent=[])
    assert metrics["hamiltonian.nnz"] is None
    assert metrics["hamiltonian.build_reduced_s"] == 1.0


def test_seed_outputs_match_golden(golden):
    record = run.run(TINY_COLD, seed=0, seconds=0, trace=False, golden=golden)
    assert record["attempted"] == 2 and record["failed"] == 0
    assert record["summary"]["failed_frac"]["median"] == 0
    assert record["summary"]["wall_s"]["n"] == 1

    # wall_s and setup_s are the measured medians scaled by the bursts around them.
    assert reference.factor([0.05, 0.15]) == pytest.approx(1.0)
    assert reference.factor([2 * reference.NOMINAL_S]) == 0.5
    (it,) = record["iterations"]
    assert len(it["ref_s"]) == it["attempted"] + 1
    assert it["spawn_ref_s"][1] == it["ref_s"][0]
    bursts, scale, summary = record["ref_bursts"], record["scale"], record["summary"]
    assert len(bursts["spawns"]) == 2 * 2 and bursts["ops"] == it["ref_s"]
    assert scale == {"setup_s": reference.factor(bursts["spawns"]),
                     "wall_s": reference.factor(bursts["ops"])}
    assert summary["wall_s"]["median"] == pytest.approx(it["wall_s"] * scale["wall_s"])
    assert summary["raw_wall_s"]["median"] == it["wall_s"]
    assert it["wall_s"] == pytest.approx(sum(it["op_seconds"]), abs=0.05)
    assert summary["setup_s"]["n"] == 2
    assert summary["setup_s"]["median"] == pytest.approx(
        summary["raw_setup_s"]["median"] * scale["setup_s"])


@pytest.mark.parametrize("section,key", [("cache", "4"), ("stdout", "sequence --max-n 4")])
def test_corrupted_golden_counts_as_failed(golden, section, key):
    golden[section][key] = "0" * 64
    record = run.run(TINY_COLD, seed=0, seconds=0, trace=False, golden=golden)
    assert record["failed"] >= 1
    assert record["summary"]["failed_frac"]["median"] > 0
    assert json.loads(run.final_line(record))["correct"] is False


def test_traced_warm_run_hits_the_cache_and_accounts_for_its_time(golden):
    record = run.run(TINY_WARM, seed=0, seconds=0, trace=True, golden=golden)
    assert record["failed"] == 0, record["iterations"]
    metrics = record["per_layer"]
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["kernel.kernel_vector_calls"] == 0
    assert metrics["kernel.cache_misses"] == 0
    assert metrics["kernel.cache_hits"] == 1 + 4  # groundstate L=8; sequence L=2,4,6,8
    assert metrics["generators.check_relations_s"] > 0
    assert record["absent"] == []

    traced = next(it for it in record["iterations"] if it["traced"])
    spans = record["spans"]
    (root,) = [sp for sp in spans if sp["name"] == layers.ROOT_SPAN]
    total_self = sum(self_times(spans).values())
    assert total_self == pytest.approx(root["end"] - root["start"])
    assert total_self == pytest.approx(traced["wall_s"], rel=0.01)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
