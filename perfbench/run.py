"""Benchmark of the brauerloop pipeline: cold and warm workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-ladder --seed 1 --seconds 55 --trace 0

This process runs one worker subprocess (``worker.py``) at a time. Each
worker is a fresh interpreter, so the program's ``lru_cache``s start cold,
and it runs the workload's operations in order: a closed loop with one
client. An operation is one CLI command or one library call. The worker uses
the program's defaults (``--threads`` and OpenBLAS threads included) and runs
in a fresh temporary directory with ``BRAUER_CACHE_DIR`` unset, always
passing ``--cache-dir`` explicitly.

Workloads (all lengths fixed; ``--seed`` goes only to ``simulate --seed``):

* ``cold-ladder``: an empty cache, then ``verify --max-length 12 --which
  all`` and ``sequence --max-n 6``. Every length is assembled and solved:
  L <= 10 by Bareiss, L = 11 and 12 by the dense modular solver (n ~ 500),
  so a solver tuned for large n that gets slower at small n shows here.
* ``warm-checks``: a cache for L = 2..13 filled before timing by the code
  under test, then groundstate/verify at L = 13, sequence, count-classes
  (enumerates L = 14), simulate, and ``check_relations(L)`` for L = 3..10.
  Nothing is assembled or solved, so a solver change must show no change
  here, and work moved onto the cache-hit path shows as a cost.

The L = 2..13 cache is built once per source tree into
``.bench_build/perfbench`` (about two minutes at the seed, dominated by the
L = 13 solve) and copied into each warm iteration. The benchmark's time is
spent in iterations of a workload, each in its own worker, until
``--seconds`` would be exceeded, and what is left of it in more set-up
spawns; every metric is the median over the run.

End-to-end metrics (``--trace 0``): ``wall_s`` (time of the operations,
after the import), ``setup_s`` (spawning a worker until ``import
brauerloop.cli`` returns, median over all spawns of the run) and
``peak_rss_mb`` (the worker's ``ru_maxrss``). ``wall_s`` and ``setup_s`` are
scaled to a nominal machine speed: bursts of fixed reference work
(``reference.py``) are timed right before and after every spawn and between
the operations, and each median is multiplied by ``NOMINAL_S`` over the mean
time of the bursts around its own samples (the spawns' for ``setup_s``, the
operations' for ``wall_s``). That takes out the drift of a shared host's CPU
speed, which otherwise moves the median of a run by 10-20 %. The measured
medians are printed as ``raw_wall_s`` and ``raw_setup_s``, the bursts as
``ref_spawn_s`` and ``ref_ops_s``, with ``failed_frac``. With ``--trace 1``
the run ends with one traced iteration (without bursts) and reports the
per-layer metrics of ``layers.py``.

Every operation is checked: exit code, SHA-256 of stdout against
``golden.json`` (recorded at the seed), cache files against their golden
hashes, cold runs must miss and write every length, warm runs must hit and
rewrite nothing, and a traced warm run must not call ``kernel_vector``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a full record (environment, every iteration,
spans) goes to ``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = BENCH_DIR / "golden.json"

sys.path.insert(0, str(BENCH_DIR))
import layers  # noqa: E402
from reference import burst, factor  # noqa: E402
from spans import self_times  # noqa: E402
from worker import snapshot  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_SPAWNS = 3
WORKER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def cli_op(*argv: str, cache_dir: str | None = None, golden: bool = True) -> dict:
    """A CLI operation; its golden key is the command line without --cache-dir."""
    full = list(argv) + (["--cache-dir", cache_dir] if cache_dir else [])
    return {"kind": "cli", "argv": full, "golden": " ".join(argv) if golden else None}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cold": starts from an empty cache; "warm": from the built cache
    cache_lengths: tuple[int, ...]
    ops: Callable[[int, str], list[dict]]  # (seed, cache_dir) -> operations


def _cold_ladder_ops(seed, cache):
    return [
        cli_op("verify", "--max-length", "12", "--which", "all", cache_dir=cache),
        cli_op("sequence", "--max-n", "6", cache_dir=cache),
    ]


def _warm_checks_ops(seed, cache):
    return [
        cli_op("groundstate", "--length", "13", "--format", "json", cache_dir=cache),
        cli_op("verify", "--max-length", "13", cache_dir=cache),
        cli_op("sequence", "--max-n", "6", cache_dir=cache),
        cli_op("count-classes", "--max-n", "7"),
        # Random output; only the exit code under --z-limit is checked.
        cli_op("simulate", "--length", "8", "--samples", "1000000", "--seed", str(seed),
               "--z-limit", "5", cache_dir=cache, golden=False),
    ] + [{"kind": "check_relations", "length": n, "golden": None} for n in range(3, 11)]


WORKLOADS = {
    "cold-ladder": Workload("cold-ladder", "cold", tuple(range(2, 13)), _cold_ladder_ops),
    "warm-checks": Workload("warm-checks", "warm", tuple(range(2, 14)), _warm_checks_ops),
}


# ---------------------------------------------------------------- statistics

def summarize(values: list[float]) -> dict:
    """Median, quartiles (as statistics.quantiles(n=4) gives them) and count."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def scaled(stats: dict, scale: float | None) -> dict:
    """``stats`` from ``summarize`` with each time multiplied by ``scale``."""
    if scale is None or stats["n"] == 0:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    return {k: v if k == "n" else v * scale for k, v in stats.items()}


# ---------------------------------------------------------------- environment

def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # older numpy without mode="dicts"
        blas = {"error": str(exc)}
    commit = "unknown"
    if (ROOT / ".git").exists():  # a checkout without .git has no commit to report
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": commit,
    }


def source_key() -> str:
    """Hash of the program's source tree; keys the built warm cache."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- workers

def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BRAUER_CACHE_DIR", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_worker(ops: list[dict], *, cache_dir: str | None, trace: bool, timeout: float,
               run_id: str, reference: bool = False) -> dict:
    """Spawn one worker in a fresh directory; return its result plus timings.

    With ``reference``, ``ref_s`` lists the reference bursts the worker timed
    around its operations, and ``spawn_ref_s`` the two around the spawn: one
    timed here right before it and the worker's first.

    Never raises for a failing worker: the returned dict then carries
    ``error`` and no ``ops``.
    """
    with tempfile.TemporaryDirectory(prefix="w-", dir=WORK / "tmp") as tmp:
        scratch = Path(tmp)
        job_path, out_path = scratch / "job.json", scratch / "result.json"
        cwd = scratch / "cwd"
        cwd.mkdir()
        job_path.write_text(json.dumps({
            "ops": ops, "cache_dir": cache_dir, "trace": trace, "run_id": run_id,
            "src": str(SRC), "out": str(out_path), "reference": reference,
        }))
        result: dict = {"loadavg_before": loadavg()}
        ref_spawn = burst() if reference else None
        with open(scratch / "stderr.txt", "wb") as stderr:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                cwd=cwd, env=worker_env(), stdout=subprocess.PIPE, stderr=stderr,
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                t_ready = time.perf_counter()
                proc.stdout.read()
                code = proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
            t_exit = time.perf_counter()
        if line.strip() == b"ready":
            result["setup_s"] = t_ready - t_spawn
        if code == 0 and out_path.exists():
            result.update(json.loads(out_path.read_text()))
        else:
            tail = (scratch / "stderr.txt").read_text(errors="replace")[-2000:]
            result["error"] = f"worker exited with {code}: {tail}"
    if reference:
        result["spawn_ref_s"] = [ref_spawn] + result.get("ref_s", [])[:1]
    result["process_s"] = t_exit - t_spawn
    result["loadavg_after"] = loadavg()
    return result


# ---------------------------------------------------------------- checks

def cache_problems(cache_dir: Path, lengths, golden: dict) -> list[str]:
    """Differences between the cache directory and the golden cache files."""
    expected = {f"groundstate-L{n:02d}.json": golden["cache"][str(n)] for n in lengths}
    present = {p.name for p in cache_dir.iterdir()} if cache_dir.is_dir() else set()
    problems = [f"missing cache file {name}" for name in sorted(set(expected) - present)]
    problems += [f"unexpected cache file {name}" for name in sorted(present - set(expected))]
    for name in sorted(set(expected) & present):
        if hashlib.sha256((cache_dir / name).read_bytes()).hexdigest() != expected[name]:
            problems.append(f"cache file {name} differs from its golden hash")
    return problems


def check_iteration(workload: Workload, ops: list[dict], result: dict, cache_dir: Path,
                    before: dict, golden: dict) -> dict[int, list[str]]:
    """Operation index -> problems found; an operation with any problem failed."""
    problems: dict[int, list[str]] = {}

    def fail(i, msg):
        problems.setdefault(i, []).append(msg)

    if "error" in result:
        for i in range(len(ops)):
            fail(i, result["error"])
        return problems
    records = result["ops"]
    for i, (op, rec) in enumerate(zip(ops, records)):
        if rec["error"]:
            fail(i, rec["error"].strip().splitlines()[-1])
        elif rec["exit"] != 0:
            fail(i, f"exit code {rec['exit']}: {rec['stderr_tail'].strip()}")
        if op["kind"] == "check_relations" and rec.get("all_passed") is not True:
            fail(i, f"check_relations({op['length']}) did not report all_passed")
        if op["golden"] is not None:
            want = golden["stdout"].get(op["golden"])
            if want is None:
                fail(i, f"no golden output recorded for {op['golden']!r}")
            elif rec["stdout_sha256"] != want:
                fail(i, f"stdout of {op['golden']!r} differs from its golden hash")

    if workload.kind == "cold":
        # The first operation must miss and write every length; later ones
        # must find them and rewrite nothing.
        if before:
            fail(0, "cold cache directory was not empty")
        written = records[0]["cache_after"]
        for i, rec in enumerate(records[1:], start=1):
            if rec["cache_after"] != written:
                fail(i, "cache files changed after the cold fill")
    else:
        for i, rec in enumerate(records):
            if rec["cache_after"] != before:
                fail(i, "warm cache files were written")
    for msg in cache_problems(cache_dir, workload.cache_lengths, golden):
        fail(0, msg)

    if "spans" in result:
        starts = [rec["start"] for rec in records]

        def op_of(span):
            return max((i for i, s in enumerate(starts) if s <= span["start"]), default=0)

        loads = [sp for sp in result["spans"] if sp["name"] == "kernel.load_cached_groundstate"]
        misses = sum(sp["counters"].get("miss", 0) for sp in loads)
        hits = sum(sp["counters"].get("hit", 0) for sp in loads)
        solves = [sp for sp in result["spans"] if sp["name"] == "kernel.kernel_vector"]
        if workload.kind == "cold":
            if loads and misses != len(workload.cache_lengths):
                fail(0, f"traced cold run missed the cache {misses} times, expected "
                        f"{len(workload.cache_lengths)}")
        else:
            for sp in solves:
                fail(op_of(sp), "traced warm run called kernel_vector")
            for sp in loads:
                if sp["counters"].get("miss"):
                    fail(op_of(sp), "traced warm run missed the cache")
            if "kernel.load_cached_groundstate" not in result["absent"] and hits == 0:
                fail(0, "traced warm run never hit the cache")
    return problems


# ---------------------------------------------------------------- warm cache

def ensure_warm_cache(lengths, golden: dict) -> tuple[Path, dict]:
    """The cache for ``lengths``, filled once per source tree by the program."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    final = WORK / f"warm-{source_key()}-L{max(lengths)}"
    info_path = final / "build.json"
    if info_path.exists():
        info = json.loads(info_path.read_text())
        info["reused"] = True
        return final / "cache", info
    staging = Path(tempfile.mkdtemp(prefix="build-", dir=WORK))
    cache = staging / "cache"
    ops = [cli_op("groundstate", "--length", str(n), "--format", "json", cache_dir=str(cache),
                  golden=False) for n in lengths]
    t0 = time.perf_counter()
    result = run_worker(ops, cache_dir=str(cache), trace=False, timeout=BUILD_TIMEOUT_S,
                        run_id="build")
    info = {"seconds": time.perf_counter() - t0, "reused": False,
            "peak_rss_mb": result.get("peak_rss_mb"),
            "op_seconds": {str(n): rec["end"] - rec["start"]
                           for n, rec in zip(lengths, result.get("ops", []))},
            "problems": cache_problems(cache, lengths, golden)}
    if "error" in result:
        shutil.rmtree(staging, ignore_errors=True)
        raise RuntimeError(f"building the warm cache failed: {result['error']}")
    (staging / "build.json").write_text(json.dumps(info, indent=1))
    try:
        staging.rename(final)
    except OSError:  # built concurrently by another run: use that one
        shutil.rmtree(staging, ignore_errors=True)
    return final / "cache", info


# ---------------------------------------------------------------- one run

def run(workload: Workload, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    """Measure one workload for about ``seconds``; return the full record."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    record: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                    "trace": trace, "loadavg_start": loadavg()}
    warm_source = None
    if workload.kind == "warm":
        warm_source, _ = ensure_warm_cache(workload.cache_lengths, golden)
    t_start = time.perf_counter()
    setup, spawn_bursts = [], []

    def setup_spawn() -> float:
        """Spawn a worker with no operations for a set-up sample; its duration."""
        t0 = time.perf_counter()
        res = run_worker([], cache_dir=None, trace=False, timeout=WORKER_TIMEOUT_S,
                         run_id=f"setup-{len(setup)}", reference=True)
        if "setup_s" in res:
            setup.append(res["setup_s"])
        spawn_bursts.extend(res["spawn_ref_s"])
        return time.perf_counter() - t0

    longest_spawn = max((setup_spawn() for _ in range(SETUP_SPAWNS)), default=0.0)

    # Untraced iterations while the next one is expected to fit the budget
    # (half of it when a traced iteration follows); always at least one.
    iterations = []
    longest = 0.0
    budget = seconds / 2 if trace else seconds
    while not iterations or time.perf_counter() - t_start + longest <= budget:
        it_start = time.perf_counter()
        iterations.append(run_iteration(workload, seed, warm_source, golden, False,
                                        run_id=f"{workload.name}-{seed}-{len(iterations)}"))
        longest = max(longest, time.perf_counter() - it_start)
    # The time left after the last iteration that fits goes to more set-up samples.
    while time.perf_counter() - t_start + longest_spawn <= budget:
        longest_spawn = max(longest_spawn, setup_spawn())
    if trace:
        iterations.append(run_iteration(workload, seed, warm_source, golden, True,
                                        run_id=f"{workload.name}-{seed}-traced"))
    record["measured_s"] = time.perf_counter() - t_start
    record["iterations"] = iterations
    record["loadavg_end"] = loadavg()

    untraced = [it for it in iterations if not it["traced"]]
    setup += [it["setup_s"] for it in untraced if it.get("setup_s") is not None]
    spawn_bursts += [b for it in untraced for b in it["spawn_ref_s"]]
    op_bursts = [b for it in untraced for b in it.get("ref_s", [])]
    record["setup_samples"] = setup
    record["ref_bursts"] = {"spawns": spawn_bursts, "ops": op_bursts}
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    raw_wall = summarize([it["wall_s"] for it in untraced if it.get("wall_s") is not None])
    raw_setup = summarize(setup)
    record["scale"] = {"setup_s": factor(spawn_bursts),
                       "wall_s": factor(op_bursts) if op_bursts else None}
    record["summary"] = {
        "wall_s": scaled(raw_wall, record["scale"]["wall_s"]),
        "setup_s": scaled(raw_setup, record["scale"]["setup_s"]),
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
        "ref_spawn_s": summarize(spawn_bursts),
        "ref_ops_s": summarize(op_bursts),
        "peak_rss_mb": summarize([it["peak_rss_mb"] for it in untraced
                                  if it.get("peak_rss_mb") is not None]),
        "failed_frac": summarize([it["failed"] / it["attempted"] for it in iterations]),
    }
    record["attempted"], record["failed"] = attempted, failed
    if trace:
        tr = next(it for it in iterations if it["traced"])
        record["per_layer"] = per_layer_metrics(tr, raw_wall["median"])
        record["absent"] = tr.get("absent", [])
        record["spans"] = tr.pop("spans", [])
    return record


def run_iteration(workload: Workload, seed: int, warm_source: Path | None, golden: dict,
                  traced: bool, run_id: str) -> dict:
    cache_root = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK / "tmp"))
    try:
        cache_dir = cache_root / "cache"
        if warm_source is not None:
            shutil.copytree(warm_source, cache_dir)
        else:
            cache_dir.mkdir()
        before = snapshot(cache_dir)
        ops = workload.ops(seed, str(cache_dir))
        result = run_worker(ops, cache_dir=str(cache_dir), trace=traced,
                            timeout=WORKER_TIMEOUT_S, run_id=run_id, reference=not traced)
        problems = check_iteration(workload, ops, result, cache_dir, before, golden)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    it = {
        "traced": traced,
        "attempted": len(ops),
        "failed": len(problems),
        "problems": {str(i): msgs for i, msgs in sorted(problems.items())},
        "op_seconds": [rec["end"] - rec["start"] for rec in result.get("ops", [])],
    }
    for key in ("setup_s", "wall_s", "ref_s", "spawn_ref_s", "cpu_s", "peak_rss_mb",
                "process_s",
                "loadavg_before", "loadavg_after", "spans", "absent"):
        if key in result:
            it[key] = result[key]
    return it


def per_layer_metrics(traced: dict, untraced_wall: float | None) -> dict[str, float | None]:
    wall = traced.get("wall_s")
    if wall is None:
        return {name: None for name, _, _ in layers.PER_LAYER}
    metrics = layers.span_metrics(traced["spans"], traced["absent"])
    metrics["process.cpu_s"] = traced["cpu_s"]
    metrics["process.cpu_util"] = traced["cpu_s"] / wall if wall > 0 else 0.0
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced_wall if untraced_wall is not None else None
    return {name: metrics.get(name) for name, _, _ in layers.PER_LAYER}


# ---------------------------------------------------------------- report

def report_lines(record: dict) -> list[str]:
    units = dict(END_TO_END + [("raw_wall_s", "s"), ("raw_setup_s", "s"),
                               ("ref_spawn_s", "s"), ("ref_ops_s", "s"),
                               ("failed_frac", "ratio")])
    lines = [
        f"perfbench workload={record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']:g} trace={int(record['trace'])} "
        f"iterations={len(record['iterations'])} attempted={record['attempted']} "
        f"failed={record['failed']} measured_s={record['measured_s']:.1f}"
    ]
    build = record.get("warm_cache_build")
    if build:
        state = "reused" if build["reused"] else f"built in {build['seconds']:.1f} s"
        lines.append(f"  warm cache L=2..13: {state}; problems: {build['problems'] or 'none'}")
    for name, stats in record["summary"].items():
        if stats["n"] == 0:
            lines.append(f"  {name:<12} {units[name]:<6} no samples")
            continue
        lines.append(f"  {name:<12} {units[name]:<6} median {stats['median']:.6g}  "
                     f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}")
    for it in record["iterations"]:
        for i, msgs in it["problems"].items():
            for msg in msgs:
                lines.append(f"  FAILED op {i}: {msg}")
    if record["trace"]:
        spans = record["spans"]
        roots = [sp for sp in spans if sp["name"] == layers.ROOT_SPAN]
        if roots:
            lines.append(f"  self times of {len(spans)} spans sum to "
                         f"{sum(self_times(spans).values()):.6g} s; traced wall "
                         f"{record['per_layer']['trace.wall_s']:.6g} s")
        for name, unit, _ in layers.PER_LAYER:
            value = record["per_layer"][name]
            shown = "absent" if value is None else f"{value:.6g}"
            lines.append(f"  {name:<34} {unit:<6} {shown}")
    return lines


def final_line(record: dict) -> str:
    if record["trace"]:
        metrics = {name: {"value": record["per_layer"][name] or 0, "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {name: {"value": record["summary"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so the worker running at that moment is
    # killed and waited for in run_worker's finally block.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "brauerloop" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'brauerloop'}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    env = environment()
    try:
        # Whichever run comes first in a checkout builds the warm cache, so the
        # build never lands in a later run's time limit.
        _, build = ensure_warm_cache(WORKLOADS["warm-checks"].cache_lengths, golden)
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     golden)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record["environment"] = env
    record["warm_cache_build"] = build
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1))
    for line in report_lines(record):
        print(line)
    print(f"  record: {out.relative_to(ROOT)}")
    print(final_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
