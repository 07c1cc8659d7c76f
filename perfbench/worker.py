"""One benchmark iteration in a fresh interpreter.

Usage: ``python3 perfbench/worker.py JOB.json`` (started by ``run.py``).

The interpreter is new for every iteration, so the program's ``lru_cache``s
start cold. The first thing it does is ``import brauerloop.cli``; it then
prints ``ready`` on stdout, which is where the parent stops timing set-up.
It runs the job's operations one after another (a closed loop with one
client), capturing their output, and writes a JSON result to the job's
``out`` path. With ``trace`` set, spans are recorded around the program's
stage functions (see ``layers.py``). With ``reference`` set, a burst of the
fixed reference work (``reference.py``) is timed before the first operation
and after each one; ``wall_s`` leaves the bursts out.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def snapshot(cache_dir) -> dict[str, list[int]]:
    """name -> [size, mtime_ns, inode] of each file in the cache directory."""
    if cache_dir is None or not os.path.isdir(cache_dir):
        return {}
    out = {}
    for entry in os.scandir(cache_dir):
        st = entry.stat()
        out[entry.name] = [st.st_size, st.st_mtime_ns, st.st_ino]
    return out


def run_op(op: dict):
    """Run one operation; returns (exit code, stdout text, stderr text, extra)."""
    out, err = io.StringIO(), io.StringIO()
    extra = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if op["kind"] == "cli":
            code = sys.modules["brauerloop.cli"].main(op["argv"])
        elif op["kind"] == "check_relations":
            check_relations = getattr(sys.modules["brauerloop"], "check_relations", None)
            if check_relations is None:
                raise LookupError("brauerloop.check_relations is absent")
            report = check_relations(op["length"])
            extra["all_passed"] = bool(report.all_passed)
            code = 0
        else:
            raise ValueError(f"unknown operation kind {op['kind']!r}")
    return code, out.getvalue(), err.getvalue(), extra


def main() -> int:
    import brauerloop.cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    job = json.loads(Path(sys.argv[1]).read_text())
    src = os.path.realpath(job["src"])
    where = brauerloop.cli.__file__
    if not os.path.realpath(where).startswith(src + os.sep):
        print(f"brauerloop imported from {where}, not {src}", file=sys.stderr)
        return 2

    tracer = absent = None
    if job.get("trace"):
        import layers
        from spans import Tracer

        tracer = Tracer(run_id=job["run_id"])
        absent = tracer.install(layers.TARGETS, layers.COUNTERS)

    burst = None
    if job.get("reference"):
        from reference import burst
    records, texts, ref_s = [], [], []
    cache_dir = job.get("cache_dir")
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    root = tracer.span(layers.ROOT_SPAN) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with root:
        if burst:
            ref_s.append(burst())
        for op in job["ops"]:
            start = time.perf_counter()
            record = {"start": start, "exit": None, "error": None}
            try:
                code, stdout, stderr, extra = run_op(op)
                record["exit"] = code
                record.update(extra)
            except SystemExit as exc:
                record["exit"] = exc.code if isinstance(exc.code, int) else 1
                stdout = stderr = ""
            except Exception:
                record["error"] = traceback.format_exc(limit=5)
                stdout = stderr = ""
            record["end"] = time.perf_counter()
            record["cache_after"] = snapshot(cache_dir)
            records.append(record)
            texts.append((stdout, stderr))
            if burst:
                ref_s.append(burst())
    t1 = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    for record, (stdout, stderr) in zip(records, texts):
        record["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        record["stderr_tail"] = stderr[-400:]
    result = {
        "wall_s": t1 - t0 - sum(ref_s),
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "ops": records,
        "ref_s": ref_s,
    }
    if tracer is not None:
        result["spans"] = tracer.export()
        result["absent"] = absent
    Path(job["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
