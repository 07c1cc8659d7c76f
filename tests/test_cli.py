import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import brauerloop.kernel as kernel_module
from brauerloop import BasisTooLargeError, check_relations, enumerate_diagrams, groundstate
from brauerloop.cli import build_parser, main, resolve_cache_dir
from brauerloop.kernel import cache_path, serialize_groundstate

from conftest import clear_memos, count_enumerations


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_single_diagram(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--length", "2")
        assert code == 0
        assert out.strip() == "2,1"

    def test_classes_for_l4(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--length", "4", "--classes")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 2
        assert sorted(int(r.split()[1]) for r in rows) == [1, 2]

    def test_l6_row_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--length", "6")
        assert code == 0
        assert len(out.strip().splitlines()) == 15


class TestGroundstate:
    def test_csv_weights_l6(self, capsys, tmp_path):
        code, out, _ = run(capsys, "groundstate", "--length", "6", "--format", "csv",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "representative,size,weight,label"
        weights = sorted((int(line.split(",")[-2]) for line in lines[1:]), reverse=True)
        assert weights == [63, 31, 13, 3, 1]

    def test_table_weights_l5(self, capsys, tmp_path):
        code, out, _ = run(capsys, "groundstate", "--length", "5",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert "weight 7" in out and "weight 3" in out and "weight 1" in out

    def test_json_matches_cache_schema(self, capsys, tmp_path):
        code, out, _ = run(capsys, "groundstate", "--length", "4", "--format", "json",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"checksum", "generator", "length", "normalization", "orbits"}
        cached = (tmp_path / "groundstate-L04.json").read_text()
        assert out == cached

    def test_warm_cache_identical_bytes_without_solving(self, capsys, tmp_path, monkeypatch):
        code, first, _ = run(capsys, "groundstate", "--length", "6", "--format", "json",
                             "--cache-dir", str(tmp_path))
        assert code == 0
        import brauerloop.kernel as kernel_module

        monkeypatch.setattr(
            kernel_module, "kernel_vector",
            lambda *a, **k: pytest.fail("warm cache must not recompute"),
        )
        code, second, _ = run(capsys, "groundstate", "--length", "6", "--format", "json",
                              "--cache-dir", str(tmp_path))
        assert code == 0
        assert second == first

    def test_json_skips_orbit_labels(self, capsys, tmp_path, monkeypatch):
        import brauerloop.cli as cli_module

        def boom(*args):
            raise AssertionError("labels are not part of the JSON output")

        monkeypatch.setattr(cli_module, "_orbit_labels", boom)
        assert main(["groundstate", "--length", "5", "--format", "json",
                     "--cache-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["length"] == 5


class TestVerify:
    def test_all_checks_pass_to_l6(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--max-length", "6", "--which", "all",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert "FAIL" not in out

    def test_degrees_only(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--max-length", "6", "--which", "degrees",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.startswith("degrees")

    def test_integrality_l2(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--max-length", "2",
                           "--which", "integrality", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "PASS" in out

    def test_json_format(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "--max-length", "4", "--which", "sum-rule",
                           "--format", "json", "--cache-dir", str(tmp_path))
        assert code == 0
        records = json.loads(out)
        assert all(r["status"] == "PASS" for r in records)


class TestSequence:
    def test_first_four(self, capsys, tmp_path):
        code, out, err = run(capsys, "sequence", "--max-n", "4",
                             "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.strip() == "1 3 31 1145"
        assert "ok" in err

    def test_single_term(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sequence", "--max-n", "1", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.strip() == "1"


class TestCountClasses:
    def test_published_prefix(self, capsys):
        code, out, _ = run(capsys, "count-classes", "--max-n", "5",
                           "--max-enumerate-length", "10")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [1, 2, 5, 17, 79]
        assert all(r[3] == "yes" for r in rows)

    def test_beyond_enumeration_ceiling(self, capsys):
        code, out, _ = run(capsys, "count-classes", "--max-n", "6",
                           "--max-enumerate-length", "8")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[-1].endswith("- -")


class TestSimulate:
    def test_small_run(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--length", "4", "--samples", "20000",
                           "--seed", "5", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "empirical" in out

    def test_z_limit_within_bound(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--length", "4", "--samples", "20000",
                         "--seed", "5", "--z-limit", "5.0", "--cache-dir", str(tmp_path))
        assert code == 0


class TestErrors:
    def test_usage_error_exit_code(self, capsys):
        assert run(capsys, "enumerate")[0] == 2

    def test_unknown_flag_rejected(self, capsys):
        assert run(capsys, "enumerate", "--length", "4", "--bogus")[0] == 2

    def test_internal_error_exit_code(self, capsys, tmp_path):
        # A cache file that is not the writer's text is an internal error.
        cache_path(tmp_path, 4).write_text("{}\n")
        code, _, err = run(capsys, "groundstate", "--length", "4", "--cache-dir", str(tmp_path))
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("length, corrupt, fault", [
        (6, lambda text: text[:-40], lambda text: "ground-state cache failed its checksum"),
        (5, lambda text: serialize_groundstate(groundstate(4)),
         lambda text: "holds length 4, not 5"),
        (6, lambda text: text.removesuffix("\n"),
         lambda text: "ground-state cache is not the text written for its weights: "
                      f"byte {len(text) - 1} differs, in orbit 4"),
    ], ids=["checksum", "length", "written text"])
    def test_cache_refusal_is_one_line(self, length, corrupt, fault, capsys, tmp_path):
        # Each kind of refused cache file: exit 3, no output, one line naming the file.
        groundstate(length, cache_dir=tmp_path)
        path = cache_path(tmp_path, length)
        text = path.read_text()
        path.write_text(corrupt(text))
        argv = ["groundstate", "--length", str(length), "--cache-dir", str(tmp_path)]
        assert run(capsys, *argv) == (3, "", f"error: cache file {path.name}: {fault(text)}\n")

    @pytest.mark.parametrize("argv, largest", [
        (["verify", "--max-length", "17", "--cache-dir", "CACHE"], 17),
        (["sequence", "--max-n", "9", "--cache-dir", "CACHE"], 18),
        (["count-classes", "--max-n", "9", "--max-enumerate-length", "18"], 18),
    ])
    def test_length_ceiling_refused_before_any_smaller_length(self, argv, largest, capsys,
                                                              tmp_path, monkeypatch):
        import brauerloop.cli as cli_module

        def fail(*args, **kwargs):
            pytest.fail("no length may be solved or enumerated before the ceiling check")

        monkeypatch.setattr(cli_module, "groundstate", fail)
        monkeypatch.setattr(cli_module, "orbit_summary", fail)
        with pytest.raises(BasisTooLargeError) as refused:
            enumerate_diagrams(largest)
        argv = [str(tmp_path / "cache") if arg == "CACHE" else arg for arg in argv]
        assert run(capsys, *argv) == (2, "", f"error: {refused.value}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, floor", [
        (["verify", "--max-length", "1"], 2),
        (["sequence", "--max-n", "0"], 1),
        (["count-classes", "--max-n", "0"], 1),
    ])
    def test_empty_range_refused(self, argv, floor, capsys, tmp_path, monkeypatch):
        # Over no length at all a check would pass vacuously; the parser refuses it.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {argv[1]}: must be at least {floor}, "
                            f"got {argv[2]}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, floor", [
        ("--samples", "0", 100), ("--samples", "-5", 100), ("--samples", "99", 100),
        ("--burn-in", "-3", 0), ("--max-enumerate-length", "0", 2),
        ("--max-enumerate-length", "1", 2),
    ])
    def test_out_of_range_refused(self, flag, value, floor, capsys, tmp_path, monkeypatch):
        # Refused as usage (exit 2) by the parser, before anything is enumerated or solved.
        monkeypatch.chdir(tmp_path)
        command = (["count-classes", "--max-n", "3"] if flag == "--max-enumerate-length"
                   else ["simulate", "--length", "4"])
        code, out, err = run(capsys, *command, flag, value)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: must be at least {floor}, got {value}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["enumerate", "--length", "1"], "--length: must be at least 2, got 1"),
        (["enumerate", "--length", "1", "--classes"], "--length: must be at least 2, got 1"),
        (["groundstate", "--length", "0"], "--length: must be at least 2, got 0"),
        (["groundstate", "--length", "-3"], "--length: must be at least 2, got -3"),
        (["simulate", "--length", "1"], "--length: must be at least 2, got 1"),
        (["simulate", "--length", "4", "--z-limit", "-1"],
         "--z-limit: must be at least 0.0, got -1.0"),
        (["simulate", "--length", "4", "--z-limit", "nan"],
         "--z-limit: must be at least 0.0, got nan"),
        (["simulate", "--length", "4", "--z-limit", "x"], "--z-limit: invalid float value: 'x'"),
    ])
    def test_length_and_z_limit_refused(self, argv, message, capsys, tmp_path, monkeypatch):
        # A length below 2 has no diagram and a negative z-score bound is
        # exceeded by every run: both are usage errors (exit 2), refused by
        # the parser before the library's own checks or any work.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_zero_z_limit_accepted(self):
        args = build_parser().parse_args(["simulate", "--length", "2", "--z-limit", "0"])
        assert (args.length, args.z_limit) == (2, 0.0)

    @pytest.mark.parametrize("cached", [False, True])
    def test_groundstate_ceiling_refused_before_the_cache(self, cached, capsys, tmp_path):
        # A checksummed L = 17 file in the cache changes neither the exit code
        # nor the message: the length is refused before the cache is read.
        with pytest.raises(BasisTooLargeError) as refused:
            enumerate_diagrams(17)
        if cached:
            body = json.dumps({"generator": "reduced", "length": 17,
                               "normalization": "min-entry-one", "orbits": []},
                              sort_keys=True, separators=(",", ":"))
            checksum = hashlib.sha256(body.encode()).hexdigest()
            path = cache_path(tmp_path, 17)
            path.write_text('{"checksum":"' + checksum + '",' + body[1:] + "\n")
        argv = ["groundstate", "--length", "17", "--cache-dir", str(tmp_path)]
        assert run(capsys, *argv) == (2, "", f"error: {refused.value}\n")

    def test_threads_flag_removed(self, capsys):
        assert run(capsys, "groundstate", "--length", "4", "--threads", "2")[0] == 2


def test_import_loads_no_scipy_or_thread_pool():
    # numpy is the only runtime dependency, and importing the CLI stays light.
    import brauerloop

    src = str(Path(brauerloop.__file__).parents[1])
    probe = ("import sys, brauerloop.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "[]"


def test_solving_leaves_numpy_random_unloaded():
    # The solver's shadow residual comes from the standard library's seeded
    # generator; importing numpy.random costs a cold process 15-19 ms.
    import brauerloop

    src = str(Path(brauerloop.__file__).parents[1])
    probe = ("import sys; from brauerloop import groundstate; groundstate(12); "
             "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "False"


ONE_PROCESS = """
import contextlib, io, json, sys
from brauerloop.cli import build_parser, main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([out.getvalue(), err.getvalue(), code])
print(json.dumps({"results": results, "parsers": build_parser.cache_info().misses}))
"""


def test_commands_in_one_process_match_separate_processes(tmp_path):
    # The parser is built once per process and reused by every `main` call;
    # each command, usage errors included, must print and exit as on its own.
    commands = [
        ["enumerate", "--length", "5", "--classes"],
        ["groundstate", "--length", "x"],
        ["groundstate", "--length", "6", "--format", "csv", "--cache-dir", "cache"],
        ["enumerate"],
        ["verify", "--max-length", "6", "--which", "degrees", "--cache-dir", "cache"],
        ["count-classes", "--max-n", "3"],
        ["enumerate", "--length", "17"],
        ["--help"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    one, each = tmp_path / "one", tmp_path / "each"
    one.mkdir()
    each.mkdir()
    done = subprocess.run([sys.executable, "-c", ONE_PROCESS, json.dumps(commands)], cwd=one,
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    record = json.loads(done.stdout)
    assert record["parsers"] == 1
    separate = []
    for argv in commands:
        alone = subprocess.run([sys.executable, "-m", "brauerloop.cli", *argv], cwd=each,
                               env=env, capture_output=True, text=True, timeout=120)
        separate.append([alone.stdout, alone.stderr, alone.returncode])
    assert record["results"] == separate
    assert [code for _, _, code in separate] == [0, 2, 0, 2, 0, 0, 2, 0]


class TestOneEnumerationPerLength:
    """A finished length keeps its orbit summary, so no ladder enumerates a length twice."""

    def test_cold_verify(self, monkeypatch, capsys, tmp_path):
        clear_memos()
        calls = count_enumerations(monkeypatch)
        assert run(capsys, "verify", "--max-length", "13", "--cache-dir", str(tmp_path))[0] == 0
        assert calls == list(range(2, 14))

    def test_cold_sequence(self, monkeypatch, capsys, tmp_path):
        clear_memos()
        calls = count_enumerations(monkeypatch)
        assert run(capsys, "sequence", "--max-n", "6", "--cache-dir", str(tmp_path))[0] == 0
        assert calls == list(range(2, 13, 2))

    def test_warm_checks(self, monkeypatch, capsys, tmp_path):
        # The operations of the benchmark's warm workload, on a filled cache,
        # in one process from cold memos.
        cache = str(tmp_path)
        for length in range(2, 14):
            groundstate(length, cache_dir=cache)
        kernel_module._loaded.clear()
        clear_memos()
        calls = count_enumerations(monkeypatch)
        for argv in (["groundstate", "--length", "13", "--format", "json", "--cache-dir", cache],
                     ["verify", "--max-length", "13", "--cache-dir", cache],
                     ["sequence", "--max-n", "6", "--cache-dir", cache],
                     ["count-classes", "--max-n", "7"],
                     ["simulate", "--length", "8", "--samples", "1000000", "--seed", "1",
                      "--z-limit", "5", "--cache-dir", cache]):
            assert run(capsys, *argv)[0] == 0, argv
        assert all(check_relations(length).all_passed for length in range(3, 11))
        assert sorted(calls) == list(range(2, 15))


@pytest.mark.parametrize("length", [12, 14])
def test_closed_stdout_exits_141_quietly(length, tmp_path):
    # The reader takes one line and closes the pipe while the listing, far
    # larger than the pipe's buffer, is still being written.
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen([sys.executable, "-m", "brauerloop.cli", "enumerate", "--length",
                           str(length)], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline().count(b",") == length - 1
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=120), err) == (141, b"")


def test_out_of_memory_exits_4_with_one_line(tmp_path):
    # In 300 MiB of address space L = 15 enumerates and ranks its 2 M
    # diagrams, then cannot allocate the key proofs of its generator rows
    # (with no stored transition table it solves in 400 MiB). The limit is
    # set in the child only.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (300 * 2**20, 300 * 2**20))

    cache = tmp_path / "cache"
    cache.mkdir()
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "brauerloop.cli", "groundstate", "--length", "15",
         "--cache-dir", str(cache)],
        cwd=tmp_path, preexec_fn=limit, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4, done.stderr
    assert done.stdout == ""
    assert re.fullmatch(r"error: out of memory in groundstate(: [^\n]+)?\n", done.stderr)
    assert list(cache.iterdir()) == []

class TestCacheDirResolution:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("BRAUER_CACHE_DIR", "/tmp/env-cache")
        assert resolve_cache_dir("/tmp/flag-cache") == "/tmp/flag-cache"

    def test_env_next(self, monkeypatch):
        monkeypatch.setenv("BRAUER_CACHE_DIR", "/tmp/env-cache")
        assert resolve_cache_dir(None) == "/tmp/env-cache"

    def test_local_default(self, monkeypatch):
        monkeypatch.delenv("BRAUER_CACHE_DIR", raising=False)
        assert resolve_cache_dir(None) == ".brauer-cache"
