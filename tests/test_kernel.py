import builtins
import hashlib
import json
import math
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brauerloop.kernel as kernel_module
from brauerloop import (
    DisconnectedMatrixError,
    GroundState,
    KernelDimensionError,
    MixedSignsError,
    RefinementError,
    build_full,
    build_reduced,
    compute_orbits,
    enumerate_diagrams,
    groundstate,
    kernel_vector,
    normalize_integer,
    permutation_weight_table,
)
from brauerloop.cli import main
from brauerloop.diagrams import shared_basis, shared_orbits
from brauerloop.kernel import (
    CacheCorruptError,
    cache_path,
    deserialize_groundstate,
    load_cached_groundstate,
    save_cached_groundstate,
    serialize_groundstate,
)

from conftest import diagram, matrix_of, settle
from oracles import (
    PRIMES,
    _bareiss_kernel,
    _residual_is_zero,
    bareiss_kernel,
    modular_kernel,
    rational_reconstruction,
)


def checksummed(payload):
    """Cache text for a payload, with a checksum that matches its content."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload = dict(payload, checksum=hashlib.sha256(canonical.encode()).hexdigest())
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def dense_matrix(rows, kind="reduced", length=4):
    n = len(rows)
    return matrix_of([{r: rows[r][c] for r in range(n) if rows[r][c]} for c in range(n)],
                     kind=kind, length=length)


def exact(solver, matrix):
    """An oracle's Fraction kernel vector as the coprime integers of `kernel_vector`."""
    return normalize_integer(solver(matrix))


class TestKernelVector:
    def test_l4_full_kernel(self):
        basis = enumerate_diagrams(4)
        vec = kernel_vector(build_full(basis))
        w = normalize_integer(vec)
        assert w[basis.index_of(diagram(4, (1, 2), (3, 4)))] == 3
        assert w[basis.index_of(diagram(4, (2, 3), (4, 1)))] == 3
        assert w[basis.index_of(diagram(4, (1, 3), (2, 4)))] == 1

    def test_l2_trivial(self):
        vec = kernel_vector(build_full(enumerate_diagrams(2)))
        assert vec == (1,)
        assert type(vec[0]) is int

    @pytest.mark.parametrize("length", range(3, 13))
    def test_integral_is_the_normalised_fraction_vector(self, length):
        matrix = build_reduced(shared_basis(length), shared_orbits(length))
        ints = kernel_vector(matrix)
        assert all(type(v) is int for v in ints)
        assert ints == normalize_integer(ints)
        assert _residual_is_zero(matrix, ints)

    def test_l6_reduced_kernel_weights(self):
        basis = enumerate_diagrams(6)
        matrix = build_reduced(basis, compute_orbits(basis))
        weights = normalize_integer(kernel_vector(matrix))
        assert sorted(weights, reverse=True) == [63, 31, 13, 3, 1]

    @pytest.mark.parametrize("length", range(2, 11))
    def test_modular_agrees_with_bareiss(self, length):
        basis = enumerate_diagrams(length)
        matrix = build_reduced(basis, compute_orbits(basis))
        weights = kernel_vector(matrix)
        assert weights == exact(bareiss_kernel, matrix)
        assert weights == exact(modular_kernel, matrix)

    def test_modular_agrees_on_full_basis(self):
        matrix = build_full(enumerate_diagrams(8))
        weights = kernel_vector(matrix)
        assert weights == exact(bareiss_kernel, matrix)
        assert weights == exact(modular_kernel, matrix)

    @pytest.mark.parametrize("length", range(2, 8))
    def test_solver_equals_bareiss_on_full_basis(self, length):
        matrix = build_full(enumerate_diagrams(length))
        assert kernel_vector(matrix) == exact(bareiss_kernel, matrix)

    @pytest.mark.parametrize("length", (11, 12))
    def test_solver_equals_modular_oracle(self, length):
        matrix = build_reduced(shared_basis(length), shared_orbits(length))
        assert kernel_vector(matrix) == exact(modular_kernel, matrix)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_intensity_matrices_match_bareiss(self, data):
        # A random cycle through all states keeps the graph strongly
        # connected; extra edges and rates make orbit 0 anything but special.
        n = data.draw(st.integers(min_value=2, max_value=25))
        order = data.draw(st.permutations(range(n)))
        edges = set(zip(order, order[1:] + order[:1]))
        extra = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
        edges |= {(a, b) for a, b in extra if a != b}
        columns = [{} for _ in range(n)]
        for source, target in sorted(edges):
            rate = data.draw(st.integers(min_value=1, max_value=50))
            columns[source][target] = -rate
            columns[source][source] = columns[source].get(source, 0) + rate
        matrix = matrix_of(columns, length=n)
        assert kernel_vector(matrix) == exact(bareiss_kernel, matrix)

    def test_disconnected_matrix_rejected(self):
        block_diagonal = dense_matrix([[0, 0], [0, 0]])
        with pytest.raises(DisconnectedMatrixError):
            kernel_vector(block_diagonal)

    def test_unknown_method_rejected(self):
        # One solver path: the former method and threads switches are gone.
        with pytest.raises(TypeError):
            kernel_vector(build_full(enumerate_diagrams(4)), method="bareiss")
        with pytest.raises(TypeError):
            kernel_vector(build_full(enumerate_diagrams(4)), integral=True)
        with pytest.raises(TypeError):
            groundstate(4, threads=2)

    def test_rank_deficient_matrix_rejected(self):
        # connected but rank 1 on dimension 3: the kernel is a plane
        flat = dense_matrix([[1, 1, 1], [1, 1, 1], [-2, -2, -2]])
        with pytest.raises(KernelDimensionError):
            kernel_vector(flat)
        with pytest.raises(KernelDimensionError):
            bareiss_kernel(flat)
        with pytest.raises(KernelDimensionError):
            modular_kernel(flat)

    def test_bareiss_rank_check_direct(self):
        with pytest.raises(KernelDimensionError):
            _bareiss_kernel(({}, {}), 2)


class TestRefinementFailures:
    def test_noisy_float_solve_raises(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(0)
        monkeypatch.setattr(kernel_module, "_bicgstab",
                            lambda b_matrix, rhs: rng.standard_normal(len(rhs)))
        with pytest.raises(RefinementError, match=r"^L = 12, refinement step 1: "):
            groundstate(12, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert issubclass(RefinementError, ArithmeticError)
        assert main(["groundstate", "--length", "12", "--cache-dir", str(tmp_path)]) == 3
        assert "refinement step 1" in capsys.readouterr().err

    def test_step_cap_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernel_module, "_MAX_STEPS", 1)
        with pytest.raises(RefinementError, match=r"^L = 12, refinement step 1: no exact"):
            groundstate(12, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_wrong_candidate_is_never_accepted(self, monkeypatch):
        reconstruct = kernel_module._reconstruct

        def off_by_one(numer, denom):
            found = reconstruct(numer, denom)
            if found is None:
                return None
            den, num = found
            return den, [num[0] + 1] + num[1:]

        monkeypatch.setattr(kernel_module, "_reconstruct", off_by_one)
        monkeypatch.setattr(kernel_module, "_MAX_STEPS", 6)
        matrix = build_reduced(shared_basis(8), shared_orbits(8))
        with pytest.raises(RefinementError, match=r"^L = 8, refinement step 6: no exact"):
            kernel_vector(matrix)

    def test_int64_bounds_asserted(self):
        b_matrix = kernel_module._Sparse.from_triplets(
            np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
            np.array([5, -3, -4, 6]), 2)
        assert b_matrix.l1 == 10
        r = np.array([3, -2], dtype=np.int64)
        fine = kernel_module._update_residual(b_matrix, r, np.array([2**40, 7]), 20)
        assert fine.tolist() == [3 * 2**20 - 5 * 2**40 + 21, -2 * 2**20 + 4 * 2**40 - 42]
        with pytest.raises(AssertionError, match="B d could overflow"):
            kernel_module._update_residual(b_matrix, r, np.array([2**59, 1]), 20)
        with pytest.raises(AssertionError, match=r"2\*\*k \* r could overflow"):
            kernel_module._update_residual(b_matrix, r, np.array([1, 1]), 61)


class TestRationalReconstruction:
    def test_small_example(self):
        m = 101 * 103
        residue = (3 * pow(7, -1, m)) % m
        assert rational_reconstruction(residue, m) == Fraction(3, 7)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=3),
    )
    def test_roundtrip(self, num, den, which):
        frac = Fraction(num, den)
        m = PRIMES[which] * PRIMES[which + 1]
        if math.gcd(frac.denominator, m) != 1:
            return
        residue = (frac.numerator * pow(frac.denominator, -1, m)) % m
        assert rational_reconstruction(residue, m) == frac


class TestNormalizeInteger:
    def test_clears_denominators(self):
        assert normalize_integer((Fraction(3, 7), Fraction(3, 7), Fraction(1, 7))) == (
            3,
            3,
            1,
        )

    def test_divides_by_gcd(self):
        assert normalize_integer((2, 4, 6)) == (1, 2, 3)

    def test_flips_negative_vectors(self):
        assert normalize_integer((-2, -4)) == (1, 2)

    def test_mixed_signs_rejected(self):
        with pytest.raises(MixedSignsError):
            normalize_integer((1, -1))

    def test_zero_entry_rejected(self):
        with pytest.raises(MixedSignsError):
            normalize_integer((1, 0, 2))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=9),
    )
    def test_scale_invariant_coprime_output(self, values, scale):
        out = normalize_integer(values)
        assert normalize_integer([v * scale for v in values]) == out
        assert all(v >= 1 for v in out)
        assert math.gcd(*out, 0) == 1 if len(out) > 1 else out[0] == 1


class TestCoprimePositive:
    """The sign and zero checks `groundstate` applies to the integral kernel vector."""

    def test_divides_by_gcd_and_flips_sign(self):
        assert kernel_module._coprime_positive([4, 6, 2]) == (2, 3, 1)
        assert kernel_module._coprime_positive([-2, -4]) == (1, 2)

    @pytest.mark.parametrize("vector, message", [
        ([1, 0, 2], "zero entry"),
        ([0, -1, -2], "zero entry"),
        ([3, -1, 2], "both signs"),
    ])
    def test_rejects(self, vector, message):
        with pytest.raises(MixedSignsError, match=message):
            kernel_module._coprime_positive(vector)

    def test_groundstate_rejects_a_mixed_sign_kernel(self, tmp_path, monkeypatch):
        dimension = len(shared_orbits(6))
        monkeypatch.setattr(kernel_module, "kernel_vector",
                            lambda matrix: (1, -1) + (1,) * (dimension - 2))
        with pytest.raises(MixedSignsError, match="both signs"):
            groundstate(6, cache_dir=tmp_path)
        assert not cache_path(tmp_path, 6).exists()


class TestGroundState:
    def test_l5_weights_and_sizes(self):
        gs = groundstate(5)
        assert sorted(gs.weights, reverse=True) == [7, 3, 1]
        assert gs.sizes == (5, 5, 5)
        assert gs.total == 55

    def test_l8_weight_list(self):
        gs = groundstate(8)
        assert sorted(gs.weights, reverse=True) == [
            8297, 3433, 1491, 1145, 1043, 707, 483, 317, 209, 173,
            71, 51, 31, 13, 9, 3, 1,
        ]
        assert gs.min_is_one

    def test_full_and_reduced_paths_agree(self):
        for length in (4, 5, 6):
            full = normalize_integer(kernel_vector(build_full(enumerate_diagrams(length))))
            assert full == groundstate(length).expand()

    def test_expand_matches_orbit_structure(self):
        gs = groundstate(6)
        values = gs.expand()
        assert len(values) == 15
        assert sorted(set(values), reverse=True) == [63, 31, 13, 3, 1]

    def test_rejects_tiny_length(self):
        with pytest.raises(ValueError):
            groundstate(1)

    def test_transition_table_built_once(self, monkeypatch):
        import brauerloop.hamiltonian as hamiltonian_module
        import brauerloop.kernel as kernel_module

        calls = []
        original = kernel_module.transition_table

        def counting(basis):
            calls.append(basis.length)
            return original(basis)

        monkeypatch.setattr(kernel_module, "transition_table", counting)
        monkeypatch.setattr(hamiltonian_module, "transition_table", counting)
        assert groundstate(7).min_is_one
        assert calls == [7]

    def test_serialization_deterministic_across_threads(self):
        # The modular oracle solves on a thread pool; with one thread or two
        # its weights serialise to the bytes of the production ground state.
        basis, orbits = shared_basis(8), shared_orbits(8)
        matrix = build_reduced(basis, orbits)
        expected = serialize_groundstate(groundstate(8))
        for threads in (1, 2):
            weights = normalize_integer(modular_kernel(matrix, threads=threads))
            assert serialize_groundstate(GroundState(8, weights)) == expected


def swap_first_representatives(orbits):
    orbits[1]["representative"], orbits[2]["representative"] = (
        orbits[2]["representative"], orbits[1]["representative"])


class TestCache:
    def test_roundtrip_bytes(self, tmp_path):
        gs = groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        first = path.read_bytes()
        again = groundstate(6, cache_dir=tmp_path)
        assert again == gs
        assert path.read_bytes() == first
        assert serialize_groundstate(again).encode() == first

    def test_cache_short_circuits_solver(self, tmp_path, monkeypatch):
        groundstate(5, cache_dir=tmp_path)
        import brauerloop.kernel as kernel_module

        def boom(*args, **kwargs):
            raise AssertionError("solver should not run on a warm cache")

        monkeypatch.setattr(kernel_module, "kernel_vector", boom)
        gs = groundstate(5, cache_dir=tmp_path)
        assert sorted(gs.weights, reverse=True) == [7, 3, 1]

    def test_corrupt_cache_detected(self, tmp_path):
        gs = groundstate(4, cache_dir=tmp_path)
        path = cache_path(tmp_path, 4)
        text = path.read_text().replace('"weight":"3"', '"weight":"4"', 1)
        path.write_text(text)
        with pytest.raises(CacheCorruptError):
            load_cached_groundstate(tmp_path, 4)
        assert gs.min_is_one

    def test_deserialize_rejects_tampered_payload(self):
        import json

        gs = groundstate(4)
        payload = json.loads(serialize_groundstate(gs))
        payload["length"] = 5  # checksum is now stale
        broken = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with pytest.raises(CacheCorruptError):
            deserialize_groundstate(broken, 4)

    def test_renamed_cache_file_rejected(self, tmp_path):
        groundstate(4, cache_dir=tmp_path)
        cache_path(tmp_path, 5).write_bytes(cache_path(tmp_path, 4).read_bytes())
        with pytest.raises(CacheCorruptError):
            load_cached_groundstate(tmp_path, 5)
        with pytest.raises(CacheCorruptError):
            groundstate(5, cache_dir=tmp_path)

    @staticmethod
    def rewrite_with_checksum(path, change):
        payload = json.loads(path.read_text())
        del payload["checksum"]
        change(payload["orbits"])
        path.write_text(checksummed(payload))

    def test_rechecksummed_swapped_representative_rejected(self, tmp_path):
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        self.rewrite_with_checksum(path, swap_first_representatives)
        with pytest.raises(CacheCorruptError, match="orbit 1 is"):
            deserialize_groundstate(path.read_text(), 6)
        with pytest.raises(CacheCorruptError, match=r"groundstate-L06\.json: orbit 1 is"):
            load_cached_groundstate(tmp_path, 6)
        with pytest.raises(CacheCorruptError):
            groundstate(6, cache_dir=tmp_path)

    @pytest.mark.parametrize("key, value", [("generator", "full"), ("normalization", "none")])
    def test_rechecksummed_other_constant_rejected(self, tmp_path, key, value):
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        payload[key] = value
        path.write_text(checksummed(payload))
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: {key} is '{value}', not"):
            load_cached_groundstate(tmp_path, 6)

    @pytest.mark.parametrize("claimed", [16, 6.0])
    def test_rechecksummed_other_length_rejected_before_enumerating(self, tmp_path, monkeypatch,
                                                                     claimed):
        # A file claiming length 16, or 6 as a float, is refused on its
        # length field alone: nothing is enumerated, neither length 16 nor 6.
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        payload["length"] = claimed
        path.write_text(checksummed(payload))

        def no_enumeration(*args, **kwargs):
            raise AssertionError("a diagram basis or its orbits were built")

        import brauerloop.diagrams as diagrams_module

        for module, name in [(diagrams_module, "enumerate_diagrams"),
                             (diagrams_module, "shared_basis"),
                             (diagrams_module, "shared_orbits"),
                             (diagrams_module, "representative_codes"),
                             (kernel_module, "shared_basis"),
                             (kernel_module, "shared_orbits"),
                             (kernel_module, "representative_codes")]:
            monkeypatch.setattr(module, name, no_enumeration)
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: holds length {claimed}, not 6"):
            load_cached_groundstate(tmp_path, 6)

    def test_rechecksummed_non_canonical_representative_rejected(self, tmp_path):
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        other = shared_basis(6)[int(shared_orbits(6).members_of(0)[-1])].encode()

        def replace(orbits):
            orbits[0]["representative"] = other

        self.rewrite_with_checksum(path, replace)
        with pytest.raises(CacheCorruptError, match=f"orbit 0 is {other} of size"):
            load_cached_groundstate(tmp_path, 6)

    def test_rechecksummed_changed_size_rejected(self, tmp_path):
        groundstate(7, cache_dir=tmp_path)
        path = cache_path(tmp_path, 7)

        def resize(orbits):
            orbits[-1]["size"] += 1

        self.rewrite_with_checksum(path, resize)
        last = len(shared_orbits(7)) - 1
        with pytest.raises(CacheCorruptError, match=f"groundstate-L07\\.json: orbit {last} is"):
            load_cached_groundstate(tmp_path, 7)

    def test_rechecksummed_dropped_orbit_rejected(self, tmp_path):
        groundstate(8, cache_dir=tmp_path)
        path = cache_path(tmp_path, 8)
        self.rewrite_with_checksum(path, lambda orbits: orbits.pop())
        with pytest.raises(CacheCorruptError, match="holds 16 orbits, not 17"):
            load_cached_groundstate(tmp_path, 8)

    def test_rechecksummed_malformed_representative_rejected(self, tmp_path, capsys):
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)

        def self_paired(orbits):
            orbits[0]["representative"] = "1,1,4,3,6,5"

        self.rewrite_with_checksum(path, self_paired)
        with pytest.raises(CacheCorruptError,
                           match=r"groundstate-L06\.json: .*site 0 is paired with itself"):
            load_cached_groundstate(tmp_path, 6)
        assert main(["groundstate", "--length", "6", "--cache-dir", str(tmp_path)]) == 3
        assert "groundstate-L06.json" in capsys.readouterr().err

    def test_missing_file_is_not_memoised(self, tmp_path):
        assert load_cached_groundstate(tmp_path, 5) is None
        groundstate(5, cache_dir=tmp_path)
        assert load_cached_groundstate(tmp_path, 5) is not None

    def test_second_load_of_unchanged_file_reads_no_bytes(self, tmp_path, monkeypatch):
        groundstate(7, cache_dir=tmp_path)
        settle(cache_path(tmp_path, 7))
        first = load_cached_groundstate(tmp_path, 7)

        def no_read(*args, **kwargs):
            raise AssertionError("a memoised cache file was read again")

        with monkeypatch.context() as patch:
            for name in ("read_text", "read_bytes", "open"):
                patch.setattr(Path, name, no_read)
            patch.setattr(builtins, "open", no_read)
            assert load_cached_groundstate(tmp_path, 7) is first
            assert groundstate(7, cache_dir=tmp_path) is first

    def test_fresh_file_changed_in_place_is_reread(self, tmp_path):
        # Rewritten at the same size within one tick of a coarse file-system
        # clock, a file keeps its whole stamp; a file that fresh is never
        # memoised, so the change is still seen.
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        before = path.stat()
        assert load_cached_groundstate(tmp_path, 6) is not None
        self.rewrite_with_checksum(path, swap_first_representatives)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_mtime_ns, after.st_size, after.st_ino) == (
            before.st_mtime_ns, before.st_size, before.st_ino)
        with pytest.raises(CacheCorruptError, match=r"groundstate-L06\.json: orbit 1 is"):
            load_cached_groundstate(tmp_path, 6)

    @pytest.mark.parametrize("how", ["os.replace", "in place"])
    def test_changed_file_is_reread_after_a_memoised_load(self, tmp_path, how):
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        settle(path, hours=2)
        state = load_cached_groundstate(tmp_path, 6)
        assert load_cached_groundstate(tmp_path, 6) is state
        target = path.with_name("incoming.json") if how == "os.replace" else path
        target.write_bytes(path.read_bytes())
        self.rewrite_with_checksum(target, swap_first_representatives)
        if how == "os.replace":
            os.replace(target, path)
        settle(path, hours=1)
        with pytest.raises(CacheCorruptError, match=r"groundstate-L06\.json: orbit 1 is"):
            load_cached_groundstate(tmp_path, 6)
        with pytest.raises(CacheCorruptError, match="orbit 1 is"):
            groundstate(6, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="do not match"):
            permutation_weight_table(GroundState(6, state.weights[1:]))

    def test_truncated_cache_rejected(self, tmp_path):
        groundstate(5, cache_dir=tmp_path)
        path = cache_path(tmp_path, 5)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CacheCorruptError, match=r"groundstate-L05\.json: .*JSONDecodeError"):
            load_cached_groundstate(tmp_path, 5)
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(CacheCorruptError, match=r"groundstate-L05\.json"):
            load_cached_groundstate(tmp_path, 5)

    @pytest.mark.parametrize("change, error", [
        (lambda payload: payload.pop("orbits"), "KeyError"),
        (lambda payload: payload["orbits"][0].pop("weight"), "KeyError"),
        (lambda payload: payload.update(orbits=5), "TypeError"),
        (lambda payload: payload["orbits"][1].update(representative=7), "AttributeError"),
        (lambda payload: payload["orbits"][1].update(weight=[3]), "TypeError"),
        (lambda payload: payload["orbits"][1].update(weight="3x"), "ValueError"),
    ])
    def test_rechecksummed_missing_keys_and_wrong_types_rejected(self, tmp_path, change, error):
        groundstate(4, cache_dir=tmp_path)
        path = cache_path(tmp_path, 4)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        change(payload)
        path.write_text(checksummed(payload))
        with pytest.raises(CacheCorruptError, match=rf"groundstate-L04\.json: .*{error}"):
            load_cached_groundstate(tmp_path, 4)

    @settings(max_examples=150, deadline=None)
    @given(
        target=st.sampled_from(["length", "normalization", "generator", "orbits", "row",
                                "representative", "size", "weight", "drop", "drop-row"]),
        row=st.integers(min_value=0, max_value=4),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
            | st.sampled_from(["1,1,4,3,6,5", "2,1,4,3,6,5", "4,5,6,1,2,3", ".", "", "9"]),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        ),
    )
    def test_fuzzed_payloads_raise_only_cache_errors(self, target, row, value):
        payload = json.loads(serialize_groundstate(groundstate(6)))
        del payload["checksum"]
        orbit = payload["orbits"][row]
        if target in ("length", "normalization", "generator", "orbits"):
            payload[target] = value
        elif target == "row":
            payload["orbits"][row] = value
        elif target == "drop":
            del payload[("length", "normalization", "generator", "orbits")[row % 4]]
        elif target == "drop-row":
            del orbit[("representative", "size", "weight")[row % 3]]
        else:
            orbit[target] = value
        text = checksummed(payload)
        with tempfile.TemporaryDirectory() as directory:
            cache_path(directory, 6).write_text(text)
            try:
                load_cached_groundstate(directory, 6)
            except CacheCorruptError:
                pass
        try:
            deserialize_groundstate(text, 6)
        except CacheCorruptError:
            pass

    def test_missing_cache_returns_none(self, tmp_path):
        assert load_cached_groundstate(tmp_path, 10) is None

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        from pathlib import Path

        gs = groundstate(6)
        text = serialize_groundstate(gs)

        def half_then_fail(self, data, *args, **kwargs):
            with open(self, "w") as handle:
                handle.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_cached_groundstate(tmp_path, gs)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()

        # A failed rewrite keeps the complete earlier file.
        save_cached_groundstate(tmp_path, gs)
        monkeypatch.setattr(Path, "write_text", half_then_fail)
        with pytest.raises(OSError):
            save_cached_groundstate(tmp_path, gs)
        assert [p.name for p in tmp_path.iterdir()] == ["groundstate-L06.json"]
        assert cache_path(tmp_path, 6).read_text() == text

    def test_save_creates_directories(self, tmp_path):
        gs = groundstate(4)
        out = save_cached_groundstate(tmp_path / "deep" / "nest", gs)
        assert out.exists()
        assert load_cached_groundstate(tmp_path / "deep" / "nest", 4) == gs
