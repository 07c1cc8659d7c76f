import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brauerloop.kernel as kernel_module
from brauerloop import (
    DisconnectedMatrixError,
    GroundState,
    IntensityMatrix,
    KernelDimensionError,
    MixedSignsError,
    RefinementError,
    compute_orbits,
    enumerate_diagrams,
    groundstate,
    kernel_vector,
    permutation_weight_table,
)
from brauerloop.cli import main
from brauerloop.diagrams import encode_partners, representative_codes, shared_basis, shared_orbits
from brauerloop.kernel import (
    CacheCorruptError,
    cache_path,
    deserialize_groundstate,
    load_cached_groundstate,
    save_cached_groundstate,
    serialize_groundstate,
)

from conftest import (clear_memos, diagram, index_of, intensity_columns, matrix_of, members_of,
                      reduced, settle)
from oracles import (
    PRIMES,
    _bareiss_kernel,
    _residual_is_zero,
    bareiss_kernel,
    build_full,
    decode_by_json,
    expand,
    modular_kernel,
    normalize_integer,
    rational_reconstruction,
    serialize_by_json,
)


def checksummed(payload):
    """Cache text for a payload, with a checksum that matches its content."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload = dict(payload, checksum=hashlib.sha256(canonical.encode()).hexdigest())
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# The refusal of a checksummed text of the right length that no writer makes.
NOT_WRITTEN = "ground-state cache is not the text written for its weights: "


def header(length):
    """The written text's fields after the checksum, up to the first orbit."""
    return f'"generator":"reduced","length":{length},"normalization":"min-entry-one","orbits":['


def differs_in_orbit(k):
    """The refusal of a text whose weights are read, first differing in orbit k."""
    return rf"{re.escape(NOT_WRITTEN)}byte \d+ differs, in orbit {k}$"


def header_differs(length):
    """The refusal of a text that does not open with the header of its length."""
    return re.escape(f"{NOT_WRITTEN}its header is not {header(length)!r}") + "$"


def weight_count(read, orbits):
    """The refusal of a text with canonical weights too few or too many."""
    return (rf"{re.escape(NOT_WRITTEN)}it holds {read} positive decimal weights for {orbits} "
            r"orbits \(ground state orbits do not match the enumerated orbits\)$")


def dense_matrix(rows, length=4):
    n = len(rows)
    return matrix_of([{r: rows[r][c] for r in range(n) if rows[r][c]} for c in range(n)],
                     length=length)


def exact(solver, matrix):
    """An oracle's Fraction kernel vector as the coprime integers of `kernel_vector`."""
    return normalize_integer(solver(matrix))


class TestKernelVector:
    def test_l4_full_kernel(self):
        basis = enumerate_diagrams(4)
        vec = kernel_vector(build_full(basis))
        w = normalize_integer(vec)
        assert w[index_of(basis, diagram(4, (1, 2), (3, 4)))] == 3
        assert w[index_of(basis, diagram(4, (2, 3), (4, 1)))] == 3
        assert w[index_of(basis, diagram(4, (1, 3), (2, 4)))] == 1

    def test_l2_trivial(self):
        vec = kernel_vector(build_full(enumerate_diagrams(2)))
        assert vec == (1,)
        assert type(vec[0]) is int

    @pytest.mark.parametrize("length", range(3, 13))
    def test_integral_is_the_normalised_fraction_vector(self, length):
        matrix = reduced(shared_basis(length), shared_orbits(length))
        ints = kernel_vector(matrix)
        assert all(type(v) is int for v in ints)
        assert ints == normalize_integer(ints)
        assert _residual_is_zero(matrix, ints)

    def test_l6_reduced_kernel_weights(self):
        basis = enumerate_diagrams(6)
        matrix = reduced(basis, compute_orbits(basis))
        weights = normalize_integer(kernel_vector(matrix))
        assert sorted(weights, reverse=True) == [63, 31, 13, 3, 1]

    @pytest.mark.parametrize("length", range(2, 11))
    def test_modular_agrees_with_bareiss(self, length):
        basis = enumerate_diagrams(length)
        matrix = reduced(basis, compute_orbits(basis))
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
        matrix = reduced(shared_basis(length), shared_orbits(length))
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

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_empty_matrix_rejected(self, dimension):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(KernelDimensionError, match=f"dimension {dimension} is below 1"):
            kernel_vector(IntensityMatrix(2, dimension, empty, empty, empty))

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
                            lambda b_matrix, diagonal, rhs: rng.standard_normal(len(rhs)))
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
            return [found[0], found[1] + 1, *found[2:]]

        monkeypatch.setattr(kernel_module, "_reconstruct", off_by_one)
        monkeypatch.setattr(kernel_module, "_MAX_STEPS", 6)
        matrix = reduced(shared_basis(8), shared_orbits(8))
        with pytest.raises(RefinementError, match=r"^L = 8, refinement step 6: no exact"):
            kernel_vector(matrix)

    def test_int64_bounds_asserted(self):
        # The minor of this intensity matrix is B = [[5, -3], [-4, 6]], so l1(B) = 10.
        matrix = dense_matrix([[2, -1, -3], [-1, 5, -3], [-1, -4, 6]])
        b_matrix, b = kernel_module._minor(matrix)
        assert b.tolist() == [1, 1]
        cols, vals, _, starts = b_matrix
        l1 = int(np.add.reduceat(np.abs(vals) * (cols > 0), starts)[1:].max())
        assert l1 == 10
        r = np.array([3, -2], dtype=np.int64)
        fine = kernel_module._update_residual(b_matrix, l1, r, np.array([2**40, 7]), 20)
        assert fine.tolist() == [3 * 2**20 - 5 * 2**40 + 21, -2 * 2**20 + 4 * 2**40 - 42]
        with pytest.raises(AssertionError, match="B d could overflow"):
            kernel_module._update_residual(b_matrix, l1, r, np.array([2**59, 1]), 20)
        with pytest.raises(AssertionError, match=r"2\*\*k \* r could overflow"):
            kernel_module._update_residual(b_matrix, l1, r, np.array([1, 1]), 61)
        # The exact gate's limbs: gain * 2**32 < 2**62 holds up to gain = 2**30 - 1.
        assert kernel_module.product_is_zero(lambda x: 0 * x, [2**100], 2**30 - 1)
        # The limbs span the largest magnitude, which here is a negative value's.
        assert kernel_module.product_is_zero(lambda x: 0 * x, [3, -(2**100)], 1)
        assert not kernel_module.product_is_zero(lambda x: x, [0, -(2**100)], 1)
        with pytest.raises(AssertionError, match="int64 limb accumulation could overflow"):
            kernel_module.product_is_zero(lambda x: 0 * x, [1], 2**30)


def add_at_product(rows, cols, vals, x):
    """The matrix of the (rows, cols, vals) entries times x, scattered by `np.add.at`."""
    out = np.zeros(len(x), dtype=x.dtype)
    np.add.at(out, rows, vals * x[cols])
    return out


class TestSparseMinor:
    @pytest.mark.parametrize("length", range(4, 13))
    def test_minor_keeps_the_sorted_order(self, length):
        # L = 2 and 3 have a single orbit, hence no minor. A's entries are in
        # (row, column) order, each row starting at `starts`, B's products
        # come from them, and the int64 products are exact.
        matrix = reduced(shared_basis(length), shared_orbits(length))
        n = matrix.dimension
        dense = np.zeros((n, n), dtype=np.int64)
        dense[matrix.rows, matrix.cols] = matrix.vals
        entries, b = kernel_module._minor(matrix)
        cols, vals, floats, starts = entries
        rows = np.repeat(np.arange(n), np.diff(np.append(starts, len(cols))))
        assert np.all(np.diff(rows * n + cols) > 0)
        assert vals.tolist() == dense[rows, cols].tolist()
        assert floats.dtype == np.float64 and floats.tolist() == vals.tolist()
        assert b.dtype == np.int64
        assert b.tolist() == (-dense[1:, 0]).tolist()
        x = np.random.default_rng(length).integers(-2**40, 2**40, n)
        product = kernel_module._product(entries, x)
        assert product.dtype == np.int64
        assert product.tolist() == (dense @ x).tolist()
        minor = kernel_module._minor_product(entries, x[1:])
        assert minor.dtype == np.int64
        assert minor.tolist() == (dense[1:, 1:] @ x[1:]).tolist()

    @settings(max_examples=60, deadline=None)
    @given(intensity_columns(), st.data())
    def test_product_equals_the_scatter_oracle(self, columns, data):
        # Row-ordered sums against `np.add.at` over the (column, row) entries, on
        # intensity matrices whose every row holds its diagonal.
        for c, column in enumerate(columns):
            column.setdefault(c, 1)
        matrix = matrix_of(columns)
        entries, _ = kernel_module._minor(matrix)
        n = matrix.dimension
        whole = np.array(data.draw(st.lists(st.integers(-2**40, 2**40), min_size=n, max_size=n)))
        assert (kernel_module._product(entries, whole).tolist()
                == add_at_product(matrix.rows, matrix.cols, matrix.vals, whole).tolist())
        # In float64 only the order of each row's sum differs: within n eps of its |terms|.
        real = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
        gap = np.abs(kernel_module._product(entries, real)
                     - add_at_product(matrix.rows, matrix.cols, matrix.vals, real))
        scale = add_at_product(matrix.rows, matrix.cols, np.abs(matrix.vals), np.abs(real))
        assert np.all(gap <= 2 * n * np.finfo(np.float64).eps * scale)

    def test_refuses_an_empty_row(self):
        # Row 1 holds no entry: `reduceat` would read it as row 2's first entry.
        matrix = matrix_of(({0: 1, 2: -1}, {}, {0: -1, 2: 1}))
        with pytest.raises(AssertionError, match="every row must hold an entry"):
            kernel_module._minor(matrix)


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
    """The sign and zero checks `kernel_vector` applies to the vector its exact gate accepted."""

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
        # The solver accepts through `_coprime_positive`: a candidate that
        # passes the exact gate with entries of both signs is refused by
        # `kernel_vector` itself, and `groundstate` caches nothing.
        dimension = len(shared_orbits(6))
        monkeypatch.setattr(kernel_module, "_reconstruct",
                            lambda numer, denom: [1, -1] + [1] * (dimension - 2))
        monkeypatch.setattr(kernel_module, "product_is_zero", lambda apply, values, gain: True)
        with pytest.raises(MixedSignsError, match="both signs"):
            kernel_vector(reduced(shared_basis(6), shared_orbits(6)))
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
        assert min(gs.weights) == 1

    def test_full_and_reduced_paths_agree(self):
        for length in (4, 5, 6):
            full = normalize_integer(kernel_vector(build_full(enumerate_diagrams(length))))
            assert full == expand(groundstate(length))

    def test_expand_matches_orbit_structure(self):
        gs = groundstate(6)
        values = expand(gs)
        assert len(values) == 15
        assert sorted(set(values), reverse=True) == [63, 31, 13, 3, 1]

    def test_rejects_tiny_length(self):
        with pytest.raises(ValueError):
            groundstate(1)

    @pytest.mark.parametrize("length, digest", [
        (5, "e838337feaceec88a8206b486949f231d5ed928e11043ed4179f97a72c9cbf0e"),
        (12, "899ba34b2b85703db562fa03b76e1e59666347225a4b5bc8ea4557d325dff71d"),
        (13, "4c3728288e7e7cc89a2ec696a6de72cbc93f3e4f34a136a39fbdc55a289e42e8"),
    ])
    def test_cold_solve_stores_no_transition_table(self, monkeypatch, length, digest):
        # The assembly reads the representatives' columns and the full-basis check
        # the site-1 rows, both taken from the stream of `site_pairs`; the state is
        # the one solved from a stored table (SHA-256 of its cache text, as recorded
        # in perfbench/golden.json).
        import brauerloop.generators as generators_module

        def refused(basis, orbits):
            raise AssertionError("a cold solve built the (2L, N) transition table")

        monkeypatch.setattr(generators_module, "transition_table", refused)
        assert not hasattr(kernel_module, "transition_table")
        text = serialize_groundstate(groundstate(length))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_cold_solve_peak_at_l13(self):
        # Traced from after the orbits: the L = 13 table alone is 13.4 MiB, and a
        # solve that stored it peaked at 21.9 MiB.
        shared_orbits(13)
        tracemalloc.start()
        try:
            groundstate(13)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 12.0

    def test_serialization_deterministic_across_threads(self):
        # The modular oracle solves on a thread pool; with one thread or two
        # its weights serialise to the bytes of the production ground state.
        basis, orbits = shared_basis(8), shared_orbits(8)
        matrix = reduced(basis, orbits)
        expected = serialize_groundstate(groundstate(8))
        for threads in (1, 2):
            weights = normalize_integer(modular_kernel(matrix, threads=threads))
            assert serialize_groundstate(GroundState(8, weights)) == expected


def swap_first_representatives(orbits):
    orbits[1]["representative"], orbits[2]["representative"] = (
        orbits[2]["representative"], orbits[1]["representative"])


class TestWriter:
    """`serialize_groundstate` writes the text that `json.dumps` gives for the payload."""

    @pytest.mark.parametrize("length", range(2, 15))
    def test_equals_json_encoding(self, length):
        state = groundstate(length)
        assert serialize_groundstate(state) == serialize_by_json(state)

    def test_equals_json_encoding_of_a_300_digit_weight(self):
        weights = (10**299 + 7, *range(2, len(shared_orbits(9)) + 1))
        assert len(str(weights[0])) == 300
        state = GroundState(9, weights)
        assert serialize_groundstate(state) == serialize_by_json(state)
        assert deserialize_groundstate(serialize_groundstate(state), 9) == state

    def test_codes_need_no_json_escaping(self):
        for length in range(2, 17):
            codes = representative_codes(length)
            assert all(re.fullmatch(r"[0-9.,]+", code) for code in codes), length
        clear_memos()  # the later tests need not hold the arrays of L = 15, 16


class TestGroundstateText:
    """`groundstate --format json` prints the cache file's bytes; the memo of
    `serialize_groundstate` writes out the state that a hit was just checked
    against, or a solve just saved as, without serializing it again."""

    @staticmethod
    def serializations(monkeypatch):
        """The bodies hashed from here on: one per serialization that is not memoised."""
        bodies = []
        original = kernel_module._checksum

        def counting(body):
            bodies.append(body)
            return original(body)

        monkeypatch.setattr(kernel_module, "_checksum", counting)
        return bodies

    @staticmethod
    def json_output(length, cache_dir, capsys):
        argv = ["groundstate", "--length", str(length), "--format", "json"]
        assert main(argv + ["--cache-dir", str(cache_dir)]) == 0
        return capsys.readouterr().out

    def test_fresh_solve_prints_the_saved_file(self, tmp_path, monkeypatch, capsys):
        kernel_module.serialize_groundstate.cache_clear()
        bodies = self.serializations(monkeypatch)
        assert self.json_output(9, tmp_path, capsys) == cache_path(tmp_path, 9).read_text()
        assert len(bodies) == 1  # the save's; the output costs none

    def test_hit_in_a_fresh_process_prints_the_file(self, tmp_path):
        groundstate(9, cache_dir=tmp_path)
        path = cache_path(tmp_path, 9)
        settle(path)
        src = Path(kernel_module.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "brauerloop.cli", "groundstate", "--length", "9",
             "--format", "json", "--cache-dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == path.read_bytes()

    def test_hit_costs_one_serialization(self, tmp_path, monkeypatch, capsys):
        groundstate(9, cache_dir=tmp_path)
        path = cache_path(tmp_path, 9)
        settle(path)
        kernel_module._loaded.clear()
        kernel_module.serialize_groundstate.cache_clear()
        bodies = self.serializations(monkeypatch)
        assert self.json_output(9, tmp_path, capsys) == path.read_text()
        assert len(bodies) == 1  # the canonical decode's check; the output costs none
        # A memoised hit whose text is still memoised costs none, and one whose
        # text is not costs one.
        bodies.clear()
        assert self.json_output(9, tmp_path, capsys) == path.read_text()
        assert bodies == []
        kernel_module.serialize_groundstate.cache_clear()
        assert self.json_output(9, tmp_path, capsys) == path.read_text()
        assert len(bodies) == 1


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
        assert min(gs.weights) == 1

    def test_deserialize_rejects_tampered_payload(self):
        import json

        gs = groundstate(4)
        payload = json.loads(serialize_groundstate(gs))
        payload["length"] = 5  # checksum is now stale
        broken = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with pytest.raises(CacheCorruptError):
            deserialize_groundstate(broken, 4)

    @pytest.mark.parametrize("layout", ["pretty-printed", "keys reordered"])
    def test_non_canonical_layout_rejected(self, layout):
        # Same content and checksum as the written file, so a check of the
        # re-encoded payload would accept it; the hashed text differs.
        gs = groundstate(6)
        text = serialize_groundstate(gs)
        payload = json.loads(text)
        if layout == "pretty-printed":
            other = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            keys = ["checksum", *sorted(set(payload) - {"checksum"}, reverse=True)]
            other = json.dumps({k: payload[k] for k in keys}, separators=(",", ":")) + "\n"
        assert json.loads(other) == payload and other != text
        assert deserialize_groundstate(text, 6) == gs
        with pytest.raises(CacheCorruptError, match="failed its checksum"):
            deserialize_groundstate(other, 6)

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
        with pytest.raises(CacheCorruptError, match=f"^{differs_in_orbit(1)}"):
            deserialize_groundstate(path.read_text(), 6)
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: {differs_in_orbit(1)}"):
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
                           match=rf"groundstate-L06\.json: {header_differs(6)}"):
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
                             (diagrams_module, "orbit_summary"),
                             (diagrams_module, "representative_codes"),
                             (kernel_module, "shared_basis"),
                             (kernel_module, "shared_orbits"),
                             (kernel_module, "orbit_summary"),
                             (kernel_module, "representative_codes")]:
            monkeypatch.setattr(module, name, no_enumeration)
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: holds length {claimed}, not 6"):
            load_cached_groundstate(tmp_path, 6)

    def test_rechecksummed_non_canonical_representative_rejected(self, tmp_path):
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        other = encode_partners(shared_basis(6).partners[members_of(shared_orbits(6), 0)[-1]])

        def replace(orbits):
            orbits[0]["representative"] = other

        self.rewrite_with_checksum(path, replace)
        with pytest.raises(CacheCorruptError, match=differs_in_orbit(0)):
            load_cached_groundstate(tmp_path, 6)

    def test_rechecksummed_changed_size_rejected(self, tmp_path):
        groundstate(7, cache_dir=tmp_path)
        path = cache_path(tmp_path, 7)

        def resize(orbits):
            orbits[-1]["size"] += 1

        self.rewrite_with_checksum(path, resize)
        last = len(shared_orbits(7)) - 1
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L07\.json: {differs_in_orbit(last)}"):
            load_cached_groundstate(tmp_path, 7)

    @pytest.mark.parametrize("weight", ["0", "-3", " 7", "1_0", "+1", 5])
    def test_rechecksummed_non_canonical_weight_rejected(self, tmp_path, weight):
        # Each passes the checksum, the representatives and the sizes; only the
        # string that serialization writes for a positive weight is read as one.
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        self.rewrite_with_checksum(path, lambda orbits: orbits[2].update(weight=weight))
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: {weight_count(4, 5)}"):
            load_cached_groundstate(tmp_path, 6)

    @pytest.mark.parametrize("retype", [bool, float])
    def test_rechecksummed_size_of_another_type_rejected(self, tmp_path, retype):
        # True == 1 and 1.0 == 1, so only the type tells them from the size.
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        k = shared_orbits(6).sizes.tolist().index(1)
        self.rewrite_with_checksum(path, lambda orbits: orbits[k].update(size=retype(1)))
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: {differs_in_orbit(k)}"):
            load_cached_groundstate(tmp_path, 6)

    def test_rechecksummed_dropped_orbit_rejected(self, tmp_path):
        groundstate(8, cache_dir=tmp_path)
        path = cache_path(tmp_path, 8)
        self.rewrite_with_checksum(path, lambda orbits: orbits.pop())
        with pytest.raises(CacheCorruptError, match=weight_count(16, 17)):
            load_cached_groundstate(tmp_path, 8)

    def test_rechecksummed_malformed_representative_rejected(self, tmp_path, capsys):
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)

        def self_paired(orbits):
            orbits[0]["representative"] = "1,1,4,3,6,5"

        self.rewrite_with_checksum(path, self_paired)
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: {differs_in_orbit(0)}"):
            load_cached_groundstate(tmp_path, 6)
        assert main(["groundstate", "--length", "6", "--cache-dir", str(tmp_path)]) == 3
        assert "groundstate-L06.json" in capsys.readouterr().err

    def test_missing_file_is_not_memoised(self, tmp_path):
        assert load_cached_groundstate(tmp_path, 5) is None
        groundstate(5, cache_dir=tmp_path)
        assert load_cached_groundstate(tmp_path, 5) is not None

    def test_second_load_of_unchanged_file_decodes_nothing(self, tmp_path, monkeypatch):
        groundstate(7, cache_dir=tmp_path)
        settle(cache_path(tmp_path, 7))
        first = load_cached_groundstate(tmp_path, 7)

        def no_decode(*args, **kwargs):
            raise AssertionError("an unchanged cache file was decoded again")

        monkeypatch.setattr(kernel_module, "deserialize_groundstate", no_decode)
        assert load_cached_groundstate(tmp_path, 7) is first
        assert groundstate(7, cache_dir=tmp_path) is first

    def test_fresh_file_changed_in_place_is_reread(self, tmp_path):
        # Rewritten at the same size within one tick of a coarse file-system
        # clock, a file keeps its whole stamp; its bytes still show the change.
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        before = path.stat()
        assert load_cached_groundstate(tmp_path, 6) is not None
        self.rewrite_with_checksum(path, swap_first_representatives)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_mtime_ns, after.st_size, after.st_ino) == (
            before.st_mtime_ns, before.st_size, before.st_ino)
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: {differs_in_orbit(1)}"):
            load_cached_groundstate(tmp_path, 6)

    def test_settled_file_changed_in_place_with_its_stamp_restored_is_reread(self, tmp_path):
        # Decoded once, then rewritten at the same size and given its old stamp
        # back: path, modification time, size and inode all match the first load.
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        settle(path)
        before = path.stat()
        assert load_cached_groundstate(tmp_path, 6) is not None
        self.rewrite_with_checksum(path, swap_first_representatives)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: {differs_in_orbit(1)}"):
            load_cached_groundstate(tmp_path, 6)

    @settings(max_examples=80, deadline=None)
    @given(steps=st.lists(
        st.tuples(st.sampled_from(["swap", "weight", "truncate", "other length", "original"]),
                  st.integers(min_value=0, max_value=10**4), st.booleans()),
        min_size=1, max_size=6))
    def test_load_is_a_fresh_decode_after_any_rewrite(self, steps):
        # A settled file, loaded once, then rewritten in place step by step, each
        # rewrite maybe given back the stamp the file had before it. Every load
        # gives what decoding the file's current text gives: an equal state, or
        # the same error with the file named.
        original = serialize_groundstate(groundstate(6))
        rows = len(shared_orbits(6))

        def bump(orbits, k):
            orbits[k]["weight"] = str(int(orbits[k]["weight"]) + 1)

        texts = {
            "swap": lambda n: rechecksummed(
                lambda payload: swap_first_representatives(payload["orbits"]))(original),
            "weight": lambda n: rechecksummed(
                lambda payload: bump(payload["orbits"], n % rows))(original),
            "truncate": lambda n: original[:n % len(original)],
            "other length": lambda n: serialize_groundstate(groundstate(5)),
            "original": lambda n: original,
        }
        with tempfile.TemporaryDirectory() as directory:
            path = cache_path(directory, 6)
            path.write_text(original)
            settle(path)
            assert load_cached_groundstate(directory, 6) == deserialize_groundstate(original, 6)
            for kind, n, restore in steps:
                text = texts[kind](n)
                before = path.stat()
                path.write_text(text)
                if restore:
                    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
                try:
                    expected = deserialize_groundstate(text, 6)
                except CacheCorruptError as exc:
                    with pytest.raises(CacheCorruptError) as raised:
                        load_cached_groundstate(directory, 6)
                    assert str(raised.value) == f"cache file groundstate-L06.json: {exc}"
                else:
                    assert load_cached_groundstate(directory, 6) == expected

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
        with pytest.raises(CacheCorruptError,
                           match=rf"groundstate-L06\.json: {differs_in_orbit(1)}"):
            load_cached_groundstate(tmp_path, 6)
        with pytest.raises(CacheCorruptError, match=differs_in_orbit(1)):
            groundstate(6, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="do not match"):
            permutation_weight_table(GroundState(6, state.weights[1:]))

    def test_truncated_cache_rejected(self, tmp_path):
        groundstate(5, cache_dir=tmp_path)
        path = cache_path(tmp_path, 5)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CacheCorruptError,
                           match=r"groundstate-L05\.json: .* failed its checksum$"):
            load_cached_groundstate(tmp_path, 5)
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(CacheCorruptError, match=r"groundstate-L05\.json"):
            load_cached_groundstate(tmp_path, 5)

    @pytest.mark.parametrize("change, message", [
        (lambda payload: payload.pop("orbits"), header_differs(4)),
        (lambda payload: payload["orbits"][0].pop("weight"), weight_count(1, 2)),
        (lambda payload: payload.update(orbits=5), header_differs(4)),
        (lambda payload: payload["orbits"][1].update(representative=7), differs_in_orbit(1)),
        (lambda payload: payload["orbits"][1].update(weight=[3]), weight_count(1, 2)),
        (lambda payload: payload["orbits"][1].update(weight="3x"), weight_count(1, 2)),
    ])
    def test_rechecksummed_missing_keys_and_wrong_types_rejected(self, tmp_path, change,
                                                                 message):
        groundstate(4, cache_dir=tmp_path)
        path = cache_path(tmp_path, 4)
        payload = json.loads(path.read_text())
        del payload["checksum"]
        change(payload)
        path.write_text(checksummed(payload))
        with pytest.raises(CacheCorruptError, match=rf"groundstate-L04\.json: {message}"):
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


def with_checksum(text):
    """The text with its leading checksum recomputed over what follows it, as the writer hashes."""
    checksum, rest = re.fullmatch(r'\{"checksum":"(\w{64})",(.*)', text, re.DOTALL).groups()
    body = "{" + rest.removesuffix("\n")
    digest = hashlib.sha256(body.encode(errors="surrogatepass")).hexdigest()
    return text.replace(checksum, digest, 1)


def rechecksummed(change):
    """A corruption of the L = 6 payload that is written with a matching checksum."""
    def corrupt(text):
        payload = json.loads(text)
        del payload["checksum"]
        change(payload)
        return checksummed(payload)
    return corrupt


def set_orbit_field(k, key, value):
    return rechecksummed(lambda payload: payload["orbits"][k].update({key: value}))


FAILED_CHECKSUM = "ground-state cache failed its checksum$"

# Corruptions of a written text, each with the refusal that names it at L = 6.
CORRUPTIONS = [
    (lambda text: re.sub(r'"weight":"(\d+)"', lambda w: f'"weight":"{int(w[1]) + 1}"',
                         text, count=1), FAILED_CHECKSUM),
    (lambda text: json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n",
     FAILED_CHECKSUM),
    (lambda text: text.replace('"length":6', '"length":5'), FAILED_CHECKSUM),
    (lambda text: json.dumps(dict(sorted(json.loads(text).items(), reverse=True)),
                             separators=(",", ":")) + "\n", FAILED_CHECKSUM),
    (lambda text: text[:100], FAILED_CHECKSUM),
    (lambda text: serialize_groundstate(groundstate(4)), "holds length 4, not 6$"),
    (rechecksummed(lambda payload: payload.update(length=16)), "holds length 16, not 6$"),
    (rechecksummed(lambda payload: payload.update(length=6.0)), "holds length 6.0, not 6$"),
    (rechecksummed(lambda payload: payload.update(generator="full")), header_differs(6)),
    (rechecksummed(lambda payload: payload.update(normalization="none")), header_differs(6)),
    (rechecksummed(lambda payload: swap_first_representatives(payload["orbits"])),
     differs_in_orbit(1)),
    (set_orbit_field(0, "representative", "1,1,4,3,6,5"), differs_in_orbit(0)),
    (set_orbit_field(0, "size", True), differs_in_orbit(0)),
    (set_orbit_field(0, "size", 1.0), differs_in_orbit(0)),
    *[(set_orbit_field(2, "weight", weight), weight_count(4, 5))
      for weight in ["0", "03", "-3", " 7", "1_0", "+1", 5]],
    (rechecksummed(lambda payload: payload["orbits"].pop()), weight_count(4, 5)),
    (rechecksummed(lambda payload: payload.pop("orbits")), header_differs(6)),
    (rechecksummed(lambda payload: payload["orbits"][0].pop("weight")), weight_count(4, 5)),
    (rechecksummed(lambda payload: payload.update(orbits=5)), header_differs(6)),
    (set_orbit_field(1, "weight", "3x"), weight_count(4, 5)),
    (set_orbit_field(1, "representative", 7), differs_in_orbit(1)),
    (set_orbit_field(1, "weight", [3]), weight_count(4, 5)),
]


@lru_cache(maxsize=None)
def written(length):
    return serialize_groundstate(groundstate(length))


def assert_decodes_like_json(text, length):
    """`deserialize_groundstate` returns a state exactly when `decode_by_json` reads one
    that `serialize_groundstate` gives back as the text; any other text raises
    CacheCorruptError and nothing else."""
    try:
        expected = decode_by_json(text, length)
    except (ValueError, LookupError, TypeError, AttributeError, ArithmeticError):
        expected = None
    if expected is not None and serialize_groundstate(expected) == text:
        assert deserialize_groundstate(text, length) == expected
    else:
        with pytest.raises(CacheCorruptError):
            deserialize_groundstate(text, length)


class TestCanonicalDecode:
    """`deserialize_groundstate` reads written files without `json.loads`, nothing else."""

    def test_equals_json_decode_of_every_written_file(self, tmp_path):
        for length in range(2, 14):
            state = groundstate(length, cache_dir=tmp_path)
            text = cache_path(tmp_path, length).read_text()
            assert deserialize_groundstate(text, length) == decode_by_json(text, length) == state

    @pytest.mark.parametrize("relayout, fault", [
        (lambda text: text.removesuffix("\n"),
         lambda text: f"byte {len(text)} differs, in orbit 4"),
        (lambda text: with_checksum(text.replace('"length":6', '"length": 6')),
         lambda text: f"its header is not {header(6)!r}"),
    ], ids=["newline-stripped", "re-spaced"])
    def test_file_in_another_layout_is_refused(self, tmp_path, capsys, relayout, fault):
        # Every field checks out, checksum included, but no writer makes this text.
        state = groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        text = relayout(path.read_text())
        assert decode_by_json(text, 6) == state
        path.write_text(text)
        message = NOT_WRITTEN + fault(text)
        with pytest.raises(CacheCorruptError, match=f"^{re.escape(message)}$"):
            deserialize_groundstate(text, 6)
        with pytest.raises(CacheCorruptError,
                           match=rf"^cache file groundstate-L06\.json: {re.escape(message)}$"):
            load_cached_groundstate(tmp_path, 6)
        assert main(["groundstate", "--length", "6", "--cache-dir", str(tmp_path)]) == 3
        assert capsys.readouterr() == ("", f"error: cache file groundstate-L06.json: {message}\n")

    @pytest.mark.parametrize("corrupt, message", CORRUPTIONS)
    def test_corrupted_text_names_its_fault(self, corrupt, message):
        text = corrupt(written(6))
        with pytest.raises(CacheCorruptError, match=f"^{message}"):
            deserialize_groundstate(text, 6)
        assert_decodes_like_json(text, 6)

    @settings(max_examples=400, deadline=None)
    @given(length=st.sampled_from([5, 6]),
           corrupt=st.sampled_from([None, *(corrupt for corrupt, _ in CORRUPTIONS)]),
           edit=st.sampled_from(["none", "substitute", "delete", "insert"]),
           at=st.integers(min_value=0),
           char=st.sampled_from('0123456789",:{}[]. \n\ud800') | st.integers(0, 255).map(chr),
           rechecksum=st.booleans())
    def test_edited_text_is_accepted_exactly_when_json_reads_it_back(self, length, corrupt, edit,
                                                                     at, char, rechecksum):
        # A field edit, then one character substituted, deleted or inserted at any
        # offset, then maybe the checksum recomputed over the result.
        text = written(length) if corrupt is None else corrupt(written(length))
        at %= len(text) + 1
        text = {"none": text, "substitute": text[:at] + char + text[at + 1:],
                "delete": text[:at] + text[at + 1:], "insert": text[:at] + char + text[at:]}[edit]
        if rechecksum and re.match(r'\{"checksum":"[0-9a-f]{64}",', text):
            text = with_checksum(text)
        assert_decodes_like_json(text, length)
