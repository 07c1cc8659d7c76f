import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerloop import (
    DisconnectedMatrixError,
    GroundState,
    KernelDimensionError,
    MixedSignsError,
    build_full,
    build_reduced,
    compute_orbits,
    enumerate_diagrams,
    groundstate,
    kernel_vector,
    normalize_integer,
)
from brauerloop.diagrams import shared_basis, shared_orbits
from brauerloop.hamiltonian import IntensityMatrix
from brauerloop.kernel import (
    CacheCorruptError,
    PRIMES,
    _bareiss_kernel,
    cache_path,
    deserialize_groundstate,
    load_cached_groundstate,
    rational_reconstruction,
    save_cached_groundstate,
    serialize_groundstate,
)

from conftest import diagram


def dense_matrix(rows, kind="reduced", length=4):
    n = len(rows)
    columns = tuple(
        {r: rows[r][c] for r in range(n) if rows[r][c]} for c in range(n)
    )
    return IntensityMatrix(length=length, kind=kind, dimension=n, columns=columns)


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
        assert vec == (Fraction(1),)

    def test_l6_reduced_kernel_weights(self):
        basis = enumerate_diagrams(6)
        matrix = build_reduced(basis, compute_orbits(basis))
        weights = normalize_integer(kernel_vector(matrix))
        assert sorted(weights, reverse=True) == [63, 31, 13, 3, 1]

    @pytest.mark.parametrize("length", range(2, 11))
    def test_modular_agrees_with_bareiss(self, length):
        basis = enumerate_diagrams(length)
        matrix = build_reduced(basis, compute_orbits(basis))
        assert kernel_vector(matrix, method="bareiss") == kernel_vector(
            matrix, method="modular"
        )

    def test_modular_agrees_on_full_basis(self):
        matrix = build_full(enumerate_diagrams(8))
        assert kernel_vector(matrix, method="bareiss") == kernel_vector(
            matrix, method="modular"
        )

    def test_disconnected_matrix_rejected(self):
        block_diagonal = dense_matrix([[0, 0], [0, 0]])
        with pytest.raises(DisconnectedMatrixError):
            kernel_vector(block_diagonal)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            kernel_vector(build_full(enumerate_diagrams(4)), method="float")

    def test_rank_deficient_matrix_rejected(self):
        # connected but rank 1 on dimension 3: the kernel is a plane
        flat = dense_matrix([[1, 1, 1], [1, 1, 1], [-2, -2, -2]])
        with pytest.raises(KernelDimensionError):
            kernel_vector(flat, method="bareiss")
        with pytest.raises(KernelDimensionError):
            kernel_vector(flat, method="modular")

    def test_bareiss_rank_check_direct(self):
        with pytest.raises(KernelDimensionError):
            _bareiss_kernel(({}, {}), 2)


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
        a = groundstate(8, method="modular", threads=1)
        b = groundstate(8, method="modular", threads=2)
        assert serialize_groundstate(a) == serialize_groundstate(b)


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
            deserialize_groundstate(broken)

    def test_renamed_cache_file_rejected(self, tmp_path):
        groundstate(4, cache_dir=tmp_path)
        cache_path(tmp_path, 5).write_bytes(cache_path(tmp_path, 4).read_bytes())
        with pytest.raises(CacheCorruptError):
            load_cached_groundstate(tmp_path, 5)
        with pytest.raises(CacheCorruptError):
            groundstate(5, cache_dir=tmp_path)

    @staticmethod
    def rewrite_with_checksum(path, change):
        import hashlib
        import json

        payload = json.loads(path.read_text())
        del payload["checksum"]
        change(payload["orbits"])
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    def test_rechecksummed_swapped_representative_rejected(self, tmp_path):
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)

        def swap(orbits):
            orbits[1]["representative"], orbits[2]["representative"] = (
                orbits[2]["representative"], orbits[1]["representative"])

        self.rewrite_with_checksum(path, swap)
        deserialize_groundstate(path.read_text())  # the checksum itself holds
        with pytest.raises(CacheCorruptError, match=r"groundstate-L06\.json: orbit 1 is"):
            load_cached_groundstate(tmp_path, 6)
        with pytest.raises(CacheCorruptError):
            groundstate(6, cache_dir=tmp_path)

    def test_rechecksummed_non_canonical_representative_rejected(self, tmp_path):
        groundstate(6, cache_dir=tmp_path)
        path = cache_path(tmp_path, 6)
        orbit = shared_orbits(6)[0]
        other = shared_basis(6)[orbit.members[-1]].encode()

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
