import pytest

from brauerloop import (
    Orbits,
    annihilates,
    apply_braid,
    apply_monoid,
    build_full,
    build_reduced,
    compute_orbits,
    connectivity_check,
    enumerate_diagrams,
    groundstate,
    reflect,
    rotate,
)
from brauerloop.hamiltonian import IntensityMatrix

from conftest import diagram


def l4_reference_columns():
    """Known action columns for length 4, keyed by diagram."""
    parallel_a = diagram(4, (1, 2), (3, 4))
    parallel_b = diagram(4, (2, 3), (4, 1))
    crossing = diagram(4, (1, 3), (2, 4))
    return {
        parallel_a: {parallel_a: 6, parallel_b: -4, crossing: -2},
        parallel_b: {parallel_b: 6, parallel_a: -4, crossing: -2},
        crossing: {crossing: 12, parallel_a: -6, parallel_b: -6},
    }


class TestBuildFull:
    def test_l4_reference_columns(self):
        basis = enumerate_diagrams(4)
        matrix = build_full(basis)
        for col_diagram, entries in l4_reference_columns().items():
            c = basis.index_of(col_diagram)
            expected = {basis.index_of(d): v for d, v in entries.items()}
            assert matrix.columns[c] == expected

    def test_l2_is_zero(self):
        matrix = build_full(enumerate_diagrams(2))
        assert matrix.dimension == 1
        assert matrix.columns == ({},)

    @pytest.mark.parametrize("length", range(2, 11))
    def test_invariants(self, length):
        basis = enumerate_diagrams(length)
        build_full(basis).validate(basis)

    @pytest.mark.parametrize("length", range(2, 11))
    def test_diagonal_matches_adjacent_pairs(self, length):
        basis = enumerate_diagrams(length)
        matrix = build_full(basis)
        for c, d in enumerate(basis):
            adjacent = sum(1 for i, j in enumerate(d.partner) if j == (i + 1) % length)
            assert matrix.columns[c].get(c, 0) == 3 * length - 3 * adjacent

    def test_validate_catches_wrong_diagonal(self):
        basis = enumerate_diagrams(6)
        matrix = build_full(basis)
        columns = [dict(col) for col in matrix.columns]
        # Move weight from an off-diagonal entry to the diagonal: the column
        # still sums to zero and stays nonpositive off the diagonal.
        other = next(r for r in columns[4] if r != 4)
        columns[4][4] += 1
        columns[4][other] -= 1
        broken = IntensityMatrix(length=6, kind="full", dimension=15, columns=tuple(columns))
        expected = matrix.columns[4][4]
        with pytest.raises(ArithmeticError, match=(
            f"diagonal of column 4 is {expected + 1}, expected {expected}$"
        )):
            broken.validate(basis)
        broken.validate()  # without a basis only the column structure is checked

    def test_validate_catches_broken_column(self):
        matrix = IntensityMatrix(length=4, kind="full", dimension=2,
                                 columns=({0: 1}, {}))
        with pytest.raises(ArithmeticError):
            matrix.validate()


class TestEquivariance:
    @pytest.mark.parametrize("length", range(3, 9))
    def test_generators_commute_with_dihedral_action(self, length):
        basis = enumerate_diagrams(length)
        for d in basis:
            for i in range(1, length + 1):
                shifted = i % length + 1
                assert apply_monoid(shifted, rotate(d, 1)) == rotate(apply_monoid(i, d), 1)
                assert apply_braid(shifted, rotate(d, 1)) == rotate(apply_braid(i, d), 1)
                mirrored = length - i if i < length else length
                assert apply_monoid(mirrored, reflect(d)) == reflect(apply_monoid(i, d))
                assert apply_braid(mirrored, reflect(d)) == reflect(apply_braid(i, d))


class TestBuildReduced:
    def test_l4_block_sums(self):
        basis = enumerate_diagrams(4)
        orbits = compute_orbits(basis)
        matrix = build_reduced(basis, orbits)
        # orbit 0 = the two parallel diagrams, orbit 1 = the crossing
        assert orbits.sizes.tolist() == [2, 1]
        assert matrix.columns == ({0: 4, 1: -4}, {0: -12, 1: 12})

    @pytest.mark.parametrize("length", range(2, 11))
    def test_reduced_columns_sum_to_zero(self, length):
        basis = enumerate_diagrams(length)
        matrix = build_reduced(basis, compute_orbits(basis))
        matrix.validate()

    def test_rejects_non_partition(self):
        basis = enumerate_diagrams(4)
        orbits = compute_orbits(basis)
        first = orbits.members_of(0)
        alone = Orbits(first[:1], orbits.sizes[:1], first, orbits.offsets[:2], orbits.orbit_of)
        with pytest.raises(ValueError, match="do not partition"):
            build_reduced(basis, alone)

    def test_rejects_broken_symmetry_grouping(self):
        # gluing the crossing onto one parallel diagram is not an orbit
        basis = enumerate_diagrams(4)
        fake = Orbits.grouped([0, 1, 2], [2, 1])
        with pytest.raises(ArithmeticError):
            build_reduced(basis, fake)


class TestConnectivity:
    def test_l4_full(self):
        assert connectivity_check(build_full(enumerate_diagrams(4)))

    def test_dimension_one_is_vacuous(self):
        assert connectivity_check(build_full(enumerate_diagrams(2)))

    @pytest.mark.parametrize("length", range(2, 11))
    def test_full_and_reduced_connected(self, length):
        basis = enumerate_diagrams(length)
        assert connectivity_check(build_full(basis))
        assert connectivity_check(build_reduced(basis, compute_orbits(basis)))

    def test_detects_disconnection(self):
        matrix = IntensityMatrix(
            length=4, kind="reduced", dimension=2, columns=({}, {})
        )
        assert not connectivity_check(matrix)


class TestAnnihilates:
    def test_l4_known_kernel(self):
        basis = enumerate_diagrams(4)
        values = [0] * 3
        values[basis.index_of(diagram(4, (1, 2), (3, 4)))] = 3
        values[basis.index_of(diagram(4, (2, 3), (4, 1)))] = 3
        values[basis.index_of(diagram(4, (1, 3), (2, 4)))] = 1
        assert annihilates(basis, values)
        values[0] += 1
        assert not annihilates(basis, values)

    @pytest.mark.parametrize("scale", (1, -1, 2**31, -(2**62), 3**80),
                             ids=("1", "-1", "2^31", "-2^62", "3^80"))
    def test_exact_for_large_weights(self, scale):
        # Perturbations at and above the 31-bit limb boundary must not cancel.
        basis = enumerate_diagrams(6)
        kernel = groundstate(6).expand()
        values = [scale * w for w in kernel]
        assert annihilates(basis, values)
        for bump in (1, 2**31, 2**62, 2**93):
            values[3] += bump
            assert not annihilates(basis, values)
            values[3] -= bump

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            annihilates(enumerate_diagrams(4), [1, 2])
