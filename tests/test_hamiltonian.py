import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerloop import (
    KernelDimensionError,
    annihilates,
    build_reduced,
    compute_orbits,
    connectivity_check,
    enumerate_diagrams,
    groundstate,
    kernel_vector,
)
from brauerloop.diagrams import inverse_of, rotation_minimum, shared_basis, shared_orbits
from brauerloop.generators import transition_table
from brauerloop.hamiltonian import IntensityMatrix, _rotation_sum

from conftest import (
    STRETCH,
    clear_memos,
    diagram,
    diagrams_of,
    index_of,
    intensity_columns,
    matrix_of,
    members_of,
    reduced,
    regrouped,
    rows_of,
    table_of,
)
from oracles import (
    annihilates_by_table,
    apply_braid,
    apply_monoid,
    build_full,
    columns_of,
    connected_by_bfs,
    equivariance_gate,
    expand,
    lump_by_rows,
    product_by_table,
    reflect,
    rotate,
    validate_by_columns,
)


def each(basis):
    """The grouping of `annihilates_by_table` that gives one weight per diagram."""
    return np.arange(len(basis))


def triplets(matrix):
    """The (rows, cols, vals) of a matrix as lists, for exact comparison."""
    return matrix.rows.tolist(), matrix.cols.tolist(), matrix.vals.tolist()


def verdict(check, *args):
    """The error text a validation raises, or None when it passes."""
    try:
        check(*args)
    except ArithmeticError as exc:
        return str(exc)
    return None


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
            c = index_of(basis, col_diagram)
            expected = {index_of(basis, d): v for d, v in entries.items()}
            assert columns_of(matrix)[c] == expected

    def test_l2_is_zero(self):
        matrix = build_full(enumerate_diagrams(2))
        assert matrix.dimension == 1
        assert columns_of(matrix) == ({},)

    @pytest.mark.parametrize("length", range(2, 11))
    def test_invariants(self, length):
        basis = enumerate_diagrams(length)
        matrix = build_full(basis)
        matrix.validate()
        validate_by_columns(matrix, basis)

    @pytest.mark.parametrize("length", range(2, 11))
    def test_diagonal_matches_adjacent_pairs(self, length):
        basis = enumerate_diagrams(length)
        columns = columns_of(build_full(basis))
        for c, d in enumerate(diagrams_of(basis)):
            adjacent = sum(1 for i, j in enumerate(d.partner) if j == (i + 1) % length)
            assert columns[c].get(c, 0) == 3 * length - 3 * adjacent

    def test_validate_catches_wrong_diagonal(self):
        basis = enumerate_diagrams(6)
        matrix = build_full(basis)
        columns = list(columns_of(matrix))
        # Move weight from an off-diagonal entry to the diagonal: the column
        # still sums to zero and stays nonpositive off the diagonal.
        other = next(r for r in columns[4] if r != 4)
        columns[4][4] += 1
        columns[4][other] -= 1
        broken = matrix_of(columns, length=6)
        expected = columns_of(matrix)[4][4]
        with pytest.raises(ArithmeticError, match=(
            f"diagonal of column 4 is {expected + 1}, expected {expected}$"
        )):
            validate_by_columns(broken, basis)
        # The package checks only the intensity-matrix structure, which still holds.
        broken.validate()
        validate_by_columns(broken)

    def test_validate_catches_broken_column(self):
        matrix = matrix_of(({0: 1}, {}))
        with pytest.raises(ArithmeticError):
            matrix.validate()


class TestEntryArrays:
    """`validate` refuses entry arrays that do not describe one square matrix."""

    @staticmethod
    def assert_refused(matrix, message):
        with pytest.raises(ArithmeticError, match=message):
            matrix.validate()
        with pytest.raises(KernelDimensionError, match=message):
            kernel_vector(matrix)

    def test_rejects_arrays_of_unequal_length(self):
        matrix = IntensityMatrix(4, 2, np.array([0, 1, 0, 1]),
                                 np.array([0, 0, 1, 1]), np.array([1, -1, -1]))
        self.assert_refused(matrix, r"^entry 3 is incomplete: 4 rows, 4 columns and 3 values")

    @pytest.mark.parametrize("row, message", [
        (5, r"^entry \(5, 0\) is outside the 2 x 2 matrix"),
        (-1, r"^entry \(-1, 0\) is outside the 2 x 2 matrix"),
    ])
    def test_rejects_an_index_outside_the_matrix(self, row, message):
        # Column 0 sums to zero, so only the index is wrong.
        self.assert_refused(matrix_of(({0: 1, row: -1}, {1: 1, 0: -1})), message)
        far_column = IntensityMatrix(4, 2, np.array([0, 1, 0]),
                                     np.array([0, 0, 2]), np.array([1, -1, 0]))
        self.assert_refused(far_column, r"^entry \(0, 2\) is outside")

    def test_rejects_repeated_and_unsorted_entries(self):
        repeated = IntensityMatrix(4, 2, np.array([0, 1, 1, 0, 1]),
                                   np.array([0, 0, 0, 1, 1]), np.array([2, -1, -1, -1, 1]))
        self.assert_refused(repeated, r"^entry \(1, 0\) does not follow \(1, 0\) in "
                                      r"\(column, row\) order")
        unsorted = IntensityMatrix(4, 2, np.array([1, 0, 0, 1]),
                                   np.array([0, 0, 1, 1]), np.array([-1, 1, -1, 1]))
        self.assert_refused(unsorted, r"^entry \(0, 0\) does not follow \(1, 0\)")


class TestAgainstColumnOracles:
    @settings(max_examples=300, deadline=None)
    @given(intensity_columns())
    def test_random_matrices_get_the_oracles_verdicts(self, columns):
        matrix = matrix_of(columns)
        assert verdict(matrix.validate) == verdict(validate_by_columns, matrix)
        assert connectivity_check(matrix) == connected_by_bfs(matrix)


class TestEquivariance:
    @pytest.mark.parametrize("length", range(3, 9))
    def test_generators_commute_with_dihedral_action(self, length):
        basis = enumerate_diagrams(length)
        for d in diagrams_of(basis):
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
        matrix = reduced(basis, orbits)
        # orbit 0 = the two parallel diagrams, orbit 1 = the crossing
        assert orbits.sizes.tolist() == [2, 1]
        assert columns_of(matrix) == ({0: 4, 1: -4}, {0: -12, 1: 12})

    @pytest.mark.parametrize("length", range(2, 11))
    def test_reduced_columns_sum_to_zero(self, length):
        basis = enumerate_diagrams(length)
        matrix = reduced(basis, compute_orbits(basis))
        matrix.validate()

    def test_rejects_non_partition(self):
        basis = enumerate_diagrams(4)
        orbits = compute_orbits(basis)
        alone = regrouped(orbits, [members_of(orbits, 0)])
        with pytest.raises(ValueError, match="do not partition"):
            reduced(basis, alone)

    def test_rejects_broken_symmetry_grouping(self):
        # gluing the crossing onto one parallel diagram is not an orbit
        basis = enumerate_diagrams(4)
        orbits = compute_orbits(basis)
        fake = regrouped(orbits, [[0, 1], [2]])
        with pytest.raises(ArithmeticError):
            reduced(basis, fake)


class TestRowSumOracle:
    @pytest.mark.parametrize("length", range(2, 13))
    def test_reduced_matches_row_sums(self, length):
        basis, orbits, table = shared_basis(length), shared_orbits(length), table_of(length)
        expected = triplets(lump_by_rows(basis, orbits, table))
        assert triplets(reduced(basis, orbits)) == expected

    @pytest.mark.parametrize("length", range(2, 10))
    def test_full_matches_row_sums_over_singletons(self, length):
        basis = shared_basis(length)
        n = len(basis)
        orbits = shared_orbits(length)
        singletons = regrouped(orbits, np.arange(n).reshape(n, 1))
        expected = triplets(lump_by_rows(basis, singletons, table_of(length)))
        assert triplets(build_full(basis)) == expected


class TestEquivarianceGate:
    """The orbit checks of `build_reduced`, and the 4L-conjugation `equivariance_gate`
    oracle on corrupted tables: `transition_table` proves the tables that reach
    assembly (`test_generators.TestEquivarianceProof` refuses each fault there)."""

    @pytest.mark.parametrize("length", range(2, 13))
    def test_oracle_accepts_the_table(self, length):
        equivariance_gate(table_of(length), shared_orbits(length))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=3, max_value=9), st.data())
    def test_rejects_one_corrupt_table_entry(self, length, data):
        orbits = shared_orbits(length)
        table = table_of(length).copy()
        row = data.draw(st.integers(min_value=0, max_value=table.shape[1] - 1), label="row")
        col = data.draw(st.integers(min_value=0, max_value=2 * length - 1), label="column")
        value = data.draw(st.integers(min_value=0, max_value=table.shape[1] - 1)
                          .filter(lambda v: v != table[col, row]), label="value")
        table[col, row] = value
        with pytest.raises(ArithmeticError, match=r"^transition table column \d+ does not commute"):
            equivariance_gate(table, orbits)

    @pytest.mark.parametrize("length, row, column", [(6, 5, 4), (6, 11, 10), (7, 6, 5),
                                                     (7, 13, 12)])
    def test_rejects_a_corrupt_site_l_row(self, length, row, column):
        # The corrupt row of the rotation-covariance test in test_generators:
        # the conjugate of the row before it no longer matches it.
        orbits = shared_orbits(length)
        table = table_of(length).copy()
        k = table.shape[1] // 2
        table[row, k] = (table[row, k] + 1) % table.shape[1]
        with pytest.raises(ArithmeticError, match=rf"^transition table column {column} does not "
                                                  "commute with the rotation$"):
            equivariance_gate(table, orbits)

    @pytest.mark.parametrize("length", range(5, 10))
    def test_rejects_a_table_that_commutes_with_the_rotation_only(self, length):
        # e_i e_{i+1} in place of e_i: rotating shifts i, reflecting reverses the product.
        basis, orbits = shared_basis(length), shared_orbits(length)
        table = table_of(length).copy()
        table[:length] = [table[a][table[(a + 1) % length]] for a in range(length)]
        with pytest.raises(ArithmeticError, match="does not commute with the reflection$"):
            equivariance_gate(table, orbits)
        # Below L = 7 this lumping happens to be exact anyway; the gate is a
        # sufficient condition and refuses it all the same.
        if length >= 7:
            with pytest.raises(ArithmeticError, match="not representative-independent"):
                lump_by_rows(basis, orbits, table)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=4, max_value=10), st.data())
    def test_rejects_merged_orbits(self, length, data):
        orbits = shared_orbits(length)
        groups = [members_of(orbits, k) for k in range(len(orbits))]
        j, k = data.draw(st.lists(st.integers(min_value=0, max_value=len(groups) - 1),
                                  min_size=2, max_size=2, unique=True))
        merged = np.concatenate([groups[j], groups[k]])
        rest = [g for i, g in enumerate(groups) if i not in (j, k)]
        with pytest.raises(ArithmeticError, match="^orbit 0 is not one orbit of the rotation"):
            reduced(shared_basis(length), regrouped(orbits, [merged, *rest]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=4, max_value=10), st.data())
    def test_rejects_a_split_orbit(self, length, data):
        orbits = shared_orbits(length)
        groups = [members_of(orbits, k) for k in range(len(orbits))]
        k = data.draw(st.sampled_from([k for k, g in enumerate(groups) if len(g) > 1]))
        members = data.draw(st.permutations(groups[k].tolist()))
        cut = data.draw(st.integers(min_value=1, max_value=len(members) - 1))
        parts = [np.array(members[:cut]), np.array(members[cut:])]
        grouping = regrouped(orbits, [*groups[:k], *parts, *groups[k + 1 :]])
        with pytest.raises(ArithmeticError, match="is not closed under the"):
            reduced(shared_basis(length), grouping)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=4, max_value=10), st.data())
    def test_rejects_a_grouping_not_closed_under_the_maps(self, length, data):
        orbits = shared_orbits(length)
        groups = [members_of(orbits, k).tolist() for k in range(len(orbits))]
        j = data.draw(st.sampled_from([k for k, g in enumerate(groups) if len(g) > 1]))
        k = data.draw(st.sampled_from([k for k in range(len(groups)) if k != j]))
        groups[k].append(groups[j].pop(data.draw(st.integers(0, len(groups[j]) - 1))))
        grouping = regrouped(orbits, [np.array(g) for g in groups])
        with pytest.raises(ArithmeticError, match="is not closed under the"):
            reduced(shared_basis(length), grouping)

    def test_rejects_columns_of_another_length(self):
        columns = table_of(6)[:, shared_orbits(6).representatives]
        with pytest.raises(ValueError, match=r"^representative columns of shape \(12, 5\) given "
                                             r"for 17 orbits of length 8, which need \(16, 17\)$"):
            build_reduced(shared_basis(8), shared_orbits(8), columns)

    def test_rejects_maps_that_are_not_permutations(self):
        basis, orbits = shared_basis(6), shared_orbits(6)
        constant = replace(orbits, step=np.zeros_like(orbits.step))
        with pytest.raises(ArithmeticError, match="rotation map is not a permutation"):
            reduced(basis, constant)


class TestConnectivity:
    def test_l4_full(self):
        assert connectivity_check(build_full(enumerate_diagrams(4)))

    def test_dimension_one_is_vacuous(self):
        assert connectivity_check(build_full(enumerate_diagrams(2)))

    @pytest.mark.parametrize("length", range(2, 11))
    def test_full_and_reduced_connected(self, length):
        basis = enumerate_diagrams(length)
        assert connectivity_check(build_full(basis))
        assert connectivity_check(reduced(basis, compute_orbits(basis)))

    def test_detects_disconnection(self):
        assert not connectivity_check(matrix_of(({}, {})))


class TestAnnihilates:
    def test_l4_known_kernel(self):
        basis, orbits = shared_basis(4), shared_orbits(4)
        values = [0] * 3
        values[index_of(basis, diagram(4, (1, 2), (3, 4)))] = 3
        values[index_of(basis, diagram(4, (2, 3), (4, 1)))] = 3
        values[index_of(basis, diagram(4, (1, 3), (2, 4)))] = 1
        assert annihilates_by_table(basis, values, table_of(4), each(basis))
        assert annihilates(basis, [3, 1], rows_of(4), orbits)
        values[0] += 1
        assert not annihilates_by_table(basis, values, table_of(4), each(basis))
        assert not annihilates(basis, [4, 1], rows_of(4), orbits)

    @pytest.mark.parametrize("scale", (1, -1, 2**31, -(2**62), 3**80),
                             ids=("1", "-1", "2^31", "-2^62", "3^80"))
    def test_exact_for_large_weights(self, scale):
        # Perturbations at and above the 31-bit limb boundary must not cancel.
        basis, orbits = shared_basis(6), shared_orbits(6)
        weights = [scale * w for w in groundstate(6).weights]
        values = [scale * w for w in expand(groundstate(6))]
        assert annihilates(basis, weights, rows_of(6), orbits)
        assert annihilates_by_table(basis, values, table_of(6), each(basis))
        for bump in (1, 2**31, 2**62, 2**93):
            weights[3] += bump
            values[3] += bump
            assert not annihilates(basis, weights, rows_of(6), orbits)
            assert not annihilates_by_table(basis, values, table_of(6), each(basis))
            weights[3] -= bump
            values[3] -= bump

    def test_rejects_rows_of_another_length(self):
        with pytest.raises(ValueError, match=r"^site-1 rows of shape \(2, 15\) given for a basis "
                                             r"that needs \(2, 105\)$"):
            annihilates(shared_basis(8), groundstate(8).weights, rows_of(6), shared_orbits(8))
        with pytest.raises(ValueError, match=r"^transition table of shape \(12, 15\) given for "
                                             r"a basis that needs \(16, 105\)$"):
            annihilates_by_table(shared_basis(8), expand(groundstate(8)), table_of(6),
                                 each(shared_basis(8)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            annihilates(shared_basis(4), [1, 2, 3], rows_of(4), shared_orbits(4))
        with pytest.raises(ValueError):
            annihilates(shared_basis(6), [1] * 4, rows_of(6), shared_orbits(6))
        with pytest.raises(ValueError):
            annihilates_by_table(enumerate_diagrams(4), [1, 2], table_of(4), np.arange(3))

    @pytest.mark.parametrize("length", [4, 7, 10])
    def test_refuses_orbits_not_closed_under_the_rotation(self, length):
        # The lemma needs v = w[orbit_of] fixed by the rotation: a grouping that
        # splits an orbit is refused, whatever the weights.
        orbits = shared_orbits(length)
        groups = [members_of(orbits, k) for k in range(len(orbits))]
        k = next(k for k, g in enumerate(groups) if len(g) > 1)
        split = regrouped(orbits, [*groups[:k], groups[k][:1], groups[k][1:], *groups[k + 1 :]])
        with pytest.raises(ArithmeticError, match=r"^orbit \d+ is not closed under the rotation$"):
            annihilates(shared_basis(length), [1] * len(split), rows_of(length), split)
        constant = replace(orbits, step=np.zeros_like(orbits.step))
        with pytest.raises(ArithmeticError, match="^the rotation map is not a permutation"):
            annihilates(shared_basis(length), groundstate(length).weights, rows_of(length),
                        constant)


class TestOrbitWeights:
    """`annihilates` given the per-orbit weights, as `groundstate` checks, against the
    oracle `annihilates_by_table` over the whole table."""

    @staticmethod
    def assert_agree(length, table):
        basis, orbits = shared_basis(length), shared_orbits(length)
        rows, state = table[0::length], groundstate(length)
        assert annihilates(basis, state.weights, rows, orbits)
        assert annihilates_by_table(basis, state.weights, table, orbits.orbit_of)
        for k in sorted({0, len(orbits) // 2, len(orbits) - 1}):
            weights = list(state.weights)
            weights[k] += 1
            assert (annihilates(basis, weights, rows, orbits)
                    == annihilates_by_table(basis, weights, table, orbits.orbit_of)
                    == (len(orbits) == 1))

    @pytest.mark.parametrize("length", range(2, 15))
    def test_agrees_with_the_table_oracle(self, length):
        self.assert_agree(length, table_of(length))

    @STRETCH
    @pytest.mark.parametrize("length", [15, 16])
    def test_agrees_with_the_table_oracle_at_the_longest_lengths(self, length):
        basis, orbits = shared_basis(length), shared_orbits(length)
        self.assert_agree(length, transition_table(basis, orbits))
        clear_memos()  # the later tests need not hold the arrays of L = 15, 16

    @pytest.mark.parametrize("length", range(2, 13))
    def test_per_diagram_weights_agree_with_the_orbit_form(self, length):
        basis, orbits, table = shared_basis(length), shared_orbits(length), table_of(length)
        state = groundstate(length)
        assert annihilates_by_table(basis, expand(state), table, each(basis))
        for k in (0, len(orbits) - 1):
            weights = list(state.weights)
            weights[k] *= 2
            values = [weights[o] for o in orbits.orbit_of.tolist()]
            assert (annihilates(basis, weights, table[0::length], orbits)
                    == annihilates_by_table(basis, values, table, each(basis)))

    @pytest.mark.parametrize("length", range(2, 11))
    def test_rotation_sum_equals_the_table_product(self, length):
        # H v entry by entry, on random int64 vectors fixed by the rotation: one
        # random value per rotation class, read through `rotation_minimum`.
        orbits, table = shared_orbits(length), table_of(length)
        group = rotation_minimum(orbits.step, length)
        back = inverse_of(orbits.step).astype(np.intp)
        rng = np.random.default_rng(length)
        for _ in range(3):
            limb = rng.integers(-(2**31), 2**31, size=len(group), dtype=np.int64)
            expected = product_by_table(table, limb.take(group))
            got = _rotation_sum(limb, table[0::length], group, back, length)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=4, max_value=12), st.data())
    def test_refuses_one_orbit_weight_raised_by_one(self, length, data):
        # From L = 4 on: L = 2 and 3 have one orbit, whose every multiple is in the kernel.
        orbits = shared_orbits(length)
        weights = list(groundstate(length).weights)
        weights[data.draw(st.integers(0, len(orbits) - 1), label="orbit")] += 1
        assert not annihilates(shared_basis(length), weights, rows_of(length), orbits)

    def test_check_peak_at_l13(self):
        basis, orbits, rows = shared_basis(13), shared_orbits(13), rows_of(13)
        weights = groundstate(13).weights
        tracemalloc.start()
        try:
            assert annihilates(basis, weights, rows, orbits)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 5.0
