import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerloop import (
    DEFECT,
    ChordDiagram,
    DiagramBasis,
    PartialPermutation,
    Permutation,
    canonical_representative,
    compute_orbits,
    enumerate_diagrams,
    partial_permutation_label,
    permutation_label,
    reflect,
    rotate,
)
from brauerloop.counting import double_factorial
from brauerloop.diagrams import dihedral_maps, shared_basis, shared_orbits

from conftest import (
    brute_force_count,
    brute_force_diagrams,
    diagram,
    orbits_by_image_keys,
    recursive_partners,
)


@st.composite
def diagrams(draw):
    length = draw(st.integers(min_value=2, max_value=9))
    basis = enumerate_diagrams(length)
    return basis[draw(st.integers(min_value=0, max_value=len(basis) - 1))]


class TestChordDiagram:
    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            ChordDiagram((1, 2, 0))

    def test_rejects_self_pairing(self):
        with pytest.raises(ValueError):
            ChordDiagram((0, 1))

    def test_rejects_wrong_defect_count(self):
        with pytest.raises(ValueError):
            ChordDiagram((DEFECT, DEFECT))
        with pytest.raises(ValueError):
            ChordDiagram((1, 0, DEFECT, DEFECT, DEFECT))

    def test_encode_examples(self):
        assert diagram(4, (1, 2), (3, 4)).encode() == "2,1,4,3"
        assert diagram(5, (1, 5), (3, 4)).encode() == "5,.,4,3,1"

    def test_decode_examples(self):
        assert ChordDiagram.decode("2,1,4,3") == diagram(4, (1, 2), (3, 4))
        assert ChordDiagram.decode("5,.,4,3,1") == diagram(5, (1, 5), (3, 4))

    @settings(max_examples=60, deadline=None)
    @given(diagrams())
    def test_encode_roundtrip(self, d):
        assert ChordDiagram.decode(d.encode()) == d


class TestEnumeration:
    def test_rejects_tiny_lengths(self):
        for bad in (-1, 0, 1):
            with pytest.raises(ValueError):
                enumerate_diagrams(bad)

    def test_l2_single_pairing(self):
        basis = enumerate_diagrams(2)
        assert len(basis) == 1
        assert basis[0] == diagram(2, (1, 2))

    def test_l4_has_three_diagrams(self):
        assert len(enumerate_diagrams(4)) == 3

    def test_l5_l6_both_fifteen(self):
        assert len(enumerate_diagrams(5)) == 15
        assert len(enumerate_diagrams(6)) == 15

    @pytest.mark.parametrize("length", range(2, 9))
    def test_matches_brute_force_sets(self, length):
        enumerated = {d.partner for d in enumerate_diagrams(length)}
        assert enumerated == brute_force_diagrams(length)

    @pytest.mark.parametrize("length", range(2, 13))
    def test_matches_recursive_oracle(self, length):
        expected = np.array(recursive_partners(length), dtype=np.int8)
        partners = enumerate_diagrams(length).partners
        assert partners.dtype == np.int8
        assert np.array_equal(partners, expected)

    def test_rows_read_back_as_diagrams(self):
        basis = enumerate_diagrams(7)
        assert [d.partner for d in basis] == [tuple(row) for row in basis.partners.tolist()]
        assert basis[5].partner == tuple(basis.partners[5].tolist())
        assert basis[-1] == list(basis)[-1]

    @pytest.mark.parametrize("length", range(2, 15))
    def test_count_formula_and_recursion(self, length):
        count = len(shared_basis(length))
        assert count == brute_force_count(length)
        if length % 2 == 0:
            assert count == double_factorial(length - 1)
        else:
            assert count == length * double_factorial(length - 2)

    def test_lexicographic_order_and_index(self):
        basis = enumerate_diagrams(7)
        partners = [d.partner for d in basis]
        assert partners == sorted(partners)
        for i, d in enumerate(basis):
            assert basis.index_of(d) == i

    def test_index_of_unknown_diagram_raises(self):
        basis = enumerate_diagrams(4)
        with pytest.raises(KeyError):
            basis.index_of(diagram(6, (1, 2), (3, 4), (5, 6)))
        with pytest.raises(KeyError):
            basis.index_of(diagram(2, (1, 2)))
        with pytest.raises(KeyError):
            DiagramBasis(4, basis.partners[[0, 2]]).index_of(basis[1])

    def test_basis_must_be_sorted(self):
        basis = enumerate_diagrams(4)
        with pytest.raises(ValueError):
            DiagramBasis(4, basis.partners[::-1])


class TestBasisValidation:
    """The whole-array check rejects what `ChordDiagram` rejects per row."""

    @pytest.mark.parametrize(
        "length, rows, message",
        [
            (3, [[1, 2, 0]], "not an involution"),
            (4, [[1, 0, 3, 2], [2, 3, 1, 0]], "row 1: pairing is not an involution"),
            (2, [[0, 1]], "paired with itself"),
            (4, [[1, 0, 3, 4]], "out of range"),
            (3, [[-2, 2, 1]], "out of range"),
            (4, [[1, 0, 3, 200]], "out of range"),
            (2, [[-1, -1]], "requires exactly 0 defect(s), found 2"),
            (5, [[1, 0, -1, -1, -1]], "requires exactly 1 defect(s), found 3"),
            (4, [[1, 0, -1, -1]], "requires exactly 0 defect(s)"),
        ],
    )
    def test_rejects_corrupted_rows(self, length, rows, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DiagramBasis(length, np.array(rows))

    def test_rejects_corruption_inside_a_full_basis(self):
        partners = enumerate_diagrams(8).partners.copy()
        # Site 0 now names a site that is paired elsewhere.
        partners[57, 0] = 1 if partners[57, 0] != 1 else 2
        with pytest.raises(ValueError, match="row 57: pairing is not an involution at site 0"):
            DiagramBasis(8, partners)

    def test_rejects_wrong_shape_and_type(self):
        with pytest.raises(ValueError):
            DiagramBasis(4, np.array([1, 0, 3, 2]))
        with pytest.raises(ValueError):
            DiagramBasis(4, np.array([[1, 0]]))
        with pytest.raises(ValueError):
            DiagramBasis(2, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            DiagramBasis(1, np.zeros((1, 1), dtype=np.int8))


class TestDihedralAction:
    def test_rotate_zero_is_identity(self):
        d = diagram(6, (1, 2), (3, 5), (4, 6))
        assert rotate(d, 0) == d

    def test_rotate_example(self):
        assert rotate(diagram(4, (1, 2), (3, 4)), 1) == diagram(4, (2, 3), (4, 1))

    def test_reflect_example(self):
        assert reflect(diagram(6, (1, 2), (3, 5), (4, 6))) == diagram(
            6, (5, 6), (2, 4), (1, 3)
        )

    def test_reflect_fixes_crossing(self):
        crossing = diagram(4, (1, 3), (2, 4))
        assert reflect(crossing) == crossing

    @settings(max_examples=60, deadline=None)
    @given(diagrams(), st.integers(min_value=-12, max_value=12))
    def test_rotation_group_law(self, d, k):
        assert rotate(rotate(d, k), d.length - (k % d.length)) == d

    @settings(max_examples=60, deadline=None)
    @given(diagrams())
    def test_reflect_involution(self, d):
        assert reflect(reflect(d)) == d

    def test_canonical_of_parallel_pairs(self):
        target = diagram(4, (1, 2), (3, 4))
        assert canonical_representative(diagram(4, (1, 2), (3, 4))) == target
        assert canonical_representative(diagram(4, (2, 3), (4, 1))) == target

    @settings(max_examples=40, deadline=None)
    @given(diagrams(), st.integers(min_value=0, max_value=11), st.booleans())
    def test_canonical_constant_and_idempotent(self, d, k, flip):
        image = rotate(d, k)
        if flip:
            image = reflect(image)
        rep = canonical_representative(d)
        assert canonical_representative(image) == rep
        assert canonical_representative(rep) == rep


class TestOrbits:
    def test_l4_orbit_sizes(self):
        orbits = compute_orbits(enumerate_diagrams(4))
        assert sorted(o.size for o in orbits) == [1, 2]

    def test_l6_orbit_sizes(self):
        orbits = compute_orbits(enumerate_diagrams(6))
        assert sorted(o.size for o in orbits) == [1, 2, 3, 3, 6]

    def test_l8_seventeen_classes(self):
        orbits = compute_orbits(enumerate_diagrams(8))
        assert len(orbits) == 17
        assert sum(o.size for o in orbits) == 105

    @pytest.mark.parametrize("length", range(2, 11))
    def test_orbit_invariants(self, length):
        basis = enumerate_diagrams(length)
        orbits = compute_orbits(basis)
        seen = []
        for orbit in orbits:
            assert (2 * length) % orbit.size == 0
            assert orbit.size == len(orbit.members)
            assert list(orbit.members) == sorted(orbit.members)
            assert orbit.representative == basis[orbit.members[0]]
            # lexicographic minimum over the whole orbit, and constant canonical form
            canon = {canonical_representative(basis[m]) for m in orbit.members}
            assert canon == {orbit.representative}
            seen.extend(orbit.members)
        assert sorted(seen) == list(range(len(basis)))

    @pytest.mark.parametrize("length", range(2, 15))
    def test_matches_image_key_oracle(self, length):
        basis = shared_basis(length)
        assert list(shared_orbits(length)) == orbits_by_image_keys(basis)

    @pytest.mark.parametrize("length", range(2, 10))
    def test_dihedral_maps_match_scalar_images(self, length):
        basis = shared_basis(length)
        step, mirror = dihedral_maps(basis)
        assert step.dtype == mirror.dtype == np.int32
        for i, d in enumerate(basis):
            assert step[i] == basis.index_of(rotate(d, 1))
            assert mirror[i] == basis.index_of(reflect(d))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=11, max_value=14), st.data())
    def test_representative_is_canonical_at_large_lengths(self, length, data):
        basis = shared_basis(length)
        i = data.draw(st.integers(min_value=0, max_value=len(basis) - 1))
        owner = next(o for o in shared_orbits(length) if i in o.members)
        assert canonical_representative(basis[i]) == owner.representative


class TestLabels:
    def test_permutation_label_examples(self):
        assert permutation_label(diagram(6, (1, 6), (2, 4), (3, 5))) == Permutation(
            (3, 1, 2)
        )
        assert permutation_label(diagram(4, (1, 3), (2, 4))) == Permutation((1, 2))
        assert permutation_label(diagram(4, (1, 2), (3, 4))) is None

    def test_permutation_label_rejects_odd(self):
        with pytest.raises(ValueError):
            permutation_label(diagram(5, (1, 5), (3, 4)))

    def test_partial_label_examples(self):
        label = partial_permutation_label(diagram(5, (1, 5), (3, 4)))
        assert label == PartialPermutation((2, None, 1))
        assert label.reverse() == (3, 1)
        assert str(label) == "(2.1)"
        assert partial_permutation_label(diagram(5, (1, 4), (2, 5))) == (
            PartialPermutation((1, 2, None))
        )

    def test_partial_label_rejects_right_right_chord(self):
        d = diagram(7, (1, 4), (2, 5), (6, 7))
        assert partial_permutation_label(d) is None

    def test_partial_label_rejects_even(self):
        with pytest.raises(ValueError):
            partial_permutation_label(diagram(4, (1, 2), (3, 4)))

    @pytest.mark.parametrize("length", range(2, 12))
    def test_labelled_diagram_counts(self, length):
        import math

        basis = enumerate_diagrams(length)
        if length % 2 == 0:
            labels = [permutation_label(d) for d in basis]
            expected = math.factorial(length // 2)
        else:
            labels = [partial_permutation_label(d) for d in basis]
            expected = math.factorial(length // 2 + 1)
        found = [lab for lab in labels if lab is not None]
        assert len(found) == expected
        assert len(set(found)) == expected  # labels are distinct


class TestLabelTypes:
    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))
        with pytest.raises(ValueError):
            Permutation((0, 1))

    def test_partial_validation(self):
        with pytest.raises(ValueError):
            PartialPermutation((1, 2))  # no undefined slot
        with pytest.raises(ValueError):
            PartialPermutation((1, None, 1))

    def test_longest_and_identity(self):
        assert Permutation.longest(4).image == (4, 3, 2, 1)
        assert Permutation.identity(3).image == (1, 2, 3)

    def test_string_forms(self):
        assert str(Permutation((3, 1, 2))) == "(312)"
        assert str(PartialPermutation((1, 2, None))) == "(12.)"
