import dataclasses
import gc
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerloop import (
    DEFECT,
    BasisTooLargeError,
    DiagramBasis,
    compute_orbits,
    enumerate_diagrams,
)
import brauerloop.diagrams as diagrams_module
from brauerloop.counting import class_count, double_factorial
from brauerloop.diagrams import (_key, _step_keys, _validated, conjugate, encode_partners,
                                 inverse_of, label_text, orbit_summary, representative_codes,
                                 rotation_minimum, shared_basis, shared_orbit_labels, shared_orbits)

from conftest import (
    STRETCH,
    assert_orbits_are,
    brute_force_count,
    brute_force_diagrams,
    clear_memos,
    count_enumerations,
    diagram,
    diagram_at,
    diagrams_of,
    index_of,
    members_of,
    orbits_by_image_keys,
    recursive_partners,
)
from oracles import (
    ChordDiagram,
    canonical_representative,
    key_by_digits,
    partial_permutation_label,
    per_site_diagrams,
    permutation_label,
    reflect,
    rotate,
    rotate_partners,
    rotation_minimum_by_powers,
    step_by_search,
    validation_message_by_site,
)


@st.composite
def diagrams(draw):
    length = draw(st.integers(min_value=2, max_value=9))
    basis = enumerate_diagrams(length)
    return diagram_at(basis, draw(st.integers(min_value=0, max_value=len(basis) - 1)))


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
        assert diagram_at(basis, 0) == diagram(2, (1, 2))

    def test_l4_has_three_diagrams(self):
        assert len(enumerate_diagrams(4)) == 3

    def test_l5_l6_both_fifteen(self):
        assert len(enumerate_diagrams(5)) == 15
        assert len(enumerate_diagrams(6)) == 15

    @pytest.mark.parametrize("length", range(2, 9))
    def test_matches_brute_force_sets(self, length):
        enumerated = {d.partner for d in diagrams_of(enumerate_diagrams(length))}
        assert enumerated == brute_force_diagrams(length)

    @pytest.mark.parametrize("length", range(2, 15))
    def test_matches_recursive_oracle(self, length):
        expected = np.array(recursive_partners(length), dtype=np.int8)
        partners = enumerate_diagrams(length).partners
        assert partners.dtype == np.int8
        assert np.array_equal(partners, expected)

    @pytest.mark.parametrize("length", range(2, 15))
    def test_shared_basis_is_site_major(self, length):
        # Each site's column is one contiguous N-vector; rows read as before.
        partners = shared_basis(length).partners
        assert partners.flags.f_contiguous
        assert np.array_equal(partners, np.array(recursive_partners(length), dtype=np.int8))

    @pytest.mark.parametrize("length", range(2, 15))
    def test_matches_per_site_oracle(self, length):
        partners = enumerate_diagrams(length).partners
        expected = per_site_diagrams(length).partners
        assert partners.dtype == expected.dtype == np.int8
        assert partners.shape == expected.shape
        assert partners.tobytes() == expected.tobytes()

    def test_one_enumeration_per_length(self, monkeypatch):
        # The blocks build the shorter lengths' rows within the call, so a
        # cold basis costs exactly one call of the public function.
        calls = count_enumerations(monkeypatch)
        clear_memos()
        assert len(shared_basis(13)) == 135135
        assert calls == [13]

    def test_basis_cannot_be_iterated(self):
        basis = enumerate_diagrams(7)
        with pytest.raises(TypeError):
            iter(basis)
        with pytest.raises(TypeError):
            list(basis)

    def test_rows_read_back_as_diagrams(self):
        # Rows are read off the partner array; a basis itself is not indexable.
        basis = enumerate_diagrams(7)
        rows = [tuple(row) for row in basis.partners.tolist()]
        assert [d.partner for d in diagrams_of(basis)] == rows
        assert diagram_at(basis, -1).partner == rows[-1]
        with pytest.raises(TypeError):
            basis[0]

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
        partners = [d.partner for d in diagrams_of(basis)]
        assert partners == sorted(partners)
        for i, d in enumerate(diagrams_of(basis)):
            assert index_of(basis, d) == i

    def test_index_of_unknown_diagram_raises(self):
        basis = enumerate_diagrams(4)
        with pytest.raises(KeyError):
            index_of(basis, diagram(6, (1, 2), (3, 4), (5, 6)))
        with pytest.raises(KeyError):
            index_of(basis, diagram(2, (1, 2)))
        with pytest.raises(KeyError):
            index_of(DiagramBasis(4, basis.partners[[0, 2]]), diagram_at(basis, 1))

    def test_basis_must_be_sorted(self):
        basis = enumerate_diagrams(4)
        with pytest.raises(ValueError):
            DiagramBasis(4, basis.partners[::-1])


class TestResourceGuard:
    """Lengths whose ranks overflow 64 bits fail before anything is allocated."""

    @pytest.mark.parametrize("length, count", [(17, 34459425), (18, 34459425), (20, 654729075)])
    def test_typed_error_names_length_count_and_bytes(self, length, count):
        with pytest.raises(BasisTooLargeError) as info:
            enumerate_diagrams(length)
        message = str(info.value)
        assert f"length {length} has {count:,} diagrams" in message
        assert f"({count * length:,} bytes of partner array)" in message
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("row", [
        [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14, DEFECT],  # a diagram
        [0] * 17,  # no diagram: the length is refused before the row is read
    ])
    def test_direct_basis_refused_like_the_enumeration(self, row):
        with pytest.raises(BasisTooLargeError) as enumerated:
            enumerate_diagrams(17)
        with pytest.raises(BasisTooLargeError) as direct:
            DiagramBasis(17, np.array([row]))
        assert str(direct.value) == str(enumerated.value)

    def test_short_lengths_reach_row_validation(self):
        # Only the rows' check names a length below 2, for every such length.
        for length in (-3, -2, -1, 0, 1):
            assert diagrams_module._ranks_fit(length)
            with pytest.raises(ValueError, match="a diagram needs at least 2 sites"):
                DiagramBasis(length, np.zeros((1, 1), dtype=np.int8))

    def test_sixteen_is_the_last_rankable_length(self):
        assert diagrams_module._ranks_fit(16)
        assert not diagrams_module._ranks_fit(17)

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--length", "17"],
        ["enumerate", "--length", "17", "--classes"],
        ["groundstate", "--length", "17", "--cache-dir", "unused"],
    ])
    def test_cli_exits_2_within_one_gib(self, argv, tmp_path):
        # Under a 1 GiB address-space limit a guard that fired only after the
        # 34 M-row enumeration would die with MemoryError instead.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-m", "brauerloop.cli", *argv], cwd=tmp_path,
            preexec_fn=limit, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert "MemoryError" not in done.stderr
        assert "error: length " in done.stderr
        assert "diagrams" in done.stderr and "bytes of partner array" in done.stderr


CORRUPTED_ROWS = [
    (3, [[1, 2, 0]], "not an involution"),
    (4, [[1, 0, 3, 2], [2, 3, 1, 0]], "row 1: pairing is not an involution"),
    (2, [[0, 1]], "paired with itself"),
    (4, [[1, 0, 3, 4]], "out of range"),
    (3, [[-2, 2, 1]], "out of range"),
    (4, [[1, 0, 3, 200]], "out of range"),
    (2, [[-1, -1]], "requires exactly 0 defect(s), found 2"),
    (5, [[1, 0, -1, -1, -1]], "requires exactly 1 defect(s), found 3"),
    (4, [[1, 0, -1, -1]], "requires exactly 0 defect(s)"),
]


def validation_message(length, rows):
    """The `_validated` message of row-major and site-major copies of the rows, which agree."""
    messages = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        with pytest.raises(ValueError) as caught:
            _validated(length, layout(rows))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    return messages[0]


@st.composite
def corrupted_rows(draw):
    """(L, rows): a run of rows of the basis of L = 2..14, up to all of it, in which one
    or two entries took another partner: a broken pair, a site paired with itself or a
    wrong defect count, by the value drawn."""
    length = draw(st.integers(min_value=2, max_value=14))
    partners = shared_basis(length).partners
    start = draw(st.integers(min_value=0, max_value=len(partners) - 1))
    stop = draw(st.integers(min_value=start + 1, max_value=len(partners)))
    rows = np.array(partners[start:stop])
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        r = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        i = draw(st.integers(min_value=0, max_value=length - 1))
        rows[r, i] = draw(st.sampled_from([v for v in range(DEFECT, length) if v != rows[r, i]]))
    return length, rows


class TestBasisValidation:
    """The whole-array check rejects what `ChordDiagram` rejects per row."""

    @pytest.mark.parametrize("length, rows, message", CORRUPTED_ROWS)
    def test_rejects_corrupted_rows(self, length, rows, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DiagramBasis(length, np.array(rows))

    @pytest.mark.parametrize("length, rows, message", CORRUPTED_ROWS)
    def test_oracle_gives_the_message(self, length, rows, message):
        assert message in validation_message_by_site(length, np.array(rows))

    @settings(max_examples=80, deadline=None)
    @given(corrupted_rows())
    def test_raises_the_oracle_message(self, case):
        # The pairs of sites prove the involution; the per-site oracle names the break.
        length, rows = case
        expected = validation_message_by_site(length, rows)
        for dtype in (np.int8, np.int64):
            for layout in (np.ascontiguousarray, np.asfortranarray):
                copy = layout(rows, dtype=dtype)
                if expected is None:  # the second change undid the first
                    assert np.array_equal(_validated(length, copy), rows)
                    continue
                with pytest.raises(ValueError) as caught:
                    _validated(length, copy)
                assert str(caught.value) == expected

    @pytest.mark.parametrize("length, rows, message", CORRUPTED_ROWS)
    def test_same_message_in_both_layouts(self, length, rows, message):
        assert message in validation_message(length, np.array(rows))
        if np.max(rows) < 128:  # and as int8, which site-major input keeps without a copy
            assert message in validation_message(length, np.array(rows, dtype=np.int8))

    def test_rejects_corruption_inside_a_full_basis(self):
        partners = enumerate_diagrams(8).partners.copy()
        # Site 0 now names a site that is paired elsewhere.
        partners[57, 0] = 1 if partners[57, 0] != 1 else 2
        with pytest.raises(ValueError, match="row 57: pairing is not an involution at site 0"):
            DiagramBasis(8, partners)
        assert validation_message(8, partners) == "row 57: pairing is not an involution at site 0"

    def test_names_the_lower_site_then_the_lower_row(self):
        partners = shared_basis(13).partners.copy()

        def rewire(row, site):
            # Pairing the site with a third site breaks the involution at the
            # site and at its old partner, here both above `site`, only.
            old = partners[row, site]
            assert old > site
            partners[row, site] = next(t for t in range(13) if t not in (site, old))

        def message(row, site):
            return f"row {row}: pairing is not an involution at site {site}"

        for row, site in [(1000, 6), (120000, 2), (5000, 2)]:
            rewire(row, site)
            with pytest.raises(ValueError, match=message(row, site)):
                DiagramBasis(13, partners)
            assert validation_message(13, partners) == message(row, site)

    def test_rejects_wrong_shape_and_type(self):
        with pytest.raises(ValueError):
            DiagramBasis(4, np.array([1, 0, 3, 2]))
        with pytest.raises(ValueError):
            DiagramBasis(4, np.array([[1, 0]]))
        with pytest.raises(ValueError):
            DiagramBasis(2, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            DiagramBasis(1, np.zeros((1, 1), dtype=np.int8))


def paired(length, sites):
    """The partner row pairing consecutive `sites`; a site left over is the defect."""
    row = [DEFECT] * length
    for a, b in zip(sites[0::2], sites[1::2]):
        row[a], row[b] = b, a
    return row


@st.composite
def partner_rows(draw):
    """A few random diagrams of one length 2..16, drawn as pairings of a site permutation."""
    length = draw(st.integers(min_value=2, max_value=16))
    orders = draw(st.lists(st.permutations(range(length)), min_size=1, max_size=8))
    return np.array([paired(length, order) for order in orders], dtype=np.int8)


def edge_rows(length):
    """Rows with site L-1 paired to 0, then for odd L the defect at L-1 and at 0."""
    rows = [paired(length, [length - 1, *range(length - 1)])]
    if length % 2:
        rows += [paired(length, range(length - 1)), paired(length, range(1, length))]
    return np.array(rows, dtype=np.int8)


def extreme_rows(length):
    """The lexicographically smallest and largest diagrams: the smallest pairs
    neighbours after a defect at site 0 (odd L), the largest nests every chord
    around the middle site, the defect for odd L."""
    nested = [site for i in range(length // 2) for site in (i, length - 1 - i)]
    return np.array([paired(length, range(length % 2, length)), paired(length, nested)],
                    dtype=np.int8)


class TestRankKeys:
    """`_key` against the digit-by-digit oracle `key_by_digits`."""

    @pytest.mark.parametrize("length", range(2, 17))
    def test_matches_mixed_radix_oracle(self, length):
        rows = np.concatenate((extreme_rows(length), edge_rows(length)))
        if length <= 14:
            partners = shared_basis(length).partners
            rows = np.concatenate((rows, partners[:: max(1, len(partners) // 4000)]))
        expected = [key_by_digits(row) for row in rows.tolist()]
        assert _key(rows).tolist() == expected
        assert _key(np.asfortranarray(rows)).tolist() == expected
        smallest, largest = expected[:2]
        assert smallest <= largest < (length + length % 2) ** length <= 2**64
        if length == 16:
            assert largest == 0xFEDCBA9876543210  # each 32-bit half near its top

    @settings(max_examples=200, deadline=None)
    @given(partner_rows())
    def test_random_rows_match_oracle(self, rows):
        assert _key(rows).tolist() == [key_by_digits(row) for row in rows.tolist()]


class TestStepKeys:
    """`_step_keys` ranks the forward rotation by digit arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(partner_rows())
    def test_matches_ranked_rotation(self, rows):
        expected = _key(rotate_partners(rows, 1))
        assert np.array_equal(_step_keys(rows, _key(rows)), expected)
        assert np.array_equal(_step_keys(np.asfortranarray(rows), _key(rows)), expected)

    @pytest.mark.parametrize("length", range(2, 15))
    def test_layouts_agree_on_the_basis(self, length):
        basis = shared_basis(length)
        expected = basis._keys.take(shared_orbits(length).step)
        for rows in (np.ascontiguousarray(basis.partners), basis.partners):
            assert np.array_equal(_step_keys(rows, basis._keys), expected)

    @pytest.mark.parametrize("length", range(2, 17))
    def test_edge_rows(self, length):
        rows = edge_rows(length)
        DiagramBasis(length, rows[np.argsort(_key(rows))])  # valid diagrams
        assert rows[0, length - 1] == 0
        if length % 2:
            assert rows[1, length - 1] == DEFECT and rows[2, 0] == DEFECT
        expected = _key(rotate_partners(rows, 1))
        assert np.array_equal(_step_keys(rows, _key(rows)), expected)


class TestRotationMap:
    """`compute_orbits` reads the one-site rotation off the block order of the basis."""

    @pytest.mark.parametrize("length", [*range(2, 15), *(
        pytest.param(length, marks=STRETCH) for length in (15, 16))])
    def test_equals_located_rotation(self, length):
        step = shared_orbits(length).step
        assert step.dtype == np.int32
        assert np.array_equal(step, step_by_search(shared_basis(length)))
        if length > 14:  # the later tests need not hold these 2 M-row arrays
            clear_memos()

    @pytest.mark.parametrize("length", [8, 9])
    @pytest.mark.parametrize("kept", ["all but the first", "all but the last", "the first half"])
    def test_basis_not_closed_under_rotation_raises(self, length, kept):
        rows = shared_basis(length).partners
        subset = {"all but the first": rows[1:], "all but the last": rows[:-1],
                  "the first half": rows[: len(rows) // 2]}[kept]
        with pytest.raises(KeyError, match="partner rows that are not diagrams of this basis"):
            compute_orbits(DiagramBasis(length, subset))

    @pytest.mark.parametrize("length", [8, 9])
    def test_union_of_orbits_keeps_its_orbits(self, length):
        # The lemma needs only a sorted basis closed under rotation, so a
        # union of whole orbits gets its rotation and its orbits without search.
        orbits = shared_orbits(length)
        kept = np.sort(np.concatenate([members_of(orbits, k) for k in range(0, len(orbits), 3)]))
        basis = DiagramBasis(length, shared_basis(length).partners[kept])
        sub = compute_orbits(basis)
        assert np.array_equal(sub.step, step_by_search(basis))
        assert np.array_equal(kept[sub.representatives], orbits.representatives[::3])
        assert np.array_equal(sub.sizes, orbits.sizes[::3])


class TestRotationMinimum:
    """`rotation_minimum` doubles its window; the oracle takes the L-1 powers one by one."""

    @pytest.mark.parametrize("length", [*range(2, 15), *(
        pytest.param(length, marks=STRETCH) for length in (15, 16))])
    def test_equals_powers_on_the_basis(self, length):
        step = shared_orbits(length).step
        rmin = rotation_minimum(step, length)
        assert rmin.dtype == np.int32
        assert np.array_equal(rmin, rotation_minimum_by_powers(step, length))
        if length > 14:  # the later tests need not hold these 2 M-row arrays
            clear_memos()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=16), st.data())
    def test_equals_powers_on_random_cycles(self, size, data):
        # Any permutation whose cycle lengths divide `size` has step^size = 1.
        lengths = data.draw(st.lists(st.sampled_from(
            [d for d in range(1, size + 1) if size % d == 0]), min_size=1, max_size=12))
        order = data.draw(st.permutations(range(sum(lengths))))
        step = np.empty(len(order), dtype=np.int32)
        start = 0
        for cycle in lengths:
            members = order[start : start + cycle]
            step[members] = np.roll(members, -1)
            start += cycle
        assert np.array_equal(rotation_minimum(step, size), rotation_minimum_by_powers(step, size))


class TestMemo:
    """One memo holds the N-row arrays; every length keeps its `orbit_summary`."""

    def test_a_basis_as_large_as_any_held_drops_that_size(self):
        # L = 13 and 14 both have 135,135 diagrams: building L = 14 frees the
        # arrays of L = 13, while the smaller L <= 12 stay, the same objects.
        clear_memos()
        basis, orbits = shared_basis(13), shared_orbits(13)
        summary = orbit_summary(13)
        dropped = [weakref.ref(array) for array in (
            basis.partners, basis._keys, orbits.orbit_of, orbits.step, orbits.mirror)]
        del basis, orbits
        kept = {length: (shared_basis(length), shared_orbits(length)) for length in range(2, 13)}
        shared_orbits(14)
        gc.collect()
        assert [ref() for ref in dropped] == [None] * len(dropped)
        for length, (basis, orbits) in kept.items():
            assert shared_basis(length) is basis and shared_orbits(length) is orbits
        assert orbit_summary(13) is summary

    def test_a_dropped_length_keeps_its_summary(self, monkeypatch):
        # The summary of L = 11 is taken when L = 12 drops it, not built
        # again; codes and labels come from the summary alone.
        clear_memos()
        shared_orbits(11)
        shared_orbits(12)
        calls = count_enumerations(monkeypatch)
        assert len(orbit_summary(11)) == len(representative_codes(11))
        assert len(shared_orbit_labels(11)) == len(orbit_summary(11))
        assert calls == []

    @pytest.mark.parametrize("length", [8, 9])
    def test_summary_matches_the_orbits(self, length):
        basis, orbits = shared_basis(length), shared_orbits(length)
        summary = orbit_summary(length)
        assert summary.sizes == tuple(orbits.sizes.tolist())
        assert np.array_equal(summary.rows, basis.partners[orbits.representatives])
        assert summary.rows.dtype == summary.labelled.dtype == np.int8
        for array in (summary.rows, summary.labelled, summary.owners):
            assert not array.flags.writeable


class TestMemory:
    """Deterministic Python-level peaks (tracemalloc) of the diagram layer at L = 13 and 14."""

    @staticmethod
    def peak_mib(work):
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_enumerate_peak(self):
        clear_memos()  # build every shorter length again
        assert self.peak_mib(lambda: enumerate_diagrams(13)) <= 4.2  # 4.12 measured

    def test_orbits_peak(self):
        basis = shared_basis(13)
        assert self.peak_mib(lambda: compute_orbits(basis)) <= 3.8  # 3.65 measured

    def test_orbits_peak_at_l14(self):
        # The longest length that count-classes enumerates, which sets its peak.
        basis = shared_basis(14)
        assert self.peak_mib(lambda: compute_orbits(basis)) <= 3.8  # 3.65 measured

    def test_orbits_record_bytes(self):
        # int32 orbit_of, step and mirror are 12 bytes per diagram (2.16 MiB with
        # int32 member lists besides); representatives and sizes are per orbit.
        orbits = shared_orbits(13)
        held = sum(array.nbytes for array in (orbits.representatives, orbits.sizes,
                                              orbits.orbit_of, orbits.step, orbits.mirror))
        assert held / 2**20 <= 1.65  # 1.61 measured


@pytest.mark.parametrize("count", [1, 2, 10_395])
def test_conjugate_equals_fancy_indexing(count):
    # `conjugate` gathers through `take`; the fancy-index form is its oracle.
    rng = np.random.default_rng(count)
    perm = rng.permutation(count).astype(np.int32)
    inverse = inverse_of(perm)
    for row in (rng.permutation(count).astype(np.int32),
                rng.integers(0, count, count, dtype=np.int32)):
        moved = conjugate(row, perm, inverse)
        assert moved.dtype == np.int32
        assert np.array_equal(moved, perm[row[inverse]])


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
        assert sorted(orbits.sizes.tolist()) == [1, 2]

    def test_l6_orbit_sizes(self):
        orbits = compute_orbits(enumerate_diagrams(6))
        assert sorted(orbits.sizes.tolist()) == [1, 2, 3, 3, 6]

    def test_l8_seventeen_classes(self):
        orbits = compute_orbits(enumerate_diagrams(8))
        assert len(orbits) == 17
        assert int(orbits.sizes.sum()) == 105

    @pytest.mark.parametrize("length", range(2, 11))
    def test_orbit_invariants(self, length):
        basis = enumerate_diagrams(length)
        orbits = compute_orbits(basis)
        seen = []
        for k in range(len(orbits)):
            members = members_of(orbits, k).tolist()
            size = int(orbits.sizes[k])
            representative = diagram_at(basis, int(orbits.representatives[k]))
            assert (2 * length) % size == 0
            assert size == len(members)
            assert members == sorted(members)
            assert representative == diagram_at(basis, members[0])
            assert orbits.orbit_of[members].tolist() == [k] * size
            # lexicographic minimum over the whole orbit, and constant canonical form
            canon = {canonical_representative(diagram_at(basis, m)) for m in members}
            assert canon == {representative}
            seen.extend(members)
        assert sorted(seen) == list(range(len(basis)))

    @pytest.mark.parametrize("length", range(2, 15))
    def test_matches_image_key_oracle(self, length):
        basis = shared_basis(length)
        assert_orbits_are(shared_orbits(length), orbits_by_image_keys(basis))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_even_orbit_counts_match_formula(self, n):
        assert len(shared_orbits(2 * n)) == class_count(n)

    def test_record_is_read_only(self):
        orbits = shared_orbits(6)
        for array, dtype in ((orbits.representatives, np.int32), (orbits.sizes, np.int64),
                             (orbits.orbit_of, np.int32), (orbits.step, np.int32),
                             (orbits.mirror, np.int32)):
            assert array.dtype == dtype
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(ValueError):
            shared_basis(6).partners[0, 0] = 1

    @pytest.mark.parametrize("field, name", [("step", "rotation"), ("mirror", "reflection")])
    @pytest.mark.parametrize("outside", [-1, "count"])
    def test_refuses_a_map_with_an_image_outside_the_basis(self, field, name, outside):
        # The image of one diagram is moved to -1 or N: by index, -1 would wrap to
        # N - 1, the one value now missing, and pass for a permutation.
        orbits = shared_orbits(8)
        image = getattr(orbits, field).copy()
        image[image == len(image) - 1] = len(image) if outside == "count" else outside
        with pytest.raises(ArithmeticError, match=rf"^the {name} map is not a permutation "
                                                  "of the basis$"):
            dataclasses.replace(orbits, **{field: image})

    @pytest.mark.parametrize("length", range(2, 10))
    def test_dihedral_maps_match_scalar_images(self, length):
        basis = shared_basis(length)
        orbits = shared_orbits(length)
        step, mirror = orbits.step, orbits.mirror
        assert step.dtype == mirror.dtype == np.int32
        for i, d in enumerate(diagrams_of(basis)):
            assert step[i] == index_of(basis, rotate(d, 1))
            assert mirror[i] == index_of(basis, reflect(d))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=11, max_value=14), st.data())
    def test_representative_is_canonical_at_large_lengths(self, length, data):
        basis = shared_basis(length)
        i = data.draw(st.integers(min_value=0, max_value=len(basis) - 1))
        orbits = shared_orbits(length)
        owner = int(orbits.orbit_of[i])
        assert i in members_of(orbits, owner).tolist()
        representative = diagram_at(basis, int(orbits.representatives[owner]))
        assert canonical_representative(diagram_at(basis, i)) == representative


class TestLabels:
    def test_permutation_label_examples(self):
        assert permutation_label(diagram(6, (1, 6), (2, 4), (3, 5))) == (3, 1, 2)
        assert permutation_label(diagram(4, (1, 3), (2, 4))) == (1, 2)
        assert permutation_label(diagram(4, (1, 2), (3, 4))) is None

    def test_permutation_label_rejects_odd(self):
        with pytest.raises(ValueError):
            permutation_label(diagram(5, (1, 5), (3, 4)))

    def test_partial_label_examples(self):
        label = partial_permutation_label(diagram(5, (1, 5), (3, 4)))
        assert label == (2, None, 1)
        assert label_text(label) == "2.1"
        assert partial_permutation_label(diagram(5, (1, 4), (2, 5))) == (1, 2, None)

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
            labels = [permutation_label(d) for d in diagrams_of(basis)]
            expected = math.factorial(length // 2)
        else:
            labels = [partial_permutation_label(d) for d in diagrams_of(basis)]
            expected = math.factorial(length // 2 + 1)
        found = [lab for lab in labels if lab is not None]
        assert len(found) == expected
        assert len(set(found)) == expected  # labels are distinct


class TestCodesAndLabels:
    """`representative_codes` and `shared_orbit_labels` against the per-row oracles."""

    @pytest.mark.parametrize("length", range(2, 15))
    def test_match_per_row_oracles(self, length):
        basis, orbits = shared_basis(length), shared_orbits(length)
        rows = basis.partners.tolist()
        assert representative_codes(length) == tuple(
            encode_partners(rows[x]) for x in orbits.representatives.tolist())
        label = partial_permutation_label if length % 2 else permutation_label
        groups = [[] for _ in range(len(orbits))]
        for row, owner in zip(rows, orbits.orbit_of.tolist()):
            found = label(ChordDiagram(tuple(row)))
            if found is not None:
                groups[owner].append(found)
        assert shared_orbit_labels(length) == tuple(map(tuple, groups))


class TestLabelTypes:
    def test_string_forms(self):
        assert label_text((3, 1, 2)) == "312"
        assert label_text((1, 2, None)) == "12."
        assert label_text((None,)) == "."
        assert label_text(tuple(range(8, 0, -1))) == "87654321"
