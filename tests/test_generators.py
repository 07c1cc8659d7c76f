import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brauerloop.diagrams as diagrams_module
import brauerloop.generators as generators_module
import brauerloop.kernel as kernel_module
from brauerloop import (DEFECT, DiagramBasis, check_relations, compute_orbits, enumerate_diagrams,
                        groundstate)
from brauerloop.cli import main
from brauerloop.diagrams import (_key, conjugate, encode_partners, inverse_of, shared_basis,
                                 shared_orbits)
from brauerloop.generators import _image_keys, transition_table

from conftest import defined_in_package, diagram, diagrams_of, index_of, table_of
from oracles import (
    ChordDiagram,
    apply_braid,
    apply_monoid,
    equivariance_gate,
    image_key_increments,
    permutation_label,
    transition_table_by_search,
)


def scalar_row(basis, d):
    """Table row of one diagram computed with the scalar generators."""
    sites = range(1, basis.length + 1)
    return [index_of(basis, apply_monoid(i, d)) for i in sites] + [
        index_of(basis, apply_braid(i, d)) for i in sites
    ]


@st.composite
def long_diagrams(draw, shortest=11, longest=14):
    length = draw(st.integers(min_value=shortest, max_value=longest))
    sites = draw(st.permutations(range(length)))
    partner = [DEFECT] * length
    for a, b in zip(sites[0::2], sites[1::2]):
        partner[a], partner[b] = b, a
    return ChordDiagram(tuple(partner))


class TestTransitionTable:
    @pytest.mark.parametrize("length", range(2, 11))
    def test_matches_scalar_generators_exhaustively(self, length):
        basis = enumerate_diagrams(length)
        table = transition_table(basis, compute_orbits(basis))
        assert table.shape == (2 * length, len(basis))
        assert table.dtype == np.int32 and table.flags.c_contiguous
        assert table.T.tolist() == [scalar_row(basis, d) for d in diagrams_of(basis)]

    @settings(max_examples=40, deadline=None)
    @given(long_diagrams())
    def test_matches_scalar_generators_on_long_diagrams(self, d):
        basis = shared_basis(d.length)
        assert table_of(d.length)[:, index_of(basis, d)].tolist() == scalar_row(basis, d)

    @pytest.mark.parametrize("length", [*range(2, 13), 14])
    def test_matches_the_search_oracle(self, length):
        basis = shared_basis(length)
        assert np.array_equal(transition_table_by_search(basis).T, table_of(length))

    @pytest.mark.parametrize("length, swapped", [(5, (0, 1)), (8, (3, 50)), (9, (0, -1))])
    def test_rejects_a_step_with_two_entries_swapped(self, length, swapped):
        orbits = shared_orbits(length)
        step = orbits.step.copy()
        step[list(swapped)] = step[list(swapped[::-1])]
        with pytest.raises(ArithmeticError,
                           match=r"^transition table rows of site 2 do not match their rank keys$"):
            transition_table(shared_basis(length), replace(orbits, step=step))

    @pytest.mark.parametrize("length, a, family", [(6, 1, 0), (7, 6, 1), (10, 4, 0)])
    def test_rejects_one_perturbed_image_key(self, monkeypatch, length, a, family):
        # The conjugated rows of the site are right; its keys now say otherwise.
        def perturbed(partners, keys, site):
            images = _image_keys(partners, keys, site)
            if site == a:
                images[family, len(keys) // 2] += np.uint64(1)
            return images

        monkeypatch.setattr(generators_module, "_image_keys", perturbed)
        with pytest.raises(ArithmeticError,
                           match=rf"^transition table rows of site {a + 1} do not match"):
            transition_table(shared_basis(length), shared_orbits(length))


def corrupting(patch, size, column, row, value):
    """Make `site_pairs` build entry (column, row) of the table as `value`: rows 0 and L
    as located, the others as conjugated, site by site: 1, L+1, 2, L+2, ..."""
    if column % size == 0:
        locate = DiagramBasis.locate

        def located(basis, keys):
            found = locate(basis, keys)
            found[column // size, row] = value
            return found

        patch.setattr(DiagramBasis, "locate", located)
        return
    calls = itertools.count()
    built = [c for a in range(1, size) for c in (a, size + a)].index(column)

    def conjugated(image, perm, inverse):
        moved = conjugate(image, perm, inverse)
        if next(calls) == built:
            moved[row] = value
        return moved

    patch.setattr(generators_module, "conjugate", conjugated)


def producing(patch, substitute):
    """Make the rank-key arithmetic describe the `substitute` table instead: the producer
    then locates its site-1 rows and its key proof accepts its rows, so that only the
    equivariance proof can refuse it."""
    size = len(substitute) // 2
    patch.setattr(generators_module, "_image_keys",
                  lambda partners, keys, a: keys.take(substitute[a::size]))


def chained(table, step):
    """The table whose rows 1..L-1 of each family are conjugates of row 0 by `step`."""
    size, inverse, out = len(table) // 2, inverse_of(step), table.copy()
    for c in range(2 * size):
        if c % size:
            out[c] = conjugate(out[c - 1], step, inverse)
    return out


class TestEquivarianceProof:
    """`transition_table` proves the table it builds equivariant: the key proof of every
    row, the rotation wrap of each family, the dihedral relation and the reflection of
    rows 0 and L, which by the lemma cover every row."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=3, max_value=9), st.data())
    def test_rejects_one_corrupt_entry_it_builds(self, length, data):
        # The producer's form of the gate test that corrupts one table entry.
        n = len(shared_basis(length))
        row = data.draw(st.integers(min_value=0, max_value=n - 1), label="row")
        col = data.draw(st.integers(min_value=0, max_value=2 * length - 1), label="column")
        value = data.draw(st.integers(min_value=0, max_value=n - 1)
                          .filter(lambda v: v != table_of(length)[col, row]), label="value")
        site = max(col % length, 1) + 1  # a located row is wrong in its conjugate
        with pytest.MonkeyPatch.context() as patch:
            corrupting(patch, length, col, row, value)
            with pytest.raises(ArithmeticError, match=rf"^transition table rows of site {site} "
                                                      "do not match their rank keys$"):
                transition_table(shared_basis(length), shared_orbits(length))

    @pytest.mark.parametrize("length, row", [(6, 5), (6, 11), (7, 6), (7, 13)])
    def test_rejects_a_corrupt_site_l_row(self, monkeypatch, length, row):
        # The site-L row is built by conjugation, so its key proof refuses it.
        n = len(shared_basis(length))
        corrupting(monkeypatch, length, row, n // 2, (table_of(length)[row, n // 2] + 1) % n)
        with pytest.raises(ArithmeticError, match=rf"^transition table rows of site {length} "
                                                  "do not match their rank keys$"):
            transition_table(shared_basis(length), shared_orbits(length))

    @pytest.mark.parametrize("length, swapped", [(5, (0, 1)), (8, (3, 50)), (9, (0, -1))])
    def test_wrap_rejects_a_rotation_that_fools_the_key_proof(self, monkeypatch, length,
                                                              swapped):
        # Rows conjugated by a wrong step agree with keys made to describe them;
        # only the wrap r g_{L-1} r^-1 = g_0 is left to refuse them.
        orbits = shared_orbits(length)
        step = orbits.step.copy()
        step[list(swapped)] = step[list(swapped[::-1])]
        producing(monkeypatch, chained(table_of(length), step))
        with pytest.raises(ArithmeticError, match=rf"^transition table column {length - 1} "
                                                  "does not commute with the rotation$"):
            transition_table(shared_basis(length), replace(orbits, step=step))

    @pytest.mark.parametrize("length, swapped", [(3, (0, 1)), (6, (2, 9)), (9, (5, -1))])
    def test_rejects_a_mirror_that_breaks_the_dihedral_relation(self, length, swapped):
        orbits = shared_orbits(length)
        mirror = orbits.mirror.copy()
        mirror[list(swapped)] = mirror[list(swapped[::-1])]
        with pytest.raises(ArithmeticError, match=r"^the reflection and the rotation do not "
                                                  r"satisfy s r s\^-1 = r\^-1$"):
            transition_table(shared_basis(length), replace(orbits, mirror=mirror))

    @pytest.mark.parametrize("length", [6, 9, 12])
    @pytest.mark.parametrize("name, field", [("rotation", "step"), ("reflection", "mirror")])
    def test_rejects_maps_that_are_not_permutations(self, length, name, field):
        # A constant map has no inverse: it is refused before any gather through one.
        orbits = shared_orbits(length)
        constant = replace(orbits, **{field: np.zeros_like(orbits.step)})
        with pytest.raises(ArithmeticError, match=rf"^the {name} map is not a permutation "
                                                  "of the basis$"):
            transition_table(shared_basis(length), constant)

    @pytest.mark.parametrize("length", range(3, 11))
    def test_rejects_the_reflection_about_another_axis(self, length):
        # r s is a reflection too, so the relation holds; row 0 does not commute with it.
        orbits = shared_orbits(length)
        other = replace(orbits, mirror=orbits.step.take(orbits.mirror))
        with pytest.raises(ArithmeticError, match="^transition table column 0 does not commute "
                                                  "with the reflection$"):
            transition_table(shared_basis(length), other)

    @pytest.mark.parametrize("length", range(5, 10))
    @pytest.mark.parametrize("family", [0, 1])
    def test_names_a_reflection_fault_by_column_0_or_l(self, monkeypatch, length, family):
        # g_a g_{a+1} in place of g_a in one family commutes with the rotation only. Every
        # row of that family fails its reflection, and the lemma names row 0 of the family.
        table = table_of(length).copy()
        rows = table[family * length : (family + 1) * length]
        rows[:] = [rows[a].take(rows[(a + 1) % length]) for a in range(length)]
        with pytest.raises(ArithmeticError, match="does not commute with the reflection$"):
            equivariance_gate(table, shared_orbits(length))
        producing(monkeypatch, table)
        with pytest.raises(ArithmeticError, match=rf"^transition table column {family * length} "
                                                  "does not commute with the reflection$"):
            transition_table(shared_basis(length), shared_orbits(length))


def perturbed_key(patch):
    # Site 7's braid keys say otherwise than its conjugated rows.
    def perturbed(partners, keys, site):
        images = _image_keys(partners, keys, site)
        if site == 6:
            images[1, len(keys) // 2] += np.uint64(1)
        return images

    patch.setattr(generators_module, "_image_keys", perturbed)
    return 7, shared_orbits(7), r"transition table rows of site 7 do not match their rank keys"


def fooled_wrap(patch):
    orbits = shared_orbits(8)
    step = orbits.step.copy()
    step[[3, 50]] = step[[50, 3]]
    producing(patch, chained(table_of(8), step))
    return (8, replace(orbits, step=step),
            "transition table column 7 does not commute with the rotation")


def broken_dihedral_relation(patch):
    orbits = shared_orbits(6)
    mirror = orbits.mirror.copy()
    mirror[[2, 9]] = mirror[[9, 2]]
    return 6, replace(orbits, mirror=mirror), (r"the reflection and the rotation do not satisfy "
                                               r"s r s\^-1 = r\^-1")


def other_axis(patch):
    orbits = shared_orbits(7)
    return (7, replace(orbits, mirror=orbits.step.take(orbits.mirror)),
            "transition table column 0 does not commute with the reflection")


def braid_reflection(patch):
    table = table_of(6).copy()
    rows = table[6:]
    rows[:] = [rows[a].take(rows[(a + 1) % 6]) for a in range(6)]
    producing(patch, table)
    return 6, shared_orbits(6), "transition table column 6 does not commute with the reflection"


@pytest.mark.parametrize("fault", [perturbed_key, fooled_wrap, broken_dihedral_relation,
                                   other_axis, braid_reflection],
                         ids=lambda fault: fault.__name__)
def test_cold_groundstate_refuses_with_the_producers_text(monkeypatch, tmp_path, capsys, fault):
    # A cold solve reads the rows from `site_pairs` as `transition_table` does, so
    # each fault of the stream raises the same ArithmeticError text there, and the
    # CLI exits 3 with it, caching nothing.
    length, orbits, message = fault(monkeypatch)
    with pytest.raises(ArithmeticError, match=f"^{message}$") as direct:
        transition_table(shared_basis(length), orbits)
    monkeypatch.setattr(kernel_module, "shared_orbits", lambda n: orbits)
    with pytest.raises(ArithmeticError) as cold:
        groundstate(length)
    assert str(cold.value) == str(direct.value)
    if fault is broken_dihedral_relation:
        capsys.readouterr()
        assert main(["groundstate", "--length", str(length), "--cache-dir", str(tmp_path)]) == 3
        assert capsys.readouterr() == ("", f"error: {direct.value}\n")
        assert list(tmp_path.iterdir()) == []


class TestImageKeys:
    @pytest.mark.parametrize("length", range(2, 17))
    def test_increments_equal_the_integer_oracle_mod_2_64(self, length):
        # One row per partner pair (pa, pb) of sites a and a+1, DEFECT included,
        # with key 0, so the images are the uint64 increment tables.
        pairs = np.arange(-1, length, dtype=np.int8)
        for a in range(length):
            b = (a + 1) % length
            partners = np.zeros(((length + 1) ** 2, length), dtype=np.int8)
            partners[:, a], partners[:, b] = np.repeat(pairs, length + 1), np.tile(pairs, length + 1)
            images = _image_keys(partners, np.zeros(len(partners), dtype=np.uint64), a)
            assert images.dtype == np.uint64
            assert images.tolist() == [[v % 2**64 for v in family]
                                       for family in image_key_increments(length, a)]
            # Where a and b are paired (pa == b) the braid changes no key.
            assert not images[1].reshape(length + 1, length + 1)[b + 1].any()

    @settings(max_examples=40, deadline=None)
    @given(long_diagrams(15, 16))
    def test_delta_keys_are_exact_at_the_wrap(self, d):
        # No basis: at L = 15 and 16 the keys use all 64 bits and the
        # intermediate products wrap.
        def key(image):
            return _key(np.array([image.partner], dtype=np.int8))[0]

        partners = np.array([d.partner], dtype=np.int8)
        for a in range(d.length):
            monoid, braid = _image_keys(partners, _key(partners), a)[:, 0]
            assert monoid == key(apply_monoid(a + 1, d))
            assert braid == key(apply_braid(a + 1, d))


class TestMonoid:
    def test_joins_neighbours_and_their_partners(self):
        assert apply_monoid(2, diagram(4, (1, 2), (3, 4))) == diagram(4, (2, 3), (1, 4))

    def test_identity_when_already_joined(self):
        d = diagram(4, (1, 2), (3, 4))
        assert apply_monoid(1, d) is d

    def test_defect_moves_to_displaced_partner(self):
        before = diagram(5, (1, 2), (4, 5))  # defect at 3
        after = diagram(5, (2, 3), (4, 5))  # defect at 1
        assert apply_monoid(2, before) == after

    def test_wraps_around_the_circle(self):
        assert apply_monoid(4, diagram(4, (1, 2), (3, 4))) == diagram(4, (4, 1), (2, 3))

    def test_index_out_of_range(self):
        d = diagram(4, (1, 2), (3, 4))
        for bad in (0, 5, -1):
            with pytest.raises(IndexError):
                apply_monoid(bad, d)


class TestBraid:
    def test_swaps_partners(self):
        assert apply_braid(2, diagram(4, (1, 2), (3, 4))) == diagram(4, (1, 3), (2, 4))

    def test_identity_when_already_joined(self):
        d = diagram(4, (1, 2), (3, 4))
        assert apply_braid(1, d) is d

    def test_defect_swap(self):
        before = diagram(5, (1, 5), (3, 4))  # defect at 2
        after = diagram(5, (2, 5), (3, 4))  # defect at 1
        assert apply_braid(1, before) == after

    def test_involution_everywhere(self):
        for length in (4, 5, 6, 7):
            for d in diagrams_of(enumerate_diagrams(length)):
                for i in range(1, length + 1):
                    assert apply_braid(i, apply_braid(i, d)) == d

    def test_index_out_of_range(self):
        d = diagram(4, (1, 2), (3, 4))
        for bad in (0, 5):
            with pytest.raises(IndexError):
                apply_braid(bad, d)


@pytest.mark.parametrize("length", range(3, 9))
def test_generators_preserve_diagram_invariants(length):
    # ChordDiagram.__post_init__ revalidates, so constructing the image suffices;
    # additionally the defect count must be conserved.
    for d in diagrams_of(enumerate_diagrams(length)):
        for i in range(1, length + 1):
            for image in (apply_monoid(i, d), apply_braid(i, d)):
                assert image.length == length
                assert (image.defect is None) == (length % 2 == 0)


@pytest.mark.parametrize("length", range(3, 9))
def test_relations_exhaustive(length):
    report = check_relations(length)
    assert report.all_passed, report.to_text()


def test_relation_case_counts():
    reports = [check_relations(length) for length in range(3, 11)]
    assert sum(c.cases for r in reports for c in r.checks) == 525_528


def test_relations_reuse_the_shared_basis_and_rotation(monkeypatch):
    shared_orbits(7)

    def enumerated_again(*args):
        raise AssertionError("check_relations enumerated or ranked the basis again")

    for name in ("enumerate_diagrams", "compute_orbits", "dihedral_maps"):
        for module in (diagrams_module, generators_module):
            monkeypatch.setattr(module, name, enumerated_again, raising=False)
    assert check_relations(7).all_passed


def test_relation_report_text_runs():
    text = check_relations(5).to_text()
    assert "exhaustive" in text
    assert "pass" in text


def test_broken_table_fails_with_counterexample(monkeypatch):
    # Make e_1 the identity map: idempotence still holds, while absorption
    # e_1 e_2 e_1 = e_1 fails first on the first diagram that e_2 moves.
    def broken(basis, orbits):
        table = transition_table(basis, orbits)
        table[0] = range(len(basis))
        return table

    monkeypatch.setattr(generators_module, "transition_table", broken)
    length = 6
    basis = enumerate_diagrams(length)
    moved = next(k for k, d in enumerate(diagrams_of(basis)) if apply_monoid(2, d) != d)
    # The counterexample is named from its partner row: the package has no
    # diagram type to build.
    report = check_relations(length)
    assert defined_in_package("ChordDiagram") == []
    assert not report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["monoid idempotent: e_i e_i = e_i"].passed
    absorption = by_name["monoid absorption: e_i e_j e_i = e_i"]
    assert not absorption.passed
    assert absorption.counterexample == f"i=1,j=2 on {encode_partners(basis.partners[moved])}"
    assert absorption.cases == moved + 1
    assert f"FAIL  ({moved + 1} cases)  counterexample: i=1,j=2 on" in report.to_text()


# One entry of the site-L row (monoid or braid) raised by one, modulo N. Rows
# 2..L are conjugates by construction, so only the wrap from site L-1 to L,
# the first rotation case to read row L, can fail; the counts and
# counterexamples were recorded before the covariance family was rewritten
# over `conjugate`.
@pytest.mark.parametrize("length, row, cases, counterexample", [
    (6, 5, 68, "e,i=5 on 4,5,6,1,2,3"),
    (6, 11, 158, "b,i=5 on 4,5,6,1,2,3"),
    (7, 6, 578, "e,i=6 on 4,5,6,1,2,3,."),
    (7, 13, 1313, "b,i=6 on 4,5,6,1,2,3,."),
])
def test_corrupt_site_l_row_fails_rotation_covariance(monkeypatch, length, row, cases,
                                                      counterexample):
    def broken(basis, orbits):
        table = transition_table(basis, orbits)
        k = len(basis) // 2
        table[row, k] = (table[row, k] + 1) % len(basis)
        return table

    monkeypatch.setattr(generators_module, "transition_table", broken)
    report = check_relations(length)
    covariance = {c.name: c for c in report.checks}["rotation covariance: g_{i+1} = r g_i r^-1"]
    assert not covariance.passed
    assert (covariance.cases, covariance.counterexample) == (cases, counterexample)


def test_relations_reject_tiny_length():
    with pytest.raises(ValueError):
        check_relations(2)


@pytest.mark.parametrize("length", (4, 6, 8))
def test_braid_keeps_labels_away_from_block_boundaries(length):
    half = length // 2
    for d in diagrams_of(enumerate_diagrams(length)):
        if permutation_label(d) is None:
            continue
        for i in range(1, length + 1):
            if i in (half, length):
                continue
            assert permutation_label(apply_braid(i, d)) is not None
