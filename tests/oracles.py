"""Slow implementations kept as oracles for the fast paths of the package.

* `ChordDiagram`: one diagram as a partner tuple, checked site by site in
  Python; the oracle of the whole-array check `diagrams._validated`, and
  the type the per-diagram oracles below act on.
* `validation_message_by_site`: the message of the whole-array check
  `diagrams._validated`, or None, with the involution proved site by site:
  each row's partner j of site i is read back at the int32 position
  j * N + r of the flat site-major array, as the check did before it went
  over pairs of sites.
* `per_site_diagrams`: the lexicographic basis built one site at a time,
  the oracle of the block-built `enumerate_diagrams`.
* `apply_monoid` and `apply_braid`: the generator action on one
  `ChordDiagram`, the oracles of `transition_table`.
* `transition_table_by_search`: the table as (N, 2L), every site's images
  located by rank key, the oracle of the rotation-conjugated
  `transition_table`.
* `equivariance_gate`: the conjugate of every table row by the rotation and
  by the reflection, 4L conjugations, each compared with the row it must
  equal; the oracle of the equivariance proof of `transition_table`, which
  conjugates four rows and checks the dihedral relation.
* `image_key_increments`: the monoid and braid key increments of one site
  as lists of Python integers, the oracle of the uint64 increment tables
  of `generators._image_keys`.
* `rotate`, `reflect` and `canonical_representative`: the dihedral action on
  one diagram and its lexicographically smallest image, the oracles of the
  `step` and `mirror` maps and the representatives of `compute_orbits`.
* `key_by_digits`: the rank key of one partner row as a Python integer,
  read digit by digit in base L + L % 2; the oracle of the two 32-bit
  halves of `diagrams._key`.
* `rotate_partners`: the rotation of a whole partner array, which
  `orbits_by_image_keys` ranks; the oracle of the digit arithmetic of
  `diagrams._step_keys`.
* `step_by_search`: the one-site rotation located by the rank keys of
  `_step_keys`, the oracle of the block-order `step` of `compute_orbits`.
* `rotation_minimum_by_powers`: the smallest index of each rotation class
  from the L-1 powers of `step`, the oracle of the doubling
  `diagrams.rotation_minimum`.
* `permutation_label` and `partial_permutation_label`: the label tuple of
  one diagram, the oracles of `shared_orbit_labels`.
* `build_full`: the operator over the full basis, summed column by column
  from the table; its kernel is compared with the reduced one.
* `annihilates_by_table` and `product_by_table`: the full-basis check and
  the operator's product, 2L scatters through the stored table over any
  grouping of the diagrams (one weight per diagram included); the oracles
  of the rotation sums of `annihilates`, which read only the site-1 rows.
* `lump_by_rows`: the lumped operator from every full entry, with
  representative independence checked row by row; the oracle of
  `build_reduced` and `build_full`.
* `expand`: a ground state's weights over the full basis, one Python integer
  per diagram, which `annihilates_by_table` checks diagram by diagram.
* `serialize_by_json`: the cache text with its payload encoded by
  `json.dumps`, the oracle of the directly written `serialize_groundstate`.
* `decode_by_json`: a cache text read through `json.loads` and checked
  field by field, the decoder that accepted cache files before only the
  written text was, and the only JSON reader of a cache text left; the
  oracle of `deserialize_groundstate`, which accepts exactly the texts that
  it reads and that `serialize_groundstate` gives back.
* `validate_by_columns` and `connected_by_bfs`: the intensity-matrix checks
  as loops over one dict per column and a Python breadth-first search, the
  oracles of `IntensityMatrix.validate` and `connectivity_check`. Given the
  basis, `validate_by_columns` also checks the diagonal of a full matrix.

The exact kernel solvers are the oracles of `kernel_vector`:

* `bareiss_kernel`: fraction-free (Bareiss) elimination on the sparse
  integer matrix, with a Markowitz pivot choice and a deterministic
  tie-break (lowest row, then lowest column); every intermediate entry is a
  minor of the input, so all arithmetic stays integral, and the rank is read
  off during elimination.
* `modular_kernel`: blocked dense LU modulo a fixed list of 22-bit primes
  (over float64, exact because every accumulated value stays below 2**53),
  Chinese remaindering, and rational reconstruction, growing the prime count
  until the reconstruction stabilises.

Both return the kernel vector as Fractions scaled so that entry 0 is 1,
after an exact residual check in Fractions; `normalize_integer` of it is the
contract of `kernel_vector`. Every oracle reads the matrix through
`columns_of`, one dict per column.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from brauerloop import (
    DEFECT,
    DiagramBasis,
    GroundState,
    KernelDimensionError,
    Orbits,
)
from brauerloop.diagrams import (_step_keys, conjugate, encode_partners, inverse_of,
                                 representative_codes, shared_orbits)
from brauerloop.generators import _image_keys, transition_table
from brauerloop.hamiltonian import IntensityMatrix, _summed_entries, product_is_zero
from brauerloop.kernel import _coprime_positive


@dataclass(frozen=True, order=True)
class ChordDiagram:
    """Pairing of circle sites, one optional defect when the length is odd."""

    partner: tuple[int, ...]

    def __post_init__(self):
        p = self.partner
        size = len(p)
        if size < 2:
            raise ValueError(f"a diagram needs at least 2 sites, got {size}")
        defects = 0
        for i, j in enumerate(p):
            if j == DEFECT:
                defects += 1
                continue
            if not 0 <= j < size:
                raise ValueError(f"partner {j} of site {i} is out of range")
            if j == i:
                raise ValueError(f"site {i} is paired with itself")
            if p[j] != i:
                raise ValueError(f"pairing is not an involution at site {i}")
        if defects != size % 2:
            raise ValueError(
                f"length {size} requires exactly {size % 2} defect(s), found {defects}"
            )

    @property
    def length(self) -> int:
        return len(self.partner)

    @property
    def defect(self) -> int | None:
        """0-based defect site, or None when every site is paired."""
        try:
            return self.partner.index(DEFECT)
        except ValueError:
            return None

    def chords(self) -> list[tuple[int, int]]:
        """The chords as sorted 0-based pairs (i, j) with i < j."""
        return [(i, j) for i, j in enumerate(self.partner) if j != DEFECT and i < j]

    def encode(self) -> str:
        """1-based comma-separated partner list with '.' at the defect."""
        return encode_partners(self.partner)

    @classmethod
    def decode(cls, text: str) -> ChordDiagram:
        fields = text.strip().split(",")
        return cls(tuple(DEFECT if f.strip() == "." else int(f) - 1 for f in fields))

    @classmethod
    def from_pairs(cls, length: int, pairs) -> ChordDiagram:
        """Build from 1-based site pairs; unmentioned sites become the defect."""
        partner = [DEFECT] * length
        for a, b in pairs:
            partner[a - 1] = b - 1
            partner[b - 1] = a - 1
        return cls(tuple(partner))

    def __str__(self) -> str:
        return self.encode()


def validation_message_by_site(length: int, partners) -> str | None:
    """The ValueError message `_validated` gives the integer rows, None when they are diagrams.

    Checked in order: the range, in row-major order; the sites paired with
    themselves (the first row, then the lowest site); the involution (the
    lowest offending site, then its first row), each site's partners read
    back through flat site-major positions; the defect count of each row.
    """
    p = np.asarray(partners)
    if len(p) and (p.min() < DEFECT or p.max() >= length):
        r, i = np.argwhere((p < DEFECT) | (p >= length))[0]
        return f"row {r}: partner {p[r, i]} of site {i} is out of range"
    p = np.asfortranarray(p, dtype=np.int8)
    count = len(p)
    flat = p.T.reshape(-1)  # p[r, j] sits at j * N + r
    rows = np.arange(count, dtype=np.int32)
    defects = np.zeros(count, dtype=np.int16)
    looped, broken_at = [], None
    for i in range(length):
        j = p[:, i]
        if np.any(j == i):
            looped.append((int(np.argmax(j == i)), i))
        defect = j == DEFECT
        defects += defect
        # At DEFECT (-1) this reads an entry of another site, which `defect` masks.
        broken = (flat.take(j.astype(np.int32) * count + rows) != i) & ~defect
        if broken_at is None and broken.any():
            broken_at = int(np.argmax(broken)), i
    if looped:
        return "row {}: site {} is paired with itself".format(*min(looped))
    if broken_at is not None:
        return "row {}: pairing is not an involution at site {}".format(*broken_at)
    wrong = np.flatnonzero(defects != length % 2)
    if wrong.size:
        r = int(wrong[0])
        return (f"row {r}: length {length} requires exactly {length % 2} defect(s), "
                f"found {defects[r]}")
    return None


_FREE = -2  # a site not yet assigned during enumeration


def per_site_diagrams(length: int) -> DiagramBasis:
    """All chord diagrams of the given length, lexicographically ordered.

    There are (L-1)!! diagrams for even L and L*(L-2)!! for odd L. The rows
    are built one site at a time: a row whose site i is still free branches
    into the defect at i (odd L, no defect yet) and then into a chord to
    each free later site in increasing order, so children follow their
    parents in lexicographic order and no sort is needed.
    """
    if length < 2:
        raise ValueError(f"diagram enumeration needs length >= 2, got {length}")
    rows = np.full((1, length), _FREE, dtype=np.int8)
    has_defect = np.zeros(1, dtype=bool)
    for i in range(length):
        free = rows[:, i] == _FREE
        # Choice 0 keeps a row whose site i is taken, 1 puts the defect at i,
        # and 2 + k pairs i with site i + 1 + k; np.nonzero lists the choices
        # row by row in that order.
        choices = np.zeros((len(rows), length - i + 1), dtype=bool)
        choices[:, 0] = ~free
        if length % 2:
            choices[:, 1] = free & ~has_defect
        choices[:, 2:] = free[:, None] & (rows[:, i + 1 :] == _FREE)
        parent, choice = np.nonzero(choices)
        rows, has_defect = rows[parent], has_defect[parent] | (choice == 1)
        rows[choice == 1, i] = DEFECT
        paired = np.flatnonzero(choice >= 2)
        other = choice[paired] + i - 1
        rows[paired, i] = other
        rows[paired, other] = i
    return DiagramBasis(length, rows)


def _check_index(i: int, size: int) -> None:
    if not 1 <= i <= size:
        raise IndexError(f"generator index {i} out of range 1..{size}")


def apply_monoid(i: int, diagram: ChordDiagram) -> ChordDiagram:
    """Join sites i and i+1, and rejoin their former partners."""
    size = diagram.length
    _check_index(i, size)
    a = i - 1
    b = i % size
    p = diagram.partner
    pa, pb = p[a], p[b]
    if pa == b:
        return diagram
    out = list(p)
    out[a] = b
    out[b] = a
    if pa == DEFECT:
        out[pb] = DEFECT
    elif pb == DEFECT:
        out[pa] = DEFECT
    else:
        out[pa] = pb
        out[pb] = pa
    return ChordDiagram(tuple(out))


def apply_braid(i: int, diagram: ChordDiagram) -> ChordDiagram:
    """Swap the partners of sites i and i+1."""
    size = diagram.length
    _check_index(i, size)
    a = i - 1
    b = i % size
    p = diagram.partner
    pa, pb = p[a], p[b]
    if pa == b:
        return diagram
    out = list(p)
    if pa == DEFECT:
        out[a] = pb
        out[pb] = a
        out[b] = DEFECT
    elif pb == DEFECT:
        out[b] = pa
        out[pa] = b
        out[a] = DEFECT
    else:
        out[a] = pb
        out[pb] = a
        out[b] = pa
        out[pa] = b
    return ChordDiagram(tuple(out))



def _rotate_tuple(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    size = len(p)
    k %= size
    out = [DEFECT] * size
    for i, j in enumerate(p):
        out[(i + k) % size] = DEFECT if j == DEFECT else (j + k) % size
    return tuple(out)


def _reflect_tuple(p: tuple[int, ...]) -> tuple[int, ...]:
    size = len(p)
    out = [DEFECT] * size
    for i, j in enumerate(p):
        out[size - 1 - i] = DEFECT if j == DEFECT else size - 1 - j
    return tuple(out)


def rotate(diagram: ChordDiagram, k: int) -> ChordDiagram:
    """Rotate every site (and the defect) forward by k positions."""
    return ChordDiagram(_rotate_tuple(diagram.partner, k))


def reflect(diagram: ChordDiagram) -> ChordDiagram:
    """Mirror the circle: site i goes to site L-1-i."""
    return ChordDiagram(_reflect_tuple(diagram.partner))


def _dihedral_images(p: tuple[int, ...]):
    straight = p
    mirrored = _reflect_tuple(p)
    for _ in range(len(p)):
        yield straight
        yield mirrored
        straight = _rotate_tuple(straight, 1)
        mirrored = _rotate_tuple(mirrored, 1)


def canonical_representative(diagram: ChordDiagram) -> ChordDiagram:
    """Lexicographically smallest of the 2L dihedral images of the diagram."""
    return ChordDiagram(min(_dihedral_images(diagram.partner)))


def key_by_digits(partner) -> int:
    """The rank key of one partner row: its partners, shifted by one for odd L so
    that DEFECT is digit 0, read as a base L + L % 2 number, site 0 first."""
    shift = len(partner) % 2
    key = 0
    for j in partner:
        key = key * (len(partner) + shift) + j + shift
    return key


def rotate_partners(partners: np.ndarray, k: int) -> np.ndarray:
    """Every row of an (M, L) partner array with its sites and defect moved forward by k."""
    size = partners.shape[1]
    # Lookup table for the new partner; the trailing entry maps DEFECT (-1).
    moved = np.append((np.arange(size) + k) % size, DEFECT).astype(np.int8)
    return moved[np.roll(partners, k % size, axis=1)]


def permutation_label(diagram: ChordDiagram) -> tuple[int, ...] | None:
    """Label of an even diagram whose left half maps onto its right half.

    With 1-based sites and L = 2n, a labelled diagram pairs site i of the
    left block {1..n} with site n + pi(i) of the right block. Returns None
    when any left-block site pairs inside the left block.
    """
    size = diagram.length
    if size % 2:
        raise ValueError("permutation labels require an even number of sites")
    half = size // 2
    image = []
    for i in range(half):
        j = diagram.partner[i]
        if j < half:
            return None
        image.append(j - half + 1)
    return tuple(image)


def partial_permutation_label(diagram: ChordDiagram) -> tuple[int | None, ...] | None:
    """Label of an odd diagram whose right half maps into its left half.

    With L = 2n+1 the left block {1..n+1} holds the defect; each right-block
    site n+1+k pairs with some left site. Returns None when a right-block
    site pairs inside the right block or carries the defect.
    """
    size = diagram.length
    if size % 2 == 0:
        raise ValueError("partial permutation labels require an odd number of sites")
    half = size // 2
    for i in range(half + 1, size):
        j = diagram.partner[i]
        if j == DEFECT or j > half:
            return None
    image = []
    for i in range(half + 1):
        j = diagram.partner[i]
        image.append(None if j == DEFECT else j - half)
    return tuple(image)



def transition_table_by_search(basis: DiagramBasis) -> np.ndarray:
    """Basis indices of all generator images, as an (N, 2L) int32 array.

    Column i-1 holds the monoid image at site i and column L+i-1 the braid
    image, every one located by the rank keys of `_image_keys`.
    """
    size = basis.length
    table = np.empty((len(basis), 2 * size), dtype=np.int32)
    for a in range(size):
        table[:, a::size] = basis.locate(_image_keys(basis.partners, basis._keys, a)).T
    return table


def equivariance_gate(table: np.ndarray, orbits: Orbits) -> None:
    """Every row of the table commutes with the rotation and the reflection of `orbits`.

    The conjugate of row a by `step` must be row a+1 and by `mirror` row
    L-2-a of its family (mod L); else ArithmeticError names "column a", the
    first row in the order rotation, then reflection, whose conjugate differs.
    """
    size = len(table) // 2
    for name, image, sign, offset in (("rotation", orbits.step, 1, 1),
                                      ("reflection", orbits.mirror, -1, -2)):
        inverse = inverse_of(image)
        for a in range(2 * size):
            shifted = a - a % size + (sign * a + offset) % size
            if not np.array_equal(table[shifted], conjugate(table[a], image, inverse)):
                raise ArithmeticError(
                    f"transition table column {a} does not commute with the {name}"
                )


def image_key_increments(size: int, a: int) -> tuple[list[int], list[int]]:
    """The monoid and braid key increments at 0-based site a, as Python integers.

    Entry (pa + 1) * (L + 1) + pb + 1 belongs to the partners pa, pb of a and
    b = a+1 (DEFECT = -1 included); w[site] = base**(L-1-site), w[DEFECT] = 0.
    """
    b = (a + 1) % size
    w = [(size + size % 2) ** (size - 1 - s) for s in range(size)] + [0]  # w[-1]: DEFECT's
    sites = range(-1, size)
    monoid = [(b - pa) * (w[a] - w[pb]) + (a - pb) * (w[b] - w[pa]) for pa in sites for pb in sites]
    braid = [0 if pa == b else (pb - pa) * (w[a] - w[b]) + (a - b) * (w[pb] - w[pa])
             for pa in sites for pb in sites]
    return monoid, braid


def step_by_search(basis: DiagramBasis) -> np.ndarray:
    """Basis index of every row rotated forward by one site, as int32, located by rank key."""
    return basis.locate(_step_keys(basis.partners, basis._keys)).astype(np.int32)


def rotation_minimum_by_powers(step: np.ndarray, size: int) -> np.ndarray:
    """rmin[x], the smallest of x, step[x], ..., step^(size-1)[x], one power at a time."""
    rmin = np.arange(len(step), dtype=step.dtype)
    image = rmin
    for _ in range(size - 1):
        image = step[image]
        np.minimum(rmin, image, out=rmin)
    return rmin


def expand(state) -> tuple[int, ...]:
    """Per-diagram weights of a `GroundState` over the full basis, in basis order."""
    weights = np.array(state.weights, dtype=object)
    return tuple(weights[shared_orbits(state.length).orbit_of].tolist())


def serialize_by_json(state) -> str:
    """The cache text of a `GroundState`, its payload encoded by `json.dumps` with sorted keys."""
    payload = {
        "length": state.length,
        "normalization": "min-entry-one",
        "generator": "reduced",
        "orbits": [
            {"representative": code, "size": size, "weight": str(weight)}
            for code, size, weight in zip(
                representative_codes(state.length), state.sizes, state.weights
            )
        ],
    }
    # "checksum" sorts first among the keys, so it leads the canonical text.
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(body.encode()).hexdigest()
    return '{"checksum":"' + checksum + '",' + body[1:] + "\n"


def decode_by_json(text: str, length: int) -> GroundState:
    """The `GroundState` of a cache text of one length, read through `json.loads`.

    The checksum is the SHA-256 of the text after the leading checksum
    field, less a final newline; the length, the constant fields, and per
    orbit the representative and the int size must be those of
    `shared_orbits(length)`, and each weight the decimal string of a
    positive integer. A fault raises ValueError, or the KeyError, TypeError
    or AttributeError of a payload of another shape. It also reads texts
    that no writer makes (a final newline dropped, a space added under a new
    checksum), which `deserialize_groundstate` refuses.
    """
    payload = json.loads(text)
    checksum = payload.pop("checksum")
    head = '{"checksum":"' + checksum + '",'
    body = "{" + text.removeprefix(head).removesuffix("\n")
    if not text.startswith(head) or hashlib.sha256(body.encode()).hexdigest() != checksum:
        raise ValueError("failed its checksum")
    if type(payload["length"]) is not int or payload["length"] != length:
        raise ValueError(f"holds length {payload['length']!r}")
    if (payload["generator"], payload["normalization"]) != ("reduced", "min-entry-one"):
        raise ValueError("another generator or normalization")
    expected = list(zip(representative_codes(length), shared_orbits(length).sizes.tolist()))
    if len(payload["orbits"]) != len(expected):
        raise ValueError("another orbit count")
    weights = []
    for k, (row, want) in enumerate(zip(payload["orbits"], expected)):
        if (row["representative"], row["size"]) != want or type(row["size"]) is not int:
            raise ValueError(f"orbit {k} is another orbit")
        weight = int(row["weight"])
        if weight <= 0 or str(weight) != row["weight"]:
            raise ValueError(f"orbit {k} has weight {row['weight']!r}")
        weights.append(weight)
    return GroundState(length, tuple(weights))


def build_full(basis: DiagramBasis) -> IntensityMatrix:
    """The operator over the full diagram basis, summed column by column from the table."""
    index = np.arange(len(basis))
    table = transition_table(basis, shared_orbits(basis.length))
    entries = _summed_entries(table, index, index, np.ones_like(index))
    return IntensityMatrix(basis.length, len(index), *entries)


def product_by_table(table: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """The operator over the full basis times an int64 diagram vector, by 2L scatters:
    +3L at each diagram, -2 at its monoid images and -1 at its braid images."""
    width = len(table)
    size = width // 2
    out = 3 * size * vector
    for j in range(width):
        np.add.at(out, table[j], (-2 if j < size else -1) * vector)
    return out


def annihilates_by_table(basis: DiagramBasis, weights, table: np.ndarray, orbit_of) -> bool:
    """Exact check that the operator sends the diagram vector weights[orbit_of] to zero.

    `table` is the basis's (2L, N) `transition_table` (else ValueError) and
    `orbit_of` groups the diagrams (`Orbits.orbit_of`, or `np.arange(N)`). The
    weights are arbitrary Python integers, pushed through the table in 31-bit
    limbs by `product_is_zero`.
    """
    if len(orbit_of) != len(basis) or len(weights) != orbit_of.max() + 1:
        raise ValueError("weight vector does not match the basis and its grouping")
    expected = (2 * basis.length, len(basis))
    if table.shape != expected:
        raise ValueError(f"transition table of shape {table.shape} given for a basis "
                         f"that needs {expected}")
    # A column's entries sum to 6L in magnitude, so no row exceeds 6L * n.
    return product_is_zero(lambda limb: product_by_table(table, limb.take(orbit_of)),
                           weights, 3 * len(table) * len(basis))


def lump_by_rows(basis: DiagramBasis, orbits: Orbits, table: np.ndarray) -> IntensityMatrix:
    """`build_reduced` over any grouping of the basis indices, proved row by row.

    Sums every full entry per (row, column group), then checks that all rows
    of a group hold the same sum before scaling it by the group size. The
    oracle of `build_reduced` and of `build_full`.
    """
    m, sizes = len(orbits), orbits.sizes
    orbit_of = orbits.orbit_of.astype(np.int64)
    if len(orbit_of) != len(basis) or not np.array_equal(np.bincount(orbit_of, minlength=m),
                                                          sizes):
        raise ValueError("orbits do not partition the basis")
    # The members of each group, group by group, in increasing order within it.
    members = np.argsort(orbit_of, kind="stable")
    offsets = np.append(0, np.cumsum(sizes))

    size = basis.length
    entries: list[tuple[np.ndarray, ...]] = []
    # Whole column orbits go in chunks of about 2**13 full entries, which
    # bounds the temporary arrays; the chunks are independent.
    step = max(1, 2**13 * m // ((2 * size + 1) * len(basis)))
    for lo in range(0, m, step):
        cols = members[offsets[lo] : offsets[min(lo + step, m)]]
        # Column d of the full operator: +3L at d, -2 at each monoid image and
        # -1 at each braid image. Sum the entries per (row r, column orbit C).
        rows = np.column_stack([cols, table[:, cols].T]).ravel()
        vals = np.tile(np.repeat([3 * size, -2, -1], [1, size, size]), len(cols))
        keys, inverse = np.unique(
            rows * m + np.repeat(orbit_of[cols], 2 * size + 1), return_inverse=True
        )
        sums = np.zeros(len(keys), dtype=np.int64)
        np.add.at(sums, inverse, vals)
        keys, sums = keys[sums != 0], sums[sums != 0]

        # Group the nonzero sums by (C, R): every member of R must hold the same.
        pairs, group, counts = np.unique(
            keys % m * m + orbit_of[keys // m], return_inverse=True, return_counts=True
        )
        col_orbit, row_orbit = pairs // m, pairs % m
        value = np.zeros(len(pairs), dtype=np.int64)
        value[group] = sums
        broken = counts != sizes[row_orbit]
        broken[group[sums != value[group]]] = True
        if broken.any():
            k = int(np.argmax(broken))
            raise ArithmeticError(
                "symmetry lumping is not representative-independent for rows "
                f"of orbit {row_orbit[k]} against columns of orbit {col_orbit[k]}"
            )
        entries.append((row_orbit, col_orbit, value * sizes[row_orbit]))
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    return IntensityMatrix(basis.length, m, rows, cols, vals)


def columns_of(matrix: IntensityMatrix) -> tuple[dict[int, int], ...]:
    """The entries of the matrix as one {row: value} dict per column."""
    columns: list[dict[int, int]] = [{} for _ in range(matrix.dimension)]
    for r, c, v in zip(matrix.rows.tolist(), matrix.cols.tolist(), matrix.vals.tolist()):
        columns[c][r] = v
    return tuple(columns)


def validate_by_columns(matrix: IntensityMatrix, basis: DiagramBasis | None = None) -> None:
    """`IntensityMatrix.validate` over one dict per column; raises on violation."""
    columns = columns_of(matrix)
    for c, col in enumerate(columns):
        if sum(col.values()) != 0:
            raise ArithmeticError(f"column {c} does not sum to zero")
        for r, v in col.items():
            if r != c and v > 0:
                raise ArithmeticError(f"positive off-diagonal entry at ({r}, {c})")
    if basis is not None:
        # Each site paired with its cyclic successor is fixed by both
        # generators there, which cancels 3 of the 3L on the diagonal.
        successor = (np.arange(matrix.length, dtype=np.int8) + 1) % matrix.length
        adjacent = np.count_nonzero(basis.partners == successor, axis=1)
        for c, expected in enumerate((3 * matrix.length - 3 * adjacent).tolist()):
            diagonal = columns[c].get(c, 0)
            if diagonal != expected:
                raise ArithmeticError(
                    f"diagonal of column {c} is {diagonal}, expected {expected}"
                )


def connected_by_bfs(matrix: IntensityMatrix) -> bool:
    """`connectivity_check` by a Python breadth-first search, forward and backward."""
    n = matrix.dimension
    if n <= 1:
        return True
    forward: list[list[int]] = [[] for _ in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for c, col in enumerate(columns_of(matrix)):
        for r in col:
            if r != c:
                forward[c].append(r)
                backward[r].append(c)

    def reaches_all(adj) -> bool:
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    queue.append(y)
        return count == n

    return reaches_all(forward) and reaches_all(backward)


# Fixed list of primes just below 2**22. The modular elimination runs on
# float64: with a panel of 64 columns every accumulated integer stays below
# 64 * p**2 < 2**53, so all float arithmetic is exact while the heavy updates
# go through BLAS matrix products instead of elementwise integer loops.
PRIMES = (
    4194301, 4194287, 4194277, 4194271, 4194247, 4194217, 4194199, 4194191,
    4194187, 4194181, 4194173, 4194167, 4194143, 4194137, 4194131, 4194107,
    4194103, 4194023, 4194011, 4194007, 4193977, 4193971, 4193963, 4193957,
    4193939, 4193929, 4193909, 4193869, 4193807, 4193803, 4193801, 4193789,
    4193759, 4193753, 4193743, 4193701, 4193663, 4193633, 4193573, 4193569,
)

_PANEL = 64
assert _PANEL * max(PRIMES) ** 2 < 2**53, "modular LU panel is not exact in float64"


def bareiss_kernel(matrix):
    """Kernel vector by sparse fraction-free elimination, entry 0 scaled to 1."""
    return _checked(matrix, _bareiss_kernel(columns_of(matrix), matrix.dimension))


def modular_kernel(matrix, threads=None):
    """Kernel vector by dense LU modulo primes and CRT, entry 0 scaled to 1."""
    return _checked(matrix, _modular_kernel(matrix, threads=threads))


def normalize_integer(values) -> tuple[int, ...]:
    """Scale a one-signed rational vector to coprime positive integers.

    The sign and gcd step is the package's own `_coprime_positive`, so its
    `MixedSignsError` cases are checked here on exact rationals.
    """
    fracs = [Fraction(v) for v in values]
    if not fracs:
        raise ValueError("empty vector")
    denominator = math.lcm(*(f.denominator for f in fracs))
    return _coprime_positive([int(f * denominator) for f in fracs])


def _checked(matrix, vec):
    if not _residual_is_zero(matrix, vec):
        raise ArithmeticError("solver produced a vector outside the kernel")
    anchor = next(v for v in vec if v != 0)
    return tuple(v / anchor for v in vec)


def _residual_is_zero(matrix: IntensityMatrix, vec) -> bool:
    out = [Fraction(0)] * matrix.dimension
    for c, col in enumerate(columns_of(matrix)):
        v = vec[c]
        if v == 0:
            continue
        for r, a in col.items():
            out[r] += a * v
    return all(x == 0 for x in out)


def _bareiss_kernel(columns, dimension: int) -> list[Fraction]:
    rows: list[dict[int, int]] = [{} for _ in range(dimension)]
    for c, col in enumerate(columns):
        for r, v in col.items():
            if v:
                rows[r][c] = v
    active_rows = set(range(dimension))
    active_cols = set(range(dimension))
    previous_pivot = 1
    pivots: list[tuple[int, int]] = []

    while True:
        col_count: dict[int, int] = {}
        for r in active_rows:
            for c in rows[r]:
                col_count[c] = col_count.get(c, 0) + 1
        best = None
        for r in sorted(active_rows):
            support = rows[r]
            if not support:
                continue
            nr = len(support) - 1
            for c in sorted(support):
                cost = nr * (col_count[c] - 1)
                if best is None or cost < best[0]:
                    best = (cost, r, c)
        if best is None:
            break
        _, pr, pc = best
        pivot = rows[pr][pc]
        pivot_row = rows[pr]
        for r in active_rows:
            if r == pr:
                continue
            row = rows[r]
            v = row.pop(pc, 0)
            if v:
                touched = set(row) | set(pivot_row)
                touched.discard(pc)
                for c in touched:
                    val = (pivot * row.get(c, 0) - v * pivot_row.get(c, 0)) // previous_pivot
                    if val:
                        row[c] = val
                    else:
                        row.pop(c, None)
            elif previous_pivot != pivot:
                for c in list(row):
                    row[c] = (pivot * row[c]) // previous_pivot
        active_rows.discard(pr)
        active_cols.discard(pc)
        pivots.append((pr, pc))
        previous_pivot = pivot

    rank = len(pivots)
    if rank != dimension - 1:
        raise KernelDimensionError(
            f"rank {rank} of a {dimension}-dimensional matrix; kernel is not a line"
        )
    (free_col,) = active_cols
    solution: list[Fraction | None] = [None] * dimension
    solution[free_col] = Fraction(1)
    for r, c in reversed(pivots):
        total = Fraction(0)
        for c2, v in rows[r].items():
            if c2 != c:
                total += v * solution[c2]
        solution[c] = -total / rows[r][c]
    return solution  # type: ignore[return-value]


def _reduce_block(block: np.ndarray, p: int) -> None:
    """Exact in-place reduction to [0, p) of integer-valued float64 data.

    The reciprocal-multiply quotient is off by at most one (values stay
    below 2**53 and p below 2**22, so the floor error is under 2**-20),
    which the two fix-up passes absorb; much faster than np.mod.
    """
    q = np.floor(block * (1.0 / p))
    q *= p
    block -= q
    block[block < 0] += p
    block[block >= p] -= p


def _kernel_mod_prime(dense: np.ndarray, p: int) -> list[int] | None:
    """Kernel vector mod p normalised to 1 in entry 0, or None for a bad prime.

    Blocked right-looking LU over float64, which is exact here: with primes
    below 2**22 and panels of 64 columns, every accumulated value stays under
    64 * p**2 < 2**53, so panel updates can defer reduction and the trailing
    update per panel is a single BLAS matrix product. Multipliers are stored
    in place of the eliminated entries. The strictly positive kernel makes
    every proper column subset independent over the rationals, so for a good
    prime the unique free column is the last one; a dependency showing up in
    any earlier column marks the prime as bad.
    """
    a = (dense % p).astype(np.float64)
    n = a.shape[0]
    pivot_cols: list[int] = []
    r = 0
    for c0 in range(0, n, _PANEL):
        c1 = min(c0 + _PANEL, n)
        r0 = r
        for c in range(c0, c1):
            _reduce_block(a[r:, c], p)
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                if c != n - 1:
                    return None
                continue
            pr = r + int(nz[0])
            if pr != r:
                a[[r, pr]] = a[[pr, r]]
            _reduce_block(a[r, c + 1 : c1], p)
            inv = pow(int(a[r, c]), p - 2, p)
            if r + 1 < n:
                multipliers = a[r + 1 :, c]
                multipliers *= inv
                _reduce_block(multipliers, p)
                if c + 1 < c1:
                    # deferred reduction: entries grow by < p*p per pivot
                    a[r + 1 :, c + 1 : c1] -= np.outer(multipliers, a[r, c + 1 : c1])
            pivot_cols.append(c)
            r += 1
        if c1 == n or r == r0:
            continue
        # Unit-lower triangular solve on the panel's pivot rows, then one
        # matrix product updates everything below for the trailing columns.
        panel = pivot_cols[r0 - r :]
        for k in range(1, r - r0):
            row = r0 + k
            a[row, c1:] -= a[row, panel[:k]] @ a[r0 : r0 + k, c1:]
            _reduce_block(a[row, c1:], p)
        if r < n:
            a[r:, c1:] -= a[r:, panel] @ a[r0:r, c1:]
            _reduce_block(a[r:, c1:], p)
    if len(pivot_cols) != n - 1:
        return None
    x = np.zeros(n, dtype=np.float64)
    x[n - 1] = 1.0
    # Stored multipliers sit in earlier pivot columns, whose x entries are
    # still zero when their row is reached in reverse order, so a full dot
    # picks up exactly the unknowns that are already solved.
    for k in range(n - 2, -1, -1):
        col = pivot_cols[k]
        terms = a[k] * x
        _reduce_block(terms, p)
        s = int(np.sum(terms)) % p
        inv = pow(int(a[k, col]), p - 2, p)
        x[col] = (-s * inv) % p
    if x[0] == 0:
        return None
    inv0 = pow(int(x[0]), p - 2, p)
    return [(int(v) * inv0) % p for v in x]


def rational_reconstruction(residue: int, modulus: int) -> Fraction | None:
    """Unique fraction n/d congruent to the residue with |n|, d <= sqrt(m/2)."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, residue % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    num, den = r1, s1
    if den == 0:
        return None
    if den < 0:
        num, den = -num, -den
    if den > bound or math.gcd(num, den) != 1 or math.gcd(den, modulus) != 1:
        return None
    return Fraction(num, den)


def _modular_kernel(matrix: IntensityMatrix, threads: int | None = None) -> list[Fraction]:
    n = matrix.dimension
    dense = np.zeros((n, n), dtype=np.int64)
    for c, col in enumerate(columns_of(matrix)):
        for r, v in col.items():
            dense[r, c] = v

    combined: list[int] | None = None
    modulus = 1
    previous = None
    rejected = 0
    next_prime = 0

    def solve_batch(count: int) -> None:
        nonlocal next_prime, rejected, combined, modulus
        while count > 0:
            remaining = PRIMES[next_prime:]
            if not remaining:
                if rejected >= 5:
                    raise KernelDimensionError(
                        "rank fell short of dimension - 1 modulo every tested prime"
                    )
                raise RuntimeError("prime list exhausted before reconstruction stabilised")
            # Prefetching a whole thread-batch may fold in a few spare primes;
            # that only strengthens the modulus and keeps the merge order fixed.
            take = remaining[: max(count, threads or 1)]
            next_prime += len(take)
            if threads and threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    results = list(pool.map(lambda p: _kernel_mod_prime(dense, p), take))
            else:
                results = [_kernel_mod_prime(dense, p) for p in take]
            for p, vec in zip(take, results):
                if vec is None:
                    rejected += 1
                    continue
                if combined is None:
                    combined = list(vec)
                    modulus = p
                else:
                    inv = pow(modulus, -1, p)
                    new_modulus = modulus * p
                    combined = [
                        (x + modulus * (((r - x) * inv) % p)) % new_modulus
                        for x, r in zip(combined, vec)
                    ]
                    modulus = new_modulus
                count -= 1

    solve_batch(2)
    while True:
        solve_batch(1)
        assert combined is not None
        candidate = [rational_reconstruction(x, modulus) for x in combined]
        if all(f is not None for f in candidate):
            if candidate == previous and _residual_is_zero(matrix, candidate):
                return candidate  # type: ignore[return-value]
            previous = candidate
        else:
            previous = None
