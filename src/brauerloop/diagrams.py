"""
Chord diagrams on a circle and their dihedral symmetry classes.

A diagram on L sites pairs the sites 0..L-1 by chords (internally 0-based;
all text I/O is 1-based). The pairing is stored as a partner array:
partner[i] is the site paired with i. For odd L exactly one site stays
unpaired and carries the DEFECT marker instead; think of it as attached to a
fixed virtual point at the centre of the circle.

Diagrams compare by their partner tuples, with DEFECT (-1) sorting below any
site index. A basis lists every diagram of one length in increasing
lexicographic order of partner tuples, which pins the index of each diagram
and keeps downstream matrices and cache files reproducible. The basis is an
(N, L) int8 partner array, built in blocks keyed by the partner of site 0
from the memoised rows of the two shorter lengths, and validated with numpy.
Symmetry orbits group basis indices under the 2L rotations and reflections
of the circle; they are one `Orbits` record of index arrays (representative,
size, members by offset, orbit of each diagram), and the orbit
representative is the lexicographically smallest member. Text output and
cache files carry rows as `encode_partners` strings. `ChordDiagram` is the
type of single diagrams read from text or named in a failure, and of the
per-diagram test oracles, and is built nowhere else.

Even-length diagrams whose left half-circle connects entirely into the
right half-circle are labelled by a permutation; odd-length diagrams whose
right half-circle connects entirely into the left half-circle are labelled
by a partial permutation (the defect sits on the left). These labels drive
the verification suite in :mod:`brauerloop.checks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counting import double_factorial

DEFECT = -1


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


def encode_partners(partner) -> str:
    """`ChordDiagram.encode` of one partner row."""
    return ",".join("." if j == DEFECT else str(j + 1) for j in partner)


def _first(mask: np.ndarray) -> tuple[int, int]:
    row, site = np.argwhere(mask)[0]
    return int(row), int(site)


def _validated(length: int, partners) -> np.ndarray:
    """The rows as an (N, L) int8 array, each checked to be a diagram.

    Does for the whole array what `ChordDiagram` does for one partner tuple,
    with int8 and bool temporaries of the array's shape; raises ValueError
    naming the first offending row.
    """
    if length < 2:
        raise ValueError(f"a diagram needs at least 2 sites, got {length}")
    p = np.asarray(partners)
    if p.ndim != 2 or p.shape[1] != length or not np.issubdtype(p.dtype, np.integer):
        raise ValueError(f"partners must be an integer array with rows of length {length}")
    outside = (p < DEFECT) | (p >= length)
    if outside.any():
        r, i = _first(outside)
        raise ValueError(f"row {r}: partner {p[r, i]} of site {i} is out of range")
    p = p.astype(np.int8, copy=False)
    looped = p == np.arange(length, dtype=np.int8)
    if looped.any():
        r, i = _first(looped)
        raise ValueError(f"row {r}: site {i} is paired with itself")
    rows = np.arange(len(p))
    for i in range(length):
        j = p[:, i]
        broken = (j != DEFECT) & (p[rows, np.maximum(j, 0)] != i)
        if broken.any():
            r = int(np.argmax(broken))
            raise ValueError(f"row {r}: pairing is not an involution at site {i}")
    defects = np.count_nonzero(p == DEFECT, axis=1)
    wrong = np.flatnonzero(defects != length % 2)
    if wrong.size:
        r = int(wrong[0])
        raise ValueError(
            f"row {r}: length {length} requires exactly {length % 2} defect(s), "
            f"found {defects[r]}"
        )
    return p


class BasisTooLargeError(ValueError):
    """A length whose diagrams cannot be ranked in 64 bits; raised before any allocation."""


def _ranks_fit(length: int) -> bool:
    """Whether the largest rank key of the length, base**L - 1, fits in uint64 (L <= 16)."""
    return (length + length % 2) ** length <= 2**64


def _key(partners: np.ndarray) -> np.ndarray:
    """The uint64 rank key of each row of an (M, L) partner array (see `DiagramBasis`)."""
    shift = partners.shape[1] % 2
    base = partners.shape[1] + shift
    keys = np.zeros(len(partners), dtype=np.uint64)
    for column in partners.T:
        keys *= np.uint64(base)
        keys += (column + shift).astype(np.uint64)
    return keys


class DiagramBasis:
    """Every diagram of one length, in increasing lexicographic order.

    `partners` holds them as an (N, L) int8 array, validated on
    construction. `_key` reads a row as a mixed-radix key whose digits are
    the partners, shifted by one for odd L so that DEFECT is digit 0; keys
    then sort like the diagrams, and `locate` finds basis positions by key.
    Indexing and iteration build `ChordDiagram` objects on demand.
    """

    __slots__ = ("length", "partners", "_keys")

    def __init__(self, length: int, partners):
        self.length = length
        self.partners = _validated(length, partners)
        if not _ranks_fit(length):
            raise ValueError(f"length {length} is too long to rank diagrams in 64 bits")
        self._keys = _key(self.partners)
        if np.any(self._keys[1:] <= self._keys[:-1]):
            raise ValueError("basis diagrams must be in strictly increasing order")

    def locate(self, keys: np.ndarray) -> np.ndarray:
        """Basis positions of the diagrams with these rank keys; KeyError if one is absent."""
        found = np.searchsorted(self._keys, keys)
        clipped = np.minimum(found, len(self._keys) - 1)
        if not np.array_equal(self._keys[clipped], keys):
            raise KeyError("partner rows that are not diagrams of this basis")
        return found

    def index_of(self, diagram: ChordDiagram) -> int:
        if diagram.length != self.length:
            raise KeyError(diagram.partner)
        return int(self.locate(_key(np.array([diagram.partner], dtype=np.int8)))[0])

    def __len__(self) -> int:
        return len(self.partners)

    def __iter__(self):
        return (ChordDiagram(tuple(row)) for row in self.partners.tolist())

    def __getitem__(self, i: int) -> ChordDiagram:
        return ChordDiagram(tuple(self.partners[i].tolist()))


@dataclass(frozen=True, eq=False)
class Orbits:
    """Dihedral orbits of one basis as index arrays, in order of representative.

    Orbit k holds the `sizes[k]` basis indices `members[offsets[k] :
    offsets[k + 1]]` in increasing order; its representative
    `representatives[k]` is the first of them, and `orbit_of[x]` is the
    orbit of basis index x. These arrays are int64, and the int32 maps
    `step` and `mirror` of `compute_orbits` generate the orbits; `len()` is
    the orbit count.
    """

    representatives: np.ndarray
    sizes: np.ndarray
    members: np.ndarray
    offsets: np.ndarray
    orbit_of: np.ndarray
    step: np.ndarray
    mirror: np.ndarray

    @classmethod
    def grouped(cls, members, sizes, step, mirror) -> Orbits:
        """The record of orbits given as consecutive groups of `members` with these sizes."""
        members = np.array(members, dtype=np.int64)
        sizes = np.array(sizes, dtype=np.int64)
        offsets = np.append(0, np.cumsum(sizes))
        orbit_of = np.empty(len(members), dtype=np.int64)
        orbit_of[members] = np.repeat(np.arange(len(sizes)), sizes)
        arrays = (members[offsets[:-1]], sizes, members, offsets, orbit_of, step, mirror)
        for array in arrays:
            array.flags.writeable = False  # shared through `shared_orbits`
        return cls(*arrays)

    def __len__(self) -> int:
        return len(self.sizes)

    def members_of(self, k: int) -> np.ndarray:
        return self.members[self.offsets[k] : self.offsets[k + 1]]


@dataclass(frozen=True, order=True)
class Permutation:
    """Bijection of {1..n} stored as its one-line image tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"{self.image} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> Permutation:
        """The order-reversing permutation (n, n-1, ..., 1)."""
        return cls(tuple(range(n, 0, -1)))

    def compact(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.image)
        return ",".join(str(v) for v in self.image)

    def __str__(self) -> str:
        return f"({self.compact()})"


@dataclass(frozen=True)
class PartialPermutation:
    """Injective map of all but one of {1..n+1} onto {1..n}.

    The image tuple has length n+1 with None at the one unmapped point;
    `reverse()` gives the inverse-direction map on {1..n}.
    """

    image: tuple[int | None, ...]

    def __post_init__(self):
        n = len(self.image) - 1
        if n < 1:
            raise ValueError("a partial permutation needs rank at least 1")
        defined = [v for v in self.image if v is not None]
        if len(defined) != n:
            raise ValueError("exactly one image entry must be None")
        if sorted(defined) != list(range(1, n + 1)):
            raise ValueError(f"defined entries must be 1..{n} without repeats")

    @property
    def rank(self) -> int:
        return len(self.image) - 1

    def reverse(self) -> tuple[int, ...]:
        """The reverse-connectivity map: position of each value 1..n."""
        back = {v: i + 1 for i, v in enumerate(self.image) if v is not None}
        return tuple(back[v] for v in range(1, self.rank + 1))

    def compact(self) -> str:
        if self.rank <= 8:
            return "".join("." if v is None else str(v) for v in self.image)
        return ",".join("." if v is None else str(v) for v in self.image)

    def __str__(self) -> str:
        return f"({self.compact()})"

    def _key(self) -> tuple[int, ...]:
        return tuple(0 if v is None else v for v in self.image)

    def __lt__(self, other: PartialPermutation) -> bool:
        return self._key() < other._key()


def enumerate_diagrams(length: int) -> DiagramBasis:
    """All chord diagrams of the given length, lexicographically ordered.

    Raises `BasisTooLargeError` before allocating anything when the
    length's rank keys would not fit in 64 bits.
    """
    if length < 2:
        raise ValueError(f"diagram enumeration needs length >= 2, got {length}")
    if not _ranks_fit(length):
        odd = length % 2
        count = (length if odd else 1) * double_factorial(length - 1 - odd)
        raise BasisTooLargeError(
            f"length {length} has {count:,} diagrams ({count * length:,} bytes of "
            "partner array); ranks fit in 64 bits only up to length 16"
        )
    return DiagramBasis(length, _partner_rows(length))


@lru_cache(maxsize=16)
def _partner_rows(length: int) -> np.ndarray:
    """The sorted partner rows of every diagram on `length` >= 0 sites, read-only.

    The rows come in blocks by the partner of site 0, in increasing order.
    For odd L the first block puts the defect at site 0 and fills sites
    1..L-1 with the rows of L-1, shifted by one. Then, for j = 1..L-1, the
    block pairing site 0 with j fills the remaining sites with the rows of
    L-2, relabelled in order; the relabelling is increasing and keeps DEFECT
    lowest, so each block is sorted and so is the whole.
    """
    if length < 2:
        rows = np.full((1, length), DEFECT, dtype=np.int8)
        rows.flags.writeable = False
        return rows
    shorter = _partner_rows(length - 2)
    start = len(_partner_rows(length - 1)) if length % 2 else 0
    rows = np.empty((start + (length - 1) * len(shorter), length), dtype=np.int8)
    if start:
        rows[:start, 0] = DEFECT
        rows[:start, 1:] = _partner_rows(length - 1) + 1
    for j in range(1, length):
        block = rows[start : start + len(shorter)]
        rest = np.delete(np.arange(length), [0, j])
        # The trailing entry maps DEFECT (-1) to itself.
        block[:, rest] = np.append(rest, DEFECT).astype(np.int8)[shorter]
        block[:, 0] = j
        block[:, j] = 0
        start += len(shorter)
    rows.flags.writeable = False
    return rows


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


def rotate_partners(partners: np.ndarray, k: int) -> np.ndarray:
    """`rotate` applied to every row of an (M, L) partner array."""
    size = partners.shape[1]
    # Lookup table for the new partner; the trailing entry maps DEFECT (-1).
    moved = np.append((np.arange(size) + k) % size, DEFECT).astype(np.int8)
    return moved[np.roll(partners, k % size, axis=1)]


def reflect_partners(partners: np.ndarray) -> np.ndarray:
    """`reflect` applied to every row of an (M, L) partner array."""
    size = partners.shape[1]
    mirrored = np.append(np.arange(size - 1, -1, -1), DEFECT).astype(np.int8)
    return mirrored[partners[:, ::-1]]


def compute_orbits(basis: DiagramBasis) -> Orbits:
    """Partition the basis into dihedral orbits, sorted by representative.

    Two images are ranked and kept as int32 maps: step[x] is the basis index
    of `rotate(basis[x], 1)` and mirror[x] that of `reflect(basis[x])`. Each
    orbit is labelled by the smallest basis index among its 2L images; with
    `image` the map of the k-th rotation, the images of x are image[x] and
    image[mirror[x]], one gather each. The basis is sorted, so the smallest
    index is the lexicographically smallest image: the canonical representative.
    """
    assert len(basis) < 2**31, "basis indices must fit in int32"
    step = basis.locate(_key(rotate_partners(basis.partners, 1))).astype(np.int32)
    mirror = basis.locate(_key(reflect_partners(basis.partners))).astype(np.int32)
    image = np.arange(len(basis), dtype=np.int32)
    smallest = np.minimum(image, mirror)
    for _ in range(basis.length - 1):
        image = step[image]
        np.minimum(smallest, image, out=smallest)
        np.minimum(smallest, image[mirror], out=smallest)
    order = np.argsort(smallest, kind="stable")
    starts = np.flatnonzero(np.diff(smallest[order])) + 1
    orbits = Orbits.grouped(order, np.diff(starts, prepend=0, append=len(order)), step, mirror)
    assert np.array_equal(smallest[orbits.representatives], orbits.representatives)
    return orbits


def permutation_label(diagram: ChordDiagram) -> Permutation | None:
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
    return Permutation(tuple(image))


def partial_permutation_label(diagram: ChordDiagram) -> PartialPermutation | None:
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
    return PartialPermutation(tuple(image))


def orbit_labels(
    basis: DiagramBasis, orbits: Orbits
) -> list[list[Permutation]] | list[list[PartialPermutation]]:
    """The labels of each orbit's labelled members, in member order.

    Agrees with `permutation_label` (even L) and `partial_permutation_label`
    (odd L) on every member. The labelled rows are picked with one mask over
    the partner array, so label objects are built only for those n! (even)
    or (n+1)! (odd) rows.
    """
    size = basis.length
    half = size // 2
    if size % 2 == 0:
        labelled = np.all(basis.partners[:, :half] >= half, axis=1)
    else:
        right = basis.partners[:, half + 1 :]
        labelled = np.all((right != DEFECT) & (right <= half), axis=1)
    rows = orbits.members[labelled[orbits.members]]
    images = basis.partners[rows, : half + size % 2].tolist()
    out: list[list] = [[] for _ in range(len(orbits))]
    for k, image in zip(orbits.orbit_of[rows].tolist(), images):
        if size % 2:
            label = PartialPermutation(tuple(None if j == DEFECT else j - half for j in image))
        else:
            label = Permutation(tuple(j - half + 1 for j in image))
        out[k].append(label)
    return out


@lru_cache(maxsize=16)
def shared_basis(length: int) -> DiagramBasis:
    """Process-wide memoised basis; enumeration is deterministic, so sharing is safe."""
    return enumerate_diagrams(length)


@lru_cache(maxsize=16)
def shared_orbits(length: int) -> Orbits:
    return compute_orbits(shared_basis(length))


@lru_cache(maxsize=16)
def representative_codes(length: int) -> tuple[str, ...]:
    """The encoded orbit representatives of the shared orbits, in orbit order."""
    rows = shared_basis(length).partners[shared_orbits(length).representatives]
    return tuple(map(encode_partners, rows.tolist()))


@lru_cache(maxsize=16)
def shared_orbit_labels(length: int) -> tuple[tuple, ...]:
    """Process-wide memoised `orbit_labels` of the shared basis and orbits."""
    return tuple(map(tuple, orbit_labels(shared_basis(length), shared_orbits(length))))
