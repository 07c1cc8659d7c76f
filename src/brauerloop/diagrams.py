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
(N, L) int8 partner array stored site-major (Fortran order): row x is
diagram x as always, and the partners of site i over the whole basis,
`partners[:, i]`, are one contiguous N-vector, so each per-site pass
(validation, rank keys, the rotation sort, the label mask, the generators'
image keys) reads one column. It is built in blocks keyed by the partner of
site 0 from the rows of the two shorter lengths (a held basis's, or built
again for the call), and validated with numpy one column, and one pair of
columns, at a time.
Symmetry orbits group basis indices under the 2L rotations and reflections
of the circle; they are one `Orbits` record of index arrays (representative,
size, orbit of each diagram, and the maps that generate them), and the
orbit representative is the lexicographically smallest member. The one-site
rotation is read off the block order of the basis (rows with site L-1
paired to j rotate, in order, onto the block with site 0 paired to j+1)
and proved by digit arithmetic on the rows' keys. Only the smallest row
of each rotation class (about N/L seeds) is reflected and ranked; the
reflection of every other row follows from its seed's along the class,
since reflecting after a rotation equals rotating back after reflecting
(s r = r^-1 s in the dihedral group). Text output and cache files carry
rows as `encode_partners` strings.

Even-length diagrams whose left half-circle connects entirely into the
right half-circle are labelled by a permutation; odd-length diagrams whose
right half-circle connects entirely into the left half-circle are labelled
by a partial permutation (the defect sits on the left). A label is a plain
tuple, the one-line image of the left sites with None at the defect;
`shared_orbit_labels` reads them off the partner array, orbit by orbit, and
they drive the verification suite in :mod:`brauerloop.checks`.

The memo per length has two tiers. The N-row arrays of a length (its basis,
and the orbit maps of `shared_orbits`) are held by one memo, under one rule:
a basis at least as large as every held one drops the held lengths of that
largest size once it is enumerated, and smaller ones stay. What a finished
length's readers need (the orbit count, the sizes, the representatives'
rows and the labelled rows) is its `orbit_summary`, m rows rather than N,
taken on first use or before its N rows are dropped, and kept for every
length. Ground states, cache texts, labels and the command tables read only
the summary.
"""

from __future__ import annotations

__all__ = ["DEFECT", "BasisTooLargeError", "DiagramBasis", "Orbits", "compute_orbits",
           "enumerate_diagrams"]

from dataclasses import dataclass
from functools import cache

import numpy as np

from .counting import double_factorial

DEFECT = -1


def encode_partners(partner) -> str:
    """One partner row as 1-based comma-separated partners with '.' at the defect."""
    return ",".join("." if j == DEFECT else str(j + 1) for j in partner)


def _first(mask: np.ndarray) -> tuple[int, int]:
    row, site = np.argwhere(mask)[0]
    return int(row), int(site)


def _validated(length: int, partners) -> np.ndarray:
    """The rows as a site-major (N, L) int8 array, each checked to be a diagram.

    Each row must pair its sites by an involution without fixed sites and
    hold exactly L mod 2 defects. Site-major int8 input is kept as it is
    (the enumeration's rows); any other input is copied once into that
    layout. The check runs column by column in two reused N-length bool
    buffers and int8 compares only: the involution holds when, for every
    pair of sites i < j, the rows with partner j at site i are exactly those
    with partner i at site j. Raises ValueError naming the first offending
    row (for the involution, the first offending site and then its first
    row, which `_involution_break` finds only then), whatever the input
    layout.
    """
    if length < 2:
        raise ValueError(f"a diagram needs at least 2 sites, got {length}")
    p = np.asarray(partners)
    if p.ndim != 2 or p.shape[1] != length or not np.issubdtype(p.dtype, np.integer):
        raise ValueError(f"partners must be an integer array with rows of length {length}")
    if len(p) and (p.min() < DEFECT or p.max() >= length):
        r, i = _first((p < DEFECT) | (p >= length))
        raise ValueError(f"row {r}: partner {p[r, i]} of site {i} is out of range")
    p = np.asfortranarray(p, dtype=np.int8)
    count = len(p)
    here, there = np.empty(count, dtype=bool), np.empty(count, dtype=bool)
    defects = np.zeros(count, dtype=np.int8)
    looped, broken = [], False
    for i in range(length):
        column = p[:, i]
        if np.equal(column, i, out=here).any():
            looped.append(i)
        defects += np.equal(column, DEFECT, out=here)
        for j in range(i + 1, length):
            np.equal(column, j, out=here)
            np.equal(p[:, j], i, out=there)
            broken = broken or np.not_equal(here, there, out=here).any()
    if looped:
        r, i = min((int(np.argmax(p[:, i] == i)), i) for i in looped)
        raise ValueError(f"row {r}: site {i} is paired with itself")
    if broken:
        r, i = _involution_break(p)
        raise ValueError(f"row {r}: pairing is not an involution at site {i}")
    wrong = np.flatnonzero(defects != length % 2)
    if wrong.size:
        r = int(wrong[0])
        raise ValueError(
            f"row {r}: length {length} requires exactly {length % 2} defect(s), "
            f"found {defects[r]}"
        )
    return p


def _involution_break(p: np.ndarray) -> tuple[int, int]:
    """(row, site): the first site i whose partner j has another partner, and its first row.

    Site by site, each row reads the partner of its own partner of i; at
    DEFECT (-1) that reads site L-1, which the defect mask discards. Only
    `_validated`'s failure runs this search.
    """
    rows = np.arange(len(p))
    for i in range(p.shape[1]):
        j = p[:, i]
        broken = (p[rows, j] != i) & (j != DEFECT)
        if broken.any():
            return int(np.argmax(broken)), i
    raise AssertionError("every site's partner pairs back")


class BasisTooLargeError(ValueError):
    """A length whose diagrams cannot be ranked in 64 bits; raised before any allocation."""


def _ranks_fit(length: int) -> bool:
    """Whether the largest rank key of the length, base**L - 1, fits in uint64 (L <= 16).

    A length below 2 counts as fitting; `_validated` refuses it as no diagram.
    """
    return length < 2 or (length + length % 2) ** length <= 2**64


def _key(partners: np.ndarray) -> np.ndarray:
    """The uint64 rank key of each row of an (M, L) int8 partner array (see `DiagramBasis`).

    The first L - L//2 digits and the last L//2 are each read into a uint32
    half, the digits added as uint8 (an int8 partner shifted to 0..L is its
    digit), and the halves joined as high * base**(L//2) + low in uint64:
    half the bytes of a uint64 pass per digit.
    """
    size = partners.shape[1]
    shift = size % 2
    base = size + shift
    split = size - size // 2
    assert base**split <= 2**32, "each half of a rank key must fit in 32 bits"

    def half(columns) -> np.ndarray:
        keys = np.zeros(len(partners), dtype=np.uint32)
        for column in columns:
            keys *= np.uint32(base)
            keys += (column + shift if shift else column).view(np.uint8)
        return keys

    keys = half(partners.T[:split]).astype(np.uint64)
    keys *= np.uint64(base ** (size // 2))
    keys += half(partners.T[split:])
    return keys


class DiagramBasis:
    """Every diagram of one length, in increasing lexicographic order.

    `partners` holds them as an (N, L) int8 array, validated on
    construction and stored site-major, so that `partners[:, i]` is
    contiguous while `partners[x]` still reads diagram x. `_key` reads a
    row as a mixed-radix key whose digits are the partners, shifted by one
    for odd L so that DEFECT is digit 0; keys then sort like the diagrams,
    and `locate` finds basis positions by key.
    """

    __slots__ = ("length", "partners", "_keys")

    def __init__(self, length: int, partners):
        require_rankable(length)
        self.length = length
        self.partners = _validated(length, partners)
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

    def __len__(self) -> int:
        return len(self.partners)


@dataclass(frozen=True, eq=False)
class Orbits:
    """Dihedral orbits of one basis as index arrays, in order of representative.

    `orbit_of[x]` is the orbit of basis index x; orbit k has `sizes[k]`
    members and its representative `representatives[k]` is the smallest of
    them. `representatives` and `orbit_of` are int32, like the maps `step`
    and `mirror` of `compute_orbits` that generate the orbits; `sizes` is
    int64. `len()` is the orbit count.
    """

    representatives: np.ndarray
    sizes: np.ndarray
    orbit_of: np.ndarray
    step: np.ndarray
    mirror: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)


def prove_permutation(image: np.ndarray, count: int, name: str) -> None:
    """ArithmeticError unless the map `image` is a permutation of range(count): it has
    `count` values, each in range(count) and none missing, so each exactly once."""
    counts = np.bincount(image, minlength=count)
    if not (len(image) == len(counts) == count and counts.all()):
        raise ArithmeticError(f"the {name} map is not a permutation of the basis")


def enumerate_diagrams(length: int) -> DiagramBasis:
    """All chord diagrams of the given length, lexicographically ordered.

    Raises `BasisTooLargeError` before allocating anything when the
    length's rank keys would not fit in 64 bits. The blocks of the basis
    reuse the rows of each shorter length that the memo holds.
    """
    if length < 2:
        raise ValueError(f"diagram enumeration needs length >= 2, got {length}")
    require_rankable(length)
    held = {n: kit.basis.partners for n, kit in _kits.items()}
    return DiagramBasis(length, _partner_rows(length, held))


def require_rankable(length: int) -> None:
    """Raise `BasisTooLargeError` when the length's rank keys would not fit in 64 bits.

    Commands that run up to some length check the largest one before any other.
    """
    if not _ranks_fit(length):
        odd = length % 2
        count = (length if odd else 1) * double_factorial(length - 1 - odd)
        raise BasisTooLargeError(
            f"length {length} has {count:,} diagrams ({count * length:,} bytes of "
            "partner array); ranks fit in 64 bits only up to length 16"
        )


def _partner_rows(length: int, known: dict[int, np.ndarray]) -> np.ndarray:
    """The sorted partner rows of every diagram on `length` >= 0 sites, read-only.

    The rows come in blocks by the partner of site 0, in increasing order.
    For odd L the first block puts the defect at site 0 and fills sites
    1..L-1 with the rows of L-1, shifted by one. Then, for j = 1..L-1, the
    block pairing site 0 with j fills the remaining sites with the rows of
    L-2, relabelled q -> q + 1 + (q >= j-1) with DEFECT kept: increasing
    and keeping DEFECT lowest, so each block is sorted and so is the whole.
    `known` maps lengths to their rows: each length missing from it is built
    once and added, so the rows live only as long as the caller's dict.
    """
    if length in known:
        return known[length]
    if length < 2:
        rows = np.full((1, length), DEFECT, dtype=np.int8)
    else:
        shorter = _partner_rows(length - 2, known)
        start = len(_partner_rows(length - 1, known)) if length % 2 else 0
        rows = np.empty((start + (length - 1) * len(shorter), length), dtype=np.int8, order="F")
        if start:
            rows[:start, 0], rows[:start, 1:] = DEFECT, known[length - 1] + 1
        lifted = shorter + (shorter != DEFECT)  # q + 1, and DEFECT stays -1 < j
        for j in range(1, length):
            moved = lifted + (lifted >= j)
            block = rows[start : start + len(shorter)]
            block[:, 0], block[:, j] = j, 0
            block[:, 1:j], block[:, j + 1 :] = moved[:, : j - 1], moved[:, j - 1 :]
            start += len(shorter)
    rows.flags.writeable = False
    known[length] = rows
    return rows


def reflect_partners(partners: np.ndarray) -> np.ndarray:
    """Every row of an (M, L) partner array mirrored: site i goes to site L-1-i."""
    size = partners.shape[1]
    mirrored = np.append(np.arange(size - 1, -1, -1), DEFECT).astype(np.int8)
    return mirrored[partners[:, ::-1]]


def _step_keys(partners: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Rank keys of every row rotated forward by one site, from the rows' keys.

    The rotation moves site s to s+1 and relabels each partner the same way.
    With w[s] = base**(L-2-s) the weight of site s once moved, the new key
    is key // base, plus w[s] for each moved site s < L-1 that is not the
    defect, minus L * w[p[L-1]] for the site whose partner L-1 wraps to 0,
    plus the digit of partner p[L-1] + 1 at site 0 (the DEFECT digit if
    site L-1 is the defect). For odd L the w[d] of each row's defect site d
    is taken back with one gather: the sites other than d sum to L(L-1)/2 - d
    and the defect adds -1, so d = L(L-1)/2 - 1 less the row's sum, an int8
    N-vector built one column at a time (exact modulo 256, as 0 <= d < L).
    Computed modulo 2**64, exact since every key < base**L <= 2**64.
    """
    size = partners.shape[1]
    assert _ranks_fit(size), "rank keys must fit in 64 bits"
    shift = size % 2
    base = size + shift
    w = [base ** (size - 2 - s) for s in range(size - 1)] + [0]
    # Indexed by the partner of site L-1; the trailing entry is DEFECT's.
    head = [(sum(w) - size * w[j] + (j + 1 + shift) * base ** (size - 1)) % 2**64
            for j in range(size)] + [sum(w)]
    step = keys // np.uint64(base)
    step += np.array(head, dtype=np.uint64)[partners[:, size - 1]]
    if shift:
        defect = np.full(len(partners), size * (size - 1) // 2 - 1, dtype=np.int8)
        for column in partners.T:
            defect -= column
        step -= np.array(w, dtype=np.uint64)[defect]
    return step


def compute_orbits(basis: DiagramBasis) -> Orbits:
    """Partition the basis into dihedral orbits, sorted by representative.

    Two images are kept as int32 maps: step[x] is the basis index of row x
    rotated forward by one site and mirror[x] that of its mirror image.
    Lemma: the rows with site L-1 paired to j (or the defect) rotate, in
    basis order, onto the contiguous block with site 0 paired to j+1 (or
    the defect). Proof: the rotated row is p'[0] = p[L-1] + 1 and p'[s+1] =
    p[s] + 1 for s < L-1, except p'[j+1] = 0, the same across the block; so
    the rows keep their order. The blocks come in the order of that partner,
    so step inverts the stable sort of column L-1 (one contiguous column of
    the site-major basis), and `_step_keys` proves it entry by entry
    (KeyError for a basis not closed under rotation). `rotation_minimum`
    gives rmin[x], the smallest index in the rotation class of x, by
    doubling. Only the seeds, the rows with rmin[x] == x, are reflected and
    ranked; the rest of `mirror` follows along each class from
    mirror[step[x]] = step^-1[mirror[x]], the dihedral relation s r = r^-1 s,
    which reaches every row as each class is its seed's images under step.
    The orbit of x joins its rotation class with that of mirror[x], so
    smallest = min(rmin, rmin[mirror]) labels it by its smallest index, in a
    sorted basis the lexicographically smallest image: the canonical
    representative. The representatives are the rows with smallest[x] == x,
    numbered in increasing order; orbit_of[x] is the number of smallest[x]
    and `sizes` counts each number. Every gather through the int32 maps (the
    key proof, the doubling for rmin, the mirror fill, rmin[mirror], the
    numbers) is an `ndarray.take`, which skips fancy indexing's slower int32
    path at the cost of one intp copy of the index, and the mirror fill
    scatters through an intp copy for the same reason.
    """
    size, count = basis.length, len(basis)
    assert count < 2**31, "basis indices must fit in int32"
    step = inverse_of(np.argsort(basis.partners[:, size - 1], kind="stable").astype(np.int32))
    # The step keys come first, before the gather: that order keeps the peak lower.
    if not np.array_equal(_step_keys(basis.partners, basis._keys), basis._keys.take(step)):
        raise KeyError("partner rows that are not diagrams of this basis")
    rmin = rotation_minimum(step, size)
    seeds = np.flatnonzero(rmin == np.arange(count, dtype=np.int32))
    image = basis.locate(_key(reflect_partners(basis.partners[seeds])))
    inverse = inverse_of(step)
    mirror = np.empty_like(step)
    for _ in range(size):
        mirror[seeds.astype(np.intp, copy=False)] = image
        seeds, image = step.take(seeds), inverse.take(image)
    del inverse, seeds, image
    smallest = np.minimum(rmin, rmin.take(mirror))
    del rmin
    # Every label must label itself: then each is a representative, numbered below.
    assert np.array_equal(smallest.take(smallest), smallest), "orbit labels must be fixed"
    representatives = np.flatnonzero(smallest == np.arange(count, dtype=np.int32))
    number = np.empty(count, dtype=np.int32)
    number[representatives] = np.arange(len(representatives), dtype=np.int32)
    orbit_of = number.take(smallest)
    del number, smallest
    arrays = (representatives.astype(np.int32),
              np.bincount(orbit_of, minlength=len(representatives)), orbit_of, step, mirror)
    for array in arrays:
        array.flags.writeable = False  # shared through `shared_orbits`
    return Orbits(*arrays)


def rotation_minimum(step: np.ndarray, size: int) -> np.ndarray:
    """rmin[x], the smallest index step^k[x] over k = 0..size-1, for a step with step^size = 1.

    Doubling: while rmin covers k < m and power = step^m, min(rmin,
    rmin[power]) covers k < 2m, and power[power] = step^2m. Once 2m >= size
    the window holds every k mod size, as step^size is the identity: about
    2 log2(size) gathers in all and no table of powers.
    """
    rmin = np.arange(len(step), dtype=step.dtype)
    power, reach = step, 1
    while True:
        np.minimum(rmin, rmin.take(power), out=rmin)
        reach *= 2
        if reach >= size:
            return rmin
        power = power.take(power)


def inverse_of(perm: np.ndarray) -> np.ndarray:
    """The inverse of a permutation of 0..n-1, in the permutation's dtype."""
    inverse = np.empty_like(perm)
    inverse[perm.astype(np.intp, copy=False)] = np.arange(len(perm), dtype=perm.dtype)
    return inverse


def conjugate(row: np.ndarray, perm: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """The index map perm row perm^-1, given `inverse` = `inverse_of(perm)`: a generator's
    row moved by a symmetry, as g_{i+1} = r g_i r^-1 for the one-site rotation r.

    Both gathers go through `ndarray.take`: numpy's fancy indexing `perm[row[inverse]]`
    casts an int32 index on a slower path, about twice the time at N = 10,395."""
    return perm.take(row.take(inverse))


@dataclass(eq=False, slots=True)
class _Kit:
    """The N-row arrays of one length: its basis, and its orbits once computed."""

    basis: DiagramBasis
    orbits: Orbits | None = None


# The one memo of N-row arrays, by length; `_kit` keeps it bounded.
_kits: dict[int, _Kit] = {}


def _kit(length: int) -> _Kit:
    """The memo entry of one length, enumerated on first use.

    One rule bounds the memo: a basis at least as large as every held one
    drops the held lengths of that largest size once it is enumerated (their
    rows may seed its blocks), before its orbits are computed, and smaller
    lengths stay. A ladder of increasing lengths so holds one length of its
    largest size at a time, while the shorter lengths that a longer one's
    checks come back to stay. A dropped length whose orbits were computed
    keeps its `orbit_summary`, taken before its rows go, so no reader of the
    summary enumerates again.
    """
    kit = _kits.get(length)
    if kit is None:
        basis = enumerate_diagrams(length)
        largest = max((len(held.basis) for held in _kits.values()), default=0)
        if len(basis) >= largest:
            for n, held in list(_kits.items()):
                if len(held.basis) == largest:
                    if held.orbits is not None:
                        orbit_summary(n)
                    del _kits[n]
        kit = _kits[length] = _Kit(basis)
    return kit


def shared_basis(length: int) -> DiagramBasis:
    """Process-wide memoised basis; enumeration is deterministic, so sharing is safe."""
    return _kit(length).basis


def shared_orbits(length: int) -> Orbits:
    """Process-wide memoised orbits of the shared basis."""
    kit = _kit(length)
    if kit.orbits is None:
        kit.orbits = compute_orbits(kit.basis)
    return kit.orbits


@dataclass(frozen=True, eq=False, slots=True)
class OrbitSummary:
    """The orbit data of one length that is kept for every length: m rows, not N.

    `sizes[k]` is the size of orbit k and `rows[k]` its representative's
    partner row, (m, L) int8. `labelled` holds the left sites' partners of
    every labelled diagram (see `shared_orbit_labels`) as int8 rows, orbit by
    orbit and members in basis order, and `owners` the orbit of each. The
    arrays are read-only. `len()` is the orbit count.
    """

    sizes: tuple[int, ...]
    rows: np.ndarray
    labelled: np.ndarray
    owners: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)


@cache
def orbit_summary(length: int) -> OrbitSummary:
    """The `OrbitSummary` of the shared orbits, kept for every length.

    The representatives' rows are gathered from the site-major basis by fancy
    indexing, which reads it several times faster than `take(..., axis=0)`
    does. The labelled rows are picked with one mask over the partner array:
    with L = 2n the rows whose left block {0..n-1} pairs only into the right
    block, with L = 2n+1 those whose right block {n+1..L-1} pairs only into
    the left block {0..n}.
    """
    partners, orbits = shared_basis(length).partners, shared_orbits(length)
    half, odd = length // 2, length % 2
    if odd:
        right = partners[:, half + 1 :]
        labelled = np.all((right != DEFECT) & (right <= half), axis=1)
    else:
        labelled = np.all(partners[:, :half] >= half, axis=1)
    members = np.flatnonzero(labelled)
    owners = orbits.orbit_of.take(members)
    order = np.argsort(owners, kind="stable")  # orbit by orbit, members in basis order
    summary = OrbitSummary(tuple(orbits.sizes.tolist()), partners[orbits.representatives],
                           partners[members[order], : half + odd], owners[order])
    for array in (summary.rows, summary.labelled, summary.owners):
        array.flags.writeable = False  # shared through the `orbit_summary` memo
    return summary


@cache
def representative_codes(length: int) -> tuple[str, ...]:
    """The encoded orbit representatives of the shared orbits, in orbit order.

    Each partner of the summary's rows becomes a 3-byte token, its text and
    then a comma (a newline at the last site), padded with NUL bytes; the
    tokens of all rows are one byte buffer, which drops the NULs and splits
    into lines.
    """
    text = [".", *map(str, range(1, length + 1))]
    tokens = np.array([*(t + "," for t in text), *(t + "\n" for t in text)], dtype="S3")
    # Partner j is token j + 1 (after DEFECT's), or j + L + 2 at the last site.
    rows = orbit_summary(length).rows + 1
    rows[:, -1] += length + 1
    return tuple(tokens[rows].tobytes().replace(b"\0", b"").decode().splitlines())


@cache
def shared_orbit_labels(length: int) -> tuple[tuple[tuple, ...], ...]:
    """The labels of each shared orbit's labelled members, in member order.

    With 1-based sites and L = 2n, a diagram whose left block {1..n} pairs
    only into the right block is labelled by the permutation pi with site i
    paired to n + pi(i), as its image (pi(1), ..., pi(n)). With L = 2n+1, a
    diagram whose right block {n+2..L} pairs only into the left block
    {1..n+1} is labelled by the partial permutation sending left site i to
    its partner minus (n + 1), as its image of the n+1 left sites with None
    at the defect. The summary's labelled rows are read through one value
    table, so only those n! (even) or (n+1)! (odd) rows become tuples.
    """
    summary = orbit_summary(length)
    half, odd = length // 2, length % 2
    # Partner j reads as j - n + 1 (even L) or j - n (odd L), at index j + 1 after DEFECT's.
    values = np.array([None, *range(1 - half - odd, length + 1 - half - odd)], dtype=object)
    labels = list(map(tuple, values[summary.labelled + 1].tolist()))
    ends = np.cumsum(np.bincount(summary.owners, minlength=len(summary))).tolist()
    return tuple(tuple(labels[start:end]) for start, end in zip([0, *ends], ends))


def label_text(label: tuple) -> str:
    """The compact form of a label, its image with '.' at the defect: "2431", "2.1"."""
    return "".join("." if v is None else str(v) for v in label)
