"""
Sparse integer assembly of the loop Hamiltonian, lumped over dihedral orbits.

The operator is the sum over all L sites of (3 - 2*monoid_i - braid_i).
Columns are input diagrams: the column of a diagram d carries +3L on the
diagonal and, for every site, -2 at the row of the monoid image and -1 at
the row of the braid image (contributions landing back on d reduce the
diagonal). The result is an intensity matrix: off-diagonal entries are
nonpositive and every column sums to zero, so the kernel describes the
stationary state of a continuous-time chain on diagrams. It is held as
int64 (row, column, value) arrays sorted by column, then row: the order in
which the sums come out of the columns and which `validate` checks.

The only matrix assembled is the lump over dihedral orbits, the sum of
whole orbit blocks. Equivariance implies representative independence: as the
generator action commutes with rotations and reflections, each row of an
orbit takes, and each column gives, the same per-orbit sums (Buchholz, J.
Appl. Probab. 31, 1994). `site_pairs` proves that equivariance as it
produces the rows, and each `Orbits` record proves the orbits as it is made;
the lumped matrix has zero column sums and the per-orbit weights as its kernel, and
`build_reduced` reads only the representatives' (2L, m) columns. The
operator over the full basis is applied to a vector by `annihilates` and
never assembled: from the site-1 rows alone, since every other row is a
rotation conjugate of them and the vector is fixed by the rotation, so the
sum over sites is a rotation sum of one N-vector. This module builds no
rows; the caller gathers both inputs from one pass over `site_pairs`.
"""

from __future__ import annotations

__all__ = ["IntensityMatrix", "annihilates", "build_reduced", "connectivity_check"]

from dataclasses import dataclass

import numpy as np

from .diagrams import DiagramBasis, Orbits, inverse_of


@dataclass(frozen=True, eq=False)
class IntensityMatrix:
    """Sparse integer matrix with zero column sums: int64 arrays, entry k is `vals[k]`
    at (`rows[k]`, `cols[k]`), in strictly increasing (column, row) order."""

    length: int
    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def validate(self) -> None:
        """Check the entry arrays and the intensity-matrix structure; raises on violation.

        The first violation in (column, row) order is named, a column's sum
        before its entries.
        """
        rows, cols, vals, n = self.rows, self.cols, self.vals, self.dimension
        if n < 1:
            raise ArithmeticError(f"dimension {n} is below 1")
        if not len(rows) == len(cols) == len(vals):
            raise ArithmeticError(f"entry {min(len(rows), len(cols), len(vals))} is incomplete: "
                                  f"{len(rows)} rows, {len(cols)} columns and {len(vals)} values")
        if (k := _first((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n))) < len(rows):
            raise ArithmeticError(f"entry ({rows[k]}, {cols[k]}) is outside the {n} x {n} matrix")
        if (k := _first(np.diff(cols) * n + np.diff(rows) <= 0) + 1) < len(rows):
            raise ArithmeticError(f"entry ({rows[k]}, {cols[k]}) does not follow "
                                  f"({rows[k - 1]}, {cols[k - 1]}) in (column, row) order")
        sums = np.zeros(n, dtype=np.int64)
        np.add.at(sums, cols, vals)
        c = _first(sums != 0)
        if (k := _first((rows != cols) & (vals > 0))) < len(rows) and cols[k] < c:
            raise ArithmeticError(f"positive off-diagonal entry at ({rows[k]}, {cols[k]})")
        if c < n:
            raise ArithmeticError(f"column {c} does not sum to zero")


def _first(mask: np.ndarray) -> int:
    """Index of the first True in the mask, or its length when there is none."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def build_reduced(basis: DiagramBasis, orbits: Orbits, columns: np.ndarray) -> IntensityMatrix:
    """Lump the full operator over dihedral orbits by summing orbit blocks.

    `columns` must be the (2L, m) images of the representatives in the row
    order of the `transition_table` (`table[:, representatives]`), gathered
    from `site_pairs` of the basis over these orbits, which proved the
    action equivariant under their `step` and `mirror` (another shape
    raises ValueError). That implies representative independence, as the record
    proved itself the orbits of those maps when it was constructed; only its size
    is checked here (else ValueError). Entry (R, C), the block sum, is then |C|
    times rep(C)'s column summed over R.
    """
    size, m = basis.length, len(orbits)
    if columns.shape != (2 * size, m):
        raise ValueError(f"representative columns of shape {columns.shape} given for "
                         f"{m} orbits of length {size}, which need {(2 * size, m)}")
    if len(orbits.orbit_of) != len(basis):
        raise ValueError("orbits do not partition the basis")
    entries = _summed_entries(columns, orbits.representatives, orbits.orbit_of, orbits.sizes)
    return IntensityMatrix(basis.length, m, *entries)


def _summed_entries(images, sources, group, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted int64 (rows, cols, vals), zeros dropped, of the matrix whose column k
    is the full column of `sources[k]`, whose 2L generator images are `images[:, k]`,
    summed by `group` of row, times `scale[k]`."""
    m, size = len(sources), len(images) // 2
    assert m * m <= 2**63, "pair keys col * m + row must fit in int64"
    entries = np.repeat([3 * size, -2, -1], [1, size, size])  # +3L at itself, -2 and -1 at images
    keys, sums = [], []
    # Blocks of 2**12 columns keep the temporaries near 1 MB each.
    for cols in np.array_split(np.arange(m), range(2**12, m, 2**12)):
        block = cols * m + group.take(np.vstack([sources.take(cols), images.take(cols, axis=1)]))
        order = np.argsort(block, axis=None)
        block, vals = block.ravel()[order], np.repeat(entries, len(cols))[order]
        starts = np.flatnonzero(np.diff(block, prepend=-1))
        total = np.add.reduceat(vals, starts) * scale[block[starts] // m]
        keys.append(block[starts][total != 0])
        sums.append(total[total != 0])
    key = np.concatenate(keys)
    return key % m, key // m, np.concatenate(sums)


def connectivity_check(matrix: IntensityMatrix) -> bool:
    """True iff the off-diagonal transition graph is strongly connected.

    A breadth-first search from state 0, one whole frontier per pass over
    the edges, must reach every state along the edges column -> row of the
    off-diagonal entries and along their reversals.
    """
    n, off = matrix.dimension, matrix.rows != matrix.cols
    edges = (matrix.cols[off], matrix.rows[off])
    for sources, targets in (edges, edges[::-1]):
        seen = frontier = np.arange(n) == 0
        while frontier.any():
            frontier = np.bincount(targets[frontier[sources]], minlength=n).astype(bool) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def annihilates(basis: DiagramBasis, weights, rows: np.ndarray, orbits: Orbits) -> bool:
    """Exact check that the operator sends the diagram vector v = weights[orbit_of] to zero.

    `rows` are the (2, N) site-1 rows (e_0, b_0) of `site_pairs` over these
    orbits (another shape raises ValueError), which proved every other row
    the conjugate g_a = r^a g_0 r^-a by the rotation r = `orbits.step`. The
    weights are arbitrary Python integers, one per orbit. Lemma: when v is
    fixed by r, H v = sum over a < L of u o r^-a, u = (3 - 2 e_0 - b_0) v:
    the site-a term (3 - 2 e_a - b_a) v scatters v[d] to e_a(d) = r^a
    e_0(r^-a d), and with d' = r^-a d and v[r^a d'] = v[d'] that is u
    read at r^-a. v is fixed by r, as the record proved. `product_is_zero`
    pushes the weights through in 31-bit limbs, each gathered to the N
    diagrams in int64 and scattered through the two rows into u, then
    summed in Horner's form: S <- u, and L-1 times S <- S o r^-1 + u, with
    r^-1 held as one intp index. A partial sum holds some of the terms of
    H v (k of the L copies of 3v, and the scatters of k sites), so the gain
    6L * N bounds it too.
    """
    orbit_of, step, n, size = orbits.orbit_of, orbits.step, len(basis), basis.length
    if len(orbit_of) != n or len(weights) != len(orbits):
        raise ValueError("weight vector does not match the basis and its orbits")
    if rows.shape != (2, n):
        raise ValueError(f"site-1 rows of shape {rows.shape} given for a basis "
                         f"that needs {(2, n)}")
    back = inverse_of(step).astype(np.intp)
    # A column's entries sum to 6L in magnitude, so no row exceeds 6L * n.
    return product_is_zero(lambda limb: _rotation_sum(limb, rows, orbit_of, back, size),
                           weights, 6 * size * n)


def _rotation_sum(limb: np.ndarray, rows: np.ndarray, group: np.ndarray, back: np.ndarray,
                  size: int) -> np.ndarray:
    """H v for v = limb[group] fixed by the rotation, from the site-1 rows: u = (3 -
    2 e_0 - b_0) v, then S <- u and size - 1 times S <- S[back] + u, back = r^-1."""
    v = limb.take(group)
    u = 3 * v
    v *= -1  # in place, the braid row's coefficient
    np.add.at(u, rows[1], v)
    v *= 2  # the monoid row's
    np.add.at(u, rows[0], v)
    del v
    total, spare = u.copy(), np.empty_like(u)
    for _ in range(size - 1):
        # `back` is a permutation, so "clip" never clips; unlike the default
        # "raise", it writes into `out` with no buffer of its own.
        np.take(total, back, out=spare, mode="clip")
        spare += u
        total, spare = spare, total
    return total


def product_is_zero(apply, values, gain: int) -> bool:
    """Exact check that an integer linear map sends `values` to zero.

    `apply` maps an int64 vector to a new int64 array, its image under the
    map, and `gain` bounds the absolute row sums of the map. The values are
    arbitrary Python integers: they are split into signed 31-bit limbs, each
    limb goes through `apply` in int64, and the per-limb results are
    recombined with exact carries, so the answer does not depend on the size
    of the values. The carry is added and shifted in place in the image, and
    kept as int32, so one image and one half-width carry are alive between
    limbs.
    """
    # A limb has magnitude at most 2**31 and a carry at most gain + 1 < 2**30,
    # so no accumulated int64 value can reach 2**62 and a carry fits in int32.
    assert gain * 2**32 < 2**62, "int64 limb accumulation could overflow"
    weights = np.array(values, dtype=object)
    bits = max(max(values), -min(values)).bit_length()
    carry = 0
    for shift in range(0, bits + 1, 31):
        limb = weights >> shift
        if shift + 31 <= bits:
            limb = limb & (2**31 - 1)
        out = apply(limb.astype(np.int64))
        out += carry
        if np.any(out & (2**31 - 1)):
            return False
        out >>= 31
        carry = out.astype(np.int32)
        del out
    return not np.any(carry)
