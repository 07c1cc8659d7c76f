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
which the sums come out of the table and which `validate` checks.

The only matrix assembled is the lump over dihedral orbits, the sum of
whole orbit blocks. Equivariance implies representative independence: as the
generator action commutes with rotations and reflections, each row of an
orbit takes, and each column gives, the same per-orbit sums (Buchholz, J.
Appl. Probab. 31, 1994). `transition_table` proves that equivariance as it
builds the table, and assembly proves the orbits; the lumped matrix has
zero column sums and the per-orbit weights as its kernel. The operator
over the full basis is applied to a vector by `annihilates`, straight from
the table, and never assembled.

The table is the (2L, N) `transition_table`, which the caller builds once
and passes to both `build_reduced` and `annihilates`; this module builds
none. Row a holds the image of every diagram under generator a, so
`annihilates` and the summed entries read whole contiguous rows, and the
representatives' columns are one gather.
"""

from __future__ import annotations

__all__ = ["IntensityMatrix", "annihilates", "build_reduced", "connectivity_check"]

from dataclasses import dataclass

import numpy as np

from .diagrams import DiagramBasis, Orbits, prove_permutation


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


def build_reduced(basis: DiagramBasis, orbits: Orbits, table: np.ndarray) -> IntensityMatrix:
    """Lump the full operator over dihedral orbits by summing orbit blocks.

    `table` must be the `transition_table` of the basis over these orbits,
    which proved it equivariant under their `step` and `mirror` (another
    shape raises ValueError). That implies representative independence once
    the orbits are proved: the groups of `orbit_of` partition the basis
    (else ValueError), and `step` and `mirror` are permutations under which
    each group is closed and one orbit; else ArithmeticError names the map
    or the orbit. Entry (R, C), the block sum, is then |C| times rep(C)'s
    column summed over R.
    """
    _check_shape(basis, table)
    n, size, m = len(basis), basis.length, len(orbits)
    orbit_of, representatives = orbits.orbit_of, orbits.representatives
    sized = len(orbit_of) == n and np.array_equal(np.bincount(orbit_of, minlength=m), orbits.sizes)
    if not (sized and np.array_equal(orbit_of.take(representatives), np.arange(m))):
        raise ValueError("orbits do not partition the basis")
    for name, image in (("rotation", orbits.step), ("reflection", orbits.mirror)):
        prove_permutation(image, n, name)
        moved = np.flatnonzero(orbit_of.take(image) != orbit_of)
        if moved.size:
            raise ArithmeticError(f"orbit {orbit_of[moved[0]]} is not closed under the {name}")
    # A closed group is one orbit when each member rotates from its representative or its mirror.
    reached = np.zeros(n, dtype=bool)
    for images in (representatives, orbits.mirror.take(representatives)):
        for _ in range(size):
            reached[images.astype(np.intp, copy=False)] = True
            images = orbits.step.take(images)
    if not reached.all():
        k = orbit_of[np.argmin(reached)]
        raise ArithmeticError(f"orbit {k} is not one orbit of the rotation and reflection")
    entries = _summed_entries(table, representatives, orbit_of, orbits.sizes)
    return IntensityMatrix(basis.length, m, *entries)


def _check_shape(basis: DiagramBasis, table: np.ndarray) -> None:
    expected = (2 * basis.length, len(basis))
    if table.shape != expected:
        raise ValueError(f"transition table of shape {table.shape} given for a basis "
                         f"that needs {expected}")


def _summed_entries(table, sources, group, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted int64 (rows, cols, vals), zeros dropped, of the matrix whose column k
    is the full column of `sources[k]` summed by `group` of row, times `scale[k]`."""
    m, size = len(sources), len(table) // 2
    assert m * m <= 2**63, "pair keys col * m + row must fit in int64"
    entries = np.repeat([3 * size, -2, -1], [1, size, size])  # +3L at itself, -2 and -1 at images
    keys, sums = [], []
    # Blocks of 2**12 columns keep the temporaries near 1 MB each.
    for cols in np.array_split(np.arange(m), range(2**12, m, 2**12)):
        heads = sources.take(cols)
        block = cols * m + group.take(np.vstack([heads, table.take(heads, axis=1)]))
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


def annihilates(basis: DiagramBasis, weights, table: np.ndarray, orbit_of) -> bool:
    """Exact check that the operator sends the diagram vector weights[orbit_of] to zero.

    `table` is the basis's (2L, N) `transition_table` (else ValueError) and
    `orbit_of` groups the diagrams (`Orbits.orbit_of`, or `np.arange(N)`).
    The weights are arbitrary Python integers; `product_is_zero` pushes them
    through the table in 31-bit limbs, each gathered to the N diagrams in int64
    through one intp copy of `orbit_of`, made once per call: `take` would copy
    an int32 index again for every limb. The gathered limb is scaled in place
    to each row's coefficient, so the copy costs no rise in the peak.
    """
    if len(orbit_of) != len(basis) or len(weights) != orbit_of.max() + 1:
        raise ValueError("weight vector does not match the basis and its grouping")
    _check_shape(basis, table)
    width, n = table.shape
    size = width // 2
    index = orbit_of.astype(np.intp, copy=False)

    def apply(limb: np.ndarray) -> np.ndarray:
        limb = limb.take(index)
        out = 3 * size * limb
        limb *= -2  # in place, the monoid rows' coefficient
        for j in range(width):
            if j == size:
                limb //= 2  # exactly, to the braid rows' coefficient -1
            np.add.at(out, table[j], limb)
        return out

    # A column's entries sum to 6L in magnitude, so no row exceeds 6L * n.
    return product_is_zero(apply, weights, 6 * size * n)


def product_is_zero(apply, values, gain: int) -> bool:
    """Exact check that an integer linear map sends `values` to zero.

    `apply` maps an int64 vector to its int64 image under the map, and
    `gain` bounds the absolute row sums of the map. The values are arbitrary
    Python integers: they are split into signed 31-bit limbs, each limb goes
    through `apply` in int64, and the per-limb results are recombined with
    exact carries, so the answer does not depend on the size of the values.
    """
    # A limb has magnitude at most 2**31 and a carry at most gain + 1, so no
    # accumulated int64 value can reach 2**62.
    assert gain * 2**32 < 2**62, "int64 limb accumulation could overflow"
    weights = np.array(values, dtype=object)
    bits = max(max(values), -min(values)).bit_length()
    carry = 0
    for shift in range(0, bits + 1, 31):
        limb = weights >> shift
        if shift + 31 <= bits:
            limb = limb & (2**31 - 1)
        out = carry + apply(limb.astype(np.int64))
        if np.any(out & (2**31 - 1)):
            return False
        carry = out >> 31
    return not np.any(carry)
