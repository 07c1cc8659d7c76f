"""
Sparse integer assembly of the loop Hamiltonian over a diagram basis.

The operator is the sum over all L sites of (3 - 2*monoid_i - braid_i).
Columns are input diagrams: the column of a diagram d carries +3L on the
diagonal and, for every site, -2 at the row of the monoid image and -1 at
the row of the braid image (contributions landing back on d reduce the
diagonal). The result is an intensity matrix: off-diagonal entries are
nonpositive and every column sums to zero, so the kernel describes the
stationary state of a continuous-time chain on diagrams.

The reduced build lumps the matrix over dihedral orbits by summing whole
orbit blocks. Because the generator action commutes with rotations and
reflections, each row of an orbit contributes the same per-orbit column
sums; that agreement is verified entry by entry during assembly rather than
assumed, and the lumped matrix keeps zero column sums while its kernel is
exactly the vector of per-orbit weights.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .diagrams import DiagramBasis, Orbits
from .generators import transition_table

FULL = "full"
REDUCED = "reduced"


@dataclass(frozen=True)
class IntensityMatrix:
    """Column-sparse integer matrix with zero column sums."""

    length: int
    kind: str
    dimension: int
    columns: tuple[dict[int, int], ...]

    def validate(self, basis: DiagramBasis | None = None) -> None:
        """Check the intensity-matrix structure; raises on violation."""
        for c, col in enumerate(self.columns):
            if sum(col.values()) != 0:
                raise ArithmeticError(f"column {c} does not sum to zero")
            for r, v in col.items():
                if r != c and v > 0:
                    raise ArithmeticError(f"positive off-diagonal entry at ({r}, {c})")
        if self.kind == FULL and basis is not None:
            # Each site paired with its cyclic successor is fixed by both
            # generators there, which cancels 3 of the 3L on the diagonal.
            successor = (np.arange(self.length, dtype=np.int8) + 1) % self.length
            adjacent = np.count_nonzero(basis.partners == successor, axis=1)
            for c, expected in enumerate((3 * self.length - 3 * adjacent).tolist()):
                diagonal = self.columns[c].get(c, 0)
                if diagonal != expected:
                    raise ArithmeticError(
                        f"diagonal of column {c} is {diagonal}, expected {expected}"
                    )


def build_full(basis: DiagramBasis) -> IntensityMatrix:
    """The operator over the full diagram basis: the lumping over singleton orbits."""
    n = len(basis)
    singletons = Orbits.grouped(np.arange(n), np.ones(n, dtype=np.int64))
    return replace(_lump(basis, singletons, transition_table(basis)), kind=FULL)


def build_reduced(
    basis: DiagramBasis, orbits: Orbits, table: np.ndarray | None = None
) -> IntensityMatrix:
    """Lump the full operator over dihedral orbits by summing orbit blocks.

    For each pair of orbits (R, C) the entry is the sum of all full entries
    with row in R and column in C. Equivariance makes the per-row sums
    constant across R; that representative independence is asserted for
    every pair of orbits, so a broken symmetry cannot pass silently. A row
    of R with no entry in the columns of C counts as 0. `table` is the
    basis's `transition_table`, built here when not given.
    """
    if table is None:
        table = transition_table(basis)
    return _lump(basis, orbits, table)


def _lump(basis: DiagramBasis, orbits: Orbits, table: np.ndarray) -> IntensityMatrix:
    """`build_reduced` over any grouping of the basis indices."""
    m = len(orbits)
    sizes, members, offsets = orbits.sizes, orbits.members, orbits.offsets
    if not np.array_equal(np.sort(members), np.arange(len(basis))):
        raise ValueError("orbits do not partition the basis")
    orbit_of = np.empty(len(basis), dtype=np.int64)
    orbit_of[members] = np.repeat(np.arange(m), sizes)

    size = basis.length
    columns: list[dict[int, int]] = [{} for _ in range(m)]
    # Whole column orbits go in chunks of about 2**13 full entries, which
    # bounds the temporary arrays; the chunks are independent.
    step = max(1, 2**13 * m // ((2 * size + 1) * len(basis)))
    for lo in range(0, m, step):
        cols = members[offsets[lo] : offsets[min(lo + step, m)]]
        # Column d of the full operator: +3L at d, -2 at each monoid image and
        # -1 at each braid image. Sum the entries per (row r, column orbit C).
        rows = np.column_stack([cols, table[cols]]).ravel()
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
        entries = (value * sizes[row_orbit]).tolist()
        for c, r, v in zip(col_orbit.tolist(), row_orbit.tolist(), entries):
            columns[c][r] = v
    return IntensityMatrix(
        length=basis.length, kind=REDUCED, dimension=m, columns=tuple(columns)
    )


def connectivity_check(matrix: IntensityMatrix) -> bool:
    """True iff the off-diagonal transition graph is strongly connected."""
    n = matrix.dimension
    if n <= 1:
        return True
    forward: list[list[int]] = [[] for _ in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for c, col in enumerate(matrix.columns):
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


def annihilates(basis: DiagramBasis, values, table: np.ndarray | None = None) -> bool:
    """Exact check that the operator sends the given diagram vector to zero.

    The weights are arbitrary Python integers; `product_is_zero` pushes them
    through the transition table in 31-bit limbs. `table` is the basis's
    `transition_table`, built here when not given.
    """
    if len(values) != len(basis):
        raise ValueError("value vector does not match the basis size")
    if table is None:
        table = transition_table(basis)
    n, width = table.shape
    size = width // 2

    def apply(limb: np.ndarray) -> np.ndarray:
        out = 3 * size * limb
        for j in range(width):
            np.add.at(out, table[:, j], (-2 if j < size else -1) * limb)
        return out

    # A column's entries sum to 6L in magnitude, so no row exceeds 6L * n.
    return product_is_zero(apply, values, 6 * size * n)


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
    bits = max(abs(w) for w in values).bit_length()
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
