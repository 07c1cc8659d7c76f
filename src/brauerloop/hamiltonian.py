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
orbit blocks. Equivariance implies representative independence: as the
generator action commutes with rotations and reflections, each row of an
orbit takes, and each column gives, the same per-orbit sums (Buchholz, J.
Appl. Probab. 31, 1994). Assembly proves that equivariance on the table; the
lumped matrix has zero column sums and the per-orbit weights as its kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    """The operator over the full diagram basis, summed column by column from the table."""
    index = np.arange(len(basis))
    columns = _summed_columns(transition_table(basis), index, index, np.ones_like(index))
    return IntensityMatrix(length=basis.length, kind=FULL, dimension=len(index), columns=columns)


def build_reduced(
    basis: DiagramBasis, orbits: Orbits, table: np.ndarray | None = None
) -> IntensityMatrix:
    """Lump the full operator over dihedral orbits by summing orbit blocks.

    Equivariance implies representative independence, and it is proved
    first: the groups of `orbit_of` partition the basis (else ValueError),
    are closed under the permutations `step` and `mirror` and one orbit
    each, and table column a commutes with them as column a+1 (rotation)
    and L-2-a (reflection) of its family; else ArithmeticError names the
    column or orbit. Entry (R, C), the block sum, is then |C| times rep(C)'s
    column summed over R. `table` is the basis's `transition_table`, built
    here when not given.
    """
    if table is None:
        table = transition_table(basis)
    n, size, m = len(basis), basis.length, len(orbits)
    orbit_of, representatives = orbits.orbit_of, orbits.representatives
    sized = len(orbit_of) == n and np.array_equal(np.bincount(orbit_of, minlength=m), orbits.sizes)
    if not (sized and np.array_equal(orbit_of[representatives], np.arange(m))):
        raise ValueError("orbits do not partition the basis")
    for name, image, sign, offset in (("rotation", orbits.step, 1, 1),
                                      ("reflection", orbits.mirror, -1, -2)):
        if not np.array_equal(np.bincount(image, minlength=n), np.ones(n)):
            raise ArithmeticError(f"the {name} map is not a permutation of the basis")
        moved = np.flatnonzero(orbit_of[image] != orbit_of)
        if moved.size:
            raise ArithmeticError(f"orbit {orbit_of[moved[0]]} is not closed under the {name}")
        for a in range(2 * size):
            shifted = a - a % size + (sign * a + offset) % size
            if not np.array_equal(table[image, shifted], image[table[:, a]]):
                raise ArithmeticError(
                    f"transition table column {a} does not commute with the {name}"
                )
    # A closed group is one orbit when each member rotates from its representative or its mirror.
    reached = np.zeros(n, dtype=bool)
    for images in (representatives, orbits.mirror[representatives]):
        for _ in range(size):
            reached[images] = True
            images = orbits.step[images]
    if not reached.all():
        k = orbit_of[np.argmin(reached)]
        raise ArithmeticError(f"orbit {k} is not one orbit of the rotation and reflection")
    columns = _summed_columns(table, representatives, orbit_of, orbits.sizes)
    return IntensityMatrix(length=basis.length, kind=REDUCED, dimension=m, columns=columns)


def _summed_columns(table, sources, group, scale) -> tuple[dict[int, int], ...]:
    """Column k: the full column of `sources[k]` summed by `group` of row, times `scale[k]`."""
    m, size = len(sources), table.shape[1] // 2
    assert m * m <= 2**63, "pair keys col * m + row must fit in int64"
    entries = np.repeat([3 * size, -2, -1], [1, size, size])  # +3L at itself, -2 and -1 at images
    columns: list[dict[int, int]] = []
    # Blocks of 2**12 columns keep the temporaries near 1 MB each.
    for cols in np.array_split(np.arange(m), range(2**12, m, 2**12)):
        keys = cols[:, None] * m + group[np.column_stack([sources[cols], table[sources[cols]]])]
        order = np.argsort(keys, axis=None)
        keys, vals = keys.ravel()[order], np.tile(entries, len(cols))[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        sums = np.add.reduceat(vals, starts) * scale[keys[starts] // m]
        keys, sums = keys[starts][sums != 0], sums[sums != 0]
        bounds = np.searchsorted(keys, cols[1:] * m)
        rows, sums = np.split(keys % m, bounds), np.split(sums, bounds)
        columns += (dict(zip(r.tolist(), v.tolist())) for r, v in zip(rows, sums))
    return tuple(columns)


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
