"""
Generator action of the periodic Brauer algebra on chord diagrams.

Two families act at each site i (1-based; the site after L is site 1, so the
action is periodic). The monoid generator joins i and i+1 and rejoins their
former partners to each other; the braid generator swaps the partners of i
and i+1. When i and i+1 are already paired, both act as the identity. A
former partner may be the immovable virtual centre of an odd diagram, in
which case whatever would have been joined to it becomes the new defect.

`transition_table` applies both at every site to a whole basis at once; it
is the one form of the action, and every other stage reads it.
`check_relations` verifies the defining relations of the algebra on every
diagram of a given length and reports a counterexample on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .diagrams import DiagramBasis, _ranks_fit, encode_partners, shared_basis, shared_orbits


def transition_table(basis: DiagramBasis) -> np.ndarray:
    """Basis indices of all generator images, as an (N, 2L) int32 array.

    Column i-1 holds the monoid image at site i and column L+i-1 the braid
    image, located by the rank keys of `_image_keys`.
    """
    size = basis.length
    table = np.empty((len(basis), 2 * size), dtype=np.int32)
    for a in range(size):
        table[:, a::size] = basis.locate(_image_keys(basis.partners, basis._keys, a)).T
    return table


def _image_keys(partners: np.ndarray, keys: np.ndarray, a: int) -> np.ndarray:
    """Rank keys of the monoid (row 0) and braid (row 1) images at 0-based site a.

    An image differs from its row only at a, b = a+1 and their partners pa,
    pb. With digit d = partner + L%2 (sa, sb: digits of a, b) and weight
    w[site] = base**(L-1-site), w[DEFECT] = 0, its key is the row's plus
    (sb-da)(w[a]-w[pb]) + (sa-db)(w[b]-w[pa]) for the monoid, and plus
    (db-da)(w[a]-w[b]) + (sa-sb)(w[pb]-w[pa]) for the braid unless a and b
    are paired. Computed modulo 2**64, exact since every key < base**L <= 2**64.
    """
    size = partners.shape[1]
    assert _ranks_fit(size), "rank keys must fit in 64 bits"
    shift, b = size % 2, (a + 1) % size
    # uint64 arrays wrap; differences of the Python ints in w are reduced mod 2**64.
    w = [(size + shift) ** (size - 1 - s) for s in range(size)] + [0]
    pa, pb = partners[:, a], partners[:, b]
    da, db = (pa + shift).astype(np.uint64), (pb + shift).astype(np.uint64)
    wpa, wpb = np.array(w, dtype=np.uint64)[pa], np.array(w, dtype=np.uint64)[pb]
    monoid = keys + (b + shift - da) * (w[a] - wpb) + (a + shift - db) * (w[b] - wpa)
    braid = keys + (db - da) * ((w[a] - w[b]) % 2**64) + ((a - b) % 2**64) * (wpb - wpa)
    return np.stack([monoid, np.where(pa == b, keys, braid)])


@dataclass(frozen=True)
class RelationCheck:
    name: str
    passed: bool
    cases: int
    counterexample: str | None = None


@dataclass(frozen=True)
class RelationReport:
    length: int
    checks: tuple[RelationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"relations for length {self.length} (exhaustive)"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  {c.name.ljust(width)}  {status}  ({c.cases} cases)"
            if c.counterexample:
                line += f"  counterexample: {c.counterexample}"
            lines.append(line)
        return "\n".join(lines)


def _cyclic_distance(i: int, j: int, size: int) -> int:
    d = (i - j) % size
    return min(d, size - d)


def check_relations(length: int) -> RelationReport:
    """Verify the defining relations as equalities of maps on diagrams.

    Covers idempotence of the monoids, the braid relations, the mixed
    monoid/braid relations, commutation at cyclic distance > 1, and the
    rotation covariance that closes the family periodically.
    """
    if length < 3:
        raise ValueError("relation checks need length >= 3")
    basis = shared_basis(length)
    d = np.arange(len(basis))

    # Index maps: e[i][x] is the basis index of e_i applied to diagram x, so
    # a word acts on all diagrams d by nested indexing.
    table = transition_table(basis)
    e = {i: table[:, i - 1] for i in range(1, length + 1)}
    b = {i: table[:, length + i - 1] for i in range(1, length + 1)}
    rot = shared_orbits(length).step
    rot_back = np.argsort(rot)  # the inverse permutation

    sites = range(1, length + 1)
    adjacent = [(i, j) for i in sites for j in sites
                if i != j and _cyclic_distance(i, j, length) == 1]
    distant = [(i, j) for i in sites for j in sites
               if i != j and _cyclic_distance(i, j, length) > 1]

    # Each relation family: (name, (lhs, rhs, tag) per index choice). The
    # instances are generated lazily, so one pair of image arrays is alive
    # at a time and a failure stops the family.
    families = [
        ("monoid idempotent: e_i e_i = e_i",
         ((e[i][e[i][d]], e[i][d], f"i={i}") for i in sites)),
        ("braid involution: b_i b_i = 1",
         ((b[i][b[i][d]], d, f"i={i}") for i in sites)),
        ("monoid absorption: e_i e_j e_i = e_i",
         ((e[i][e[j][e[i][d]]], e[i][d], f"i={i},j={j}") for i, j in adjacent)),
        ("braid relation: b_i b_j b_i = b_j b_i b_j",
         ((b[i][b[j][b[i][d]]], b[j][b[i][b[j][d]]], f"i={i},j={j}")
          for i, j in adjacent)),
        ("mixed absorption: b_i e_i = e_i b_i = e_i",
         chain(((b[i][e[i][d]], e[i][d], f"i={i} (left)") for i in sites),
               ((e[i][b[i][d]], e[i][d], f"i={i} (right)") for i in sites))),
        ("mixed slide: b_i b_j e_i = e_j b_i b_j = e_j e_i",
         chain(((b[i][b[j][e[i][d]]], e[j][e[i][d]], f"i={i},j={j} (left)")
                for i, j in adjacent),
               ((e[j][b[i][b[j][d]]], e[j][e[i][d]], f"i={i},j={j} (middle)")
                for i, j in adjacent))),
        ("monoid commutation: [e_i, e_j] = 0",
         ((e[i][e[j][d]], e[j][e[i][d]], f"i={i},j={j}") for i, j in distant if i < j)),
        ("braid commutation: [b_i, b_j] = 0",
         ((b[i][b[j][d]], b[j][b[i][d]], f"i={i},j={j}") for i, j in distant if i < j)),
        ("mixed commutation: [e_i, b_j] = 0",
         ((e[i][b[j][d]], b[j][e[i][d]], f"i={i},j={j}") for i, j in distant)),
        # Periodic closure: conjugating by one rotation shifts the site index,
        # so the generator at site L is the wrap-around of the one at site 1.
        ("rotation covariance: g_{i+1} = r g_i r^-1",
         chain(((e[i % length + 1][d], rot[e[i][rot_back[d]]], f"e,i={i}") for i in sites),
               ((b[i % length + 1][d], rot[b[i][rot_back[d]]], f"b,i={i}") for i in sites))),
    ]

    checks = []
    for name, instances in families:
        cases = 0
        failure = None
        for lhs, rhs, tag in instances:
            wrong = np.flatnonzero(lhs != rhs)
            if wrong.size:
                cases += int(wrong[0]) + 1
                failure = f"{tag} on {encode_partners(basis.partners[wrong[0]].tolist())}"
                break
            cases += len(d)
        checks.append(RelationCheck(name, failure is None, cases, failure))
    return RelationReport(length, tuple(checks))
