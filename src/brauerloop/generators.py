"""
Generator action of the periodic Brauer algebra on chord diagrams.

Two families act at each site i (1-based; the site after L is site 1, so the
action is periodic). The monoid generator joins i and i+1 and rejoins their
former partners to each other; the braid generator swaps the partners of i
and i+1. When i and i+1 are already paired, both act as the identity. A
former partner may be the immovable virtual centre of an odd diagram, in
which case whatever would have been joined to it becomes the new defect.

`site_pairs` applies both at one site to a whole basis at once, site by
site, and is the one producer of the action: each reader keeps what it
needs. A cold solve gathers the orbit representatives' columns for assembly
and keeps the site-1 rows for the full-basis check, so it stores no (2L, N)
array; `transition_table` writes the stream into one, for Monte Carlo and
the relation check, which need random access. Only site 1 is searched by
rank key: the other sites follow by conjugating with the one-site rotation
(`diagrams.conjugate`, the one form of g_{i+1} = r g_i r^-1, which the
equivariance proof and the relation check's rotation covariance also use);
each is proved against its own rank keys before it is yielded, and the
action against the rotation and reflection after the last site.
`check_relations` verifies the defining relations of the algebra on every
diagram of a given length and reports a counterexample on failure.
"""

from __future__ import annotations

__all__ = ["RelationReport", "check_relations", "site_pairs", "transition_table"]

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .diagrams import (DiagramBasis, Orbits, _ranks_fit, conjugate, encode_partners,
                       inverse_of, prove_permutation, shared_basis, shared_orbits)


def site_pairs(basis: DiagramBasis, orbits: Orbits) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The monoid and braid rows (e_a, b_a) of each 0-based site a = 0..L-1, proved.

    Each row is the int32 N-vector of basis indices of the generator's images.
    Only the pair of site 1 is located by rank key; every other pair is the
    conjugate g_{a+1} = r g_a r^-1 of the one before it by the rotation
    r = `orbits.step` (`conjugate`), proved entry by entry before it is
    yielded: the basis keys of its images must equal the key arithmetic of
    `_image_keys`, and keys are injective on the basis. Equivariance is
    proved after the last pair, for the permutations r and s =
    `orbits.mirror` (`build_reduced` checks both): the pairs commute with r
    by construction, so per family only the wrap r g_{L-1} r^-1 = g_0 is
    checked, then s r s^-1 = r^-1 (as s r = r^-1 s) and s g_0 s^-1 = g_{L-2}.
    Lemma: s g_a s^-1 = g_{L-2-a} (mod L) for all a, as g_a = r^a g_0 r^-a
    gives s g_a s^-1 = (s r s^-1)^a (s g_0 s^-1) (s r^-1 s^-1)^a = r^-a
    g_{L-2} r^a. So a reader must exhaust the stream before it trusts a row.
    ArithmeticError names the site, the relation or generator c of the
    table rows (monoid c = a, braid c = L + a) as "column c": a reflection
    fault is named by column 0 or L, whichever family holds it. Both maps
    are first proved to be permutations, as `build_reduced` does, before
    either is inverted. Only the pairs of site 1, of site L-1 (0-based
    L-2) and the current one are kept.
    """
    size = basis.length
    step, mirror = orbits.step, orbits.mirror
    prove_permutation(step, len(basis), "rotation")
    prove_permutation(mirror, len(basis), "reflection")
    first = pair = tuple(basis.locate(_image_keys(basis.partners, basis._keys, 0))
                         .astype(np.int32))
    inverse = inverse_of(step)
    for a in range(size):
        if a:
            pair = tuple(conjugate(row, step, inverse) for row in pair)
            images = _image_keys(basis.partners, basis._keys, a)
            if not all(np.array_equal(basis._keys.take(row), keys)
                       for row, keys in zip(pair, images)):
                raise ArithmeticError(f"transition table rows of site {a + 1} "
                                      "do not match their rank keys")
            del images
        if a == (size - 2) % size:
            opposite = pair
        yield pair
    for c, row in enumerate(pair):  # r g_{L-1} r^-1 = g_0
        _prove_commutes(row, first[c], c * size + size - 1, "rotation", step, inverse)
    if not np.array_equal(mirror.take(step), inverse.take(mirror)):
        raise ArithmeticError("the reflection and the rotation do not satisfy s r s^-1 = r^-1")
    flipped = inverse_of(mirror)
    for c, row in enumerate(first):  # s g_0 s^-1 = g_{L-2}
        _prove_commutes(row, opposite[c], c * size, "reflection", mirror, flipped)


def transition_table(basis: DiagramBasis, orbits: Orbits) -> np.ndarray:
    """Basis indices of all generator images, as a C-contiguous (2L, N) int32 array.

    Row a holds the monoid image at site a+1 and row L+a the braid image:
    the pairs of `site_pairs`, written out once its proofs have passed.
    """
    size = basis.length
    table = np.empty((2 * size, len(basis)), dtype=np.int32)
    for a, pair in enumerate(site_pairs(basis, orbits)):
        table[a::size] = pair
    return table


def _prove_commutes(row, target, c, name, perm, inverse) -> None:
    if not np.array_equal(target, conjugate(row, perm, inverse)):
        raise ArithmeticError(f"transition table column {c} does not commute with the {name}")


def _image_keys(partners: np.ndarray, keys: np.ndarray, a: int) -> np.ndarray:
    """Rank keys of the monoid (row 0) and braid (row 1) images at 0-based site a.

    An image differs from its row only at a, b = a+1 and their partners pa,
    pb. With digit d = partner + L%2 (sa, sb: digits of a, b) and weight
    w[site] = base**(L-1-site), w[DEFECT] = 0, its key is the row's plus
    (sb-da)(w[a]-w[pb]) + (sa-db)(w[b]-w[pa]) for the monoid, and plus
    (db-da)(w[a]-w[b]) + (sa-sb)(w[pb]-w[pa]) for the braid unless a and b
    are paired. A digit difference is the partner difference, so both
    increments depend on (pa, pb) alone: they are tabulated for the
    (L+1)**2 pairs in uint64 arithmetic, which wraps modulo 2**64 as the
    keys do, and gathered per row. The sums are exact since every key <
    base**L <= 2**64.
    """
    size = partners.shape[1]
    assert _ranks_fit(size), "rank keys must fit in 64 bits"
    b = (a + 1) % size
    base = size + size % 2
    # Index s + 1 holds site s and index 0 DEFECT, which wraps to 2**64 - 1 and weighs 0.
    site = np.arange(-1, size).astype(np.uint64)
    w = np.zeros(size + 1, dtype=np.uint64)
    w[1:] = base ** np.arange(size - 1, -1, -1, dtype=np.uint64)
    pa, pb, wpa, wpb = site[:, None], site[None, :], w[:, None], w[None, :]
    monoid = (b - pa) * (w[a + 1] - wpb) + (a - pb) * (w[b + 1] - wpa)
    braid = ((pb - pa) * ((base ** (size - 1 - a) - base ** (size - 1 - b)) % 2**64)
             + (a - b) % 2**64 * (wpb - wpa))
    braid[b + 1] = 0  # pa == b: a and b are paired
    # Pair (pa, pb) sits at (pa + 1) * (L + 1) + pb + 1.
    pair = partners[:, a].astype(np.intp)
    pair += 1
    pair *= size + 1
    pair += partners[:, b]
    pair += 1
    images = np.stack([monoid.ravel(), braid.ravel()]).take(pair, axis=1)
    images += keys
    return images


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
    # a word acts on all diagrams by a chain of `take`s, its rightmost letter
    # innermost: e_i e_j is e[i].take(e[j]).
    orbits = shared_orbits(length)
    table = transition_table(basis, orbits)
    rot = orbits.step
    e = {i: table[i - 1] for i in range(1, length + 1)}
    b = {i: table[length + i - 1] for i in range(1, length + 1)}
    rot_back = inverse_of(rot)

    sites = range(1, length + 1)
    # Sites at cyclic distance 1, and at distance > 1.
    adjacent = [(i, j) for i in sites for j in sites if (i - j) % length in (1, length - 1)]
    distant = [(i, j) for i in sites for j in sites if (i - j) % length not in (0, 1, length - 1)]

    # Each relation family: (name, (lhs, rhs, tag) per index choice). The
    # instances are generated lazily, so one pair of image arrays is alive
    # at a time and a failure stops the family.
    families = [
        ("monoid idempotent: e_i e_i = e_i",
         ((e[i].take(e[i]), e[i], f"i={i}") for i in sites)),
        ("braid involution: b_i b_i = 1",
         ((b[i].take(b[i]), d, f"i={i}") for i in sites)),
        ("monoid absorption: e_i e_j e_i = e_i",
         ((e[i].take(e[j].take(e[i])), e[i], f"i={i},j={j}") for i, j in adjacent)),
        ("braid relation: b_i b_j b_i = b_j b_i b_j",
         ((b[i].take(b[j].take(b[i])), b[j].take(b[i].take(b[j])), f"i={i},j={j}")
          for i, j in adjacent)),
        ("mixed absorption: b_i e_i = e_i b_i = e_i",
         chain(((b[i].take(e[i]), e[i], f"i={i} (left)") for i in sites),
               ((e[i].take(b[i]), e[i], f"i={i} (right)") for i in sites))),
        ("mixed slide: b_i b_j e_i = e_j b_i b_j = e_j e_i",
         chain(((b[i].take(b[j].take(e[i])), e[j].take(e[i]), f"i={i},j={j} (left)")
                for i, j in adjacent),
               ((e[j].take(b[i].take(b[j])), e[j].take(e[i]), f"i={i},j={j} (middle)")
                for i, j in adjacent))),
        ("monoid commutation: [e_i, e_j] = 0",
         ((e[i].take(e[j]), e[j].take(e[i]), f"i={i},j={j}") for i, j in distant if i < j)),
        ("braid commutation: [b_i, b_j] = 0",
         ((b[i].take(b[j]), b[j].take(b[i]), f"i={i},j={j}") for i, j in distant if i < j)),
        ("mixed commutation: [e_i, b_j] = 0",
         ((e[i].take(b[j]), b[j].take(e[i]), f"i={i},j={j}") for i, j in distant)),
        # Periodic closure: conjugating by one rotation shifts the site index,
        # so the generator at site L is the wrap-around of the one at site 1.
        ("rotation covariance: g_{i+1} = r g_i r^-1",
         chain(((e[i % length + 1], conjugate(e[i], rot, rot_back), f"e,i={i}") for i in sites),
               ((b[i % length + 1], conjugate(b[i], rot, rot_back), f"b,i={i}") for i in sites))),
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
