import importlib
import itertools
import math
import os
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

from brauerloop import IntensityMatrix, Orbits
from brauerloop.checks import MonteCarloReport, OrbitEstimate
import brauerloop.diagrams as diagrams_module
from brauerloop.diagrams import (_key, encode_partners, orbit_summary, reflect_partners,
                                 representative_codes, shared_basis, shared_orbit_labels,
                                 shared_orbits)
from brauerloop.generators import transition_table
from brauerloop.hamiltonian import build_reduced

from oracles import ChordDiagram, rotate_partners


STRETCH = pytest.mark.skipif(os.environ.get("BRAUER_STRETCH") != "1",
                             reason="set BRAUER_STRETCH=1 for L = 15 and 16")

PACKAGE_MODULES = ["brauerloop"] + [f"brauerloop.{name}" for name in (
    "checks", "cli", "counting", "diagrams", "generators", "hamiltonian", "kernel")]


def defined_in_package(name):
    """The package modules that define `name`."""
    return [module for module in PACKAGE_MODULES
            if hasattr(importlib.import_module(module), name)]


def clear_memos():
    """Empty the package's per-length memos, so that the next reader builds from cold:
    the N-row arrays, the orbit summaries, and the codes and labels read from them."""
    diagrams_module._kits.clear()
    for memo in (orbit_summary, representative_codes, shared_orbit_labels):
        memo.cache_clear()


def count_enumerations(monkeypatch) -> list[int]:
    """The lengths passed to `diagrams.enumerate_diagrams` from now on, in call order."""
    calls = []
    original = diagrams_module.enumerate_diagrams

    def counting(length):
        calls.append(length)
        return original(length)

    monkeypatch.setattr(diagrams_module, "enumerate_diagrams", counting)
    return calls


@lru_cache(maxsize=None)
def table_of(length):
    """The read-only `transition_table` of the shared basis of one length."""
    table = transition_table(shared_basis(length), shared_orbits(length))
    table.flags.writeable = False
    return table


def reduced(basis, orbits):
    """`build_reduced` of the basis over the orbits, given its representatives' columns
    of the shared `transition_table`, as `groundstate` gathers them from `site_pairs`."""
    return build_reduced(basis, orbits, table_of(basis.length)[:, orbits.representatives])


def rows_of(length):
    """The site-1 rows (e_0, b_0) of the shared `transition_table`, as (2, N)."""
    return table_of(length)[0::length]


def diagram(length, *pairs):
    """Build a diagram from 1-based site pairs; leftover site is the defect."""
    return ChordDiagram.from_pairs(length, pairs)


def diagrams_of(basis):
    """The diagrams of a basis in basis order, one `ChordDiagram` per row."""
    return (ChordDiagram(tuple(row)) for row in basis.partners.tolist())


def diagram_at(basis, i):
    """The `ChordDiagram` of basis row i."""
    return ChordDiagram(tuple(basis.partners[i].tolist()))


def index_of(basis, diagram):
    """Basis index of one diagram, found by its rank key; KeyError when absent."""
    if diagram.length != basis.length:
        raise KeyError(diagram.partner)
    return int(basis.locate(_key(np.array([diagram.partner], dtype=np.int8)))[0])


def members_of(orbits, k):
    """The basis indices of orbit k, in increasing order."""
    return np.flatnonzero(orbits.orbit_of == k)


def regrouped(orbits, groups):
    """An `Orbits` record with the maps of `orbits` that labels the members of each
    group by the group's position, its first member as representative; a diagram
    in no group is labelled 0."""
    members = np.concatenate(groups).astype(np.intp)
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    orbit_of = np.zeros(len(orbits.orbit_of), dtype=np.int32)
    orbit_of[members] = np.repeat(np.arange(len(groups), dtype=np.int32), sizes)
    representatives = np.array([g[0] for g in groups], dtype=np.int32)
    return Orbits(representatives, sizes, orbit_of, orbits.step, orbits.mirror)


def matrix_of(columns, length=4):
    """An `IntensityMatrix` of hand-written {row: value} dicts, one per column."""
    entries = sorted((c, r, v) for c, col in enumerate(columns) for r, v in col.items())
    cols, rows, vals = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return IntensityMatrix(length, len(columns), rows, cols, vals)


@st.composite
def intensity_columns(draw):
    """Random {row: value} columns of an intensity matrix on a strongly
    connected graph or on a random one that may be disconnected, with up to
    two planted faults: a positive off-diagonal entry (the diagonal pays
    for it) or a nonzero column sum."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(a, b) for a, b in draw(st.lists(pairs, max_size=3 * n)) if a != b}
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        edges |= {(a, b) for a, b in zip(order, order[1:] + order[:1]) if a != b}
    columns = [{} for _ in range(n)]
    for source, target in sorted(edges):
        rate = draw(st.integers(min_value=1, max_value=50))
        columns[source][target] = -rate
        columns[source][source] = columns[source].get(source, 0) + rate
    faults = st.sampled_from(["positive", "column sum"])
    for fault, (c, r) in draw(st.lists(st.tuples(faults, pairs), max_size=2)):
        if fault == "positive" and r != c:
            value = draw(st.integers(min_value=1, max_value=50))
            columns[c][c] = columns[c].get(c, 0) - value + columns[c].get(r, 0)
            columns[c][r] = value
        elif fault == "column sum":
            columns[c][r] = columns[c].get(r, 0) + draw(st.integers(-5, 5).filter(bool))
    return columns


def settle(path, hours=1):
    """Date a cache file some hours back, like one written by an earlier run."""
    past = time.time_ns() - hours * 3600 * 10**9
    os.utime(path, ns=(past, past))


def brute_force_count(length):
    """Independent recursive count of pairings with at most one unpaired site."""

    def matchings(sites):
        if not sites:
            return 1
        first, rest = sites[0], sites[1:]
        return sum(matchings(rest[:k] + rest[k + 1 :]) for k in range(len(rest)))

    sites = tuple(range(length))
    if length % 2 == 0:
        return matchings(sites)
    return sum(
        matchings(sites[:hole] + sites[hole + 1 :]) for hole in range(length)
    )


def recursive_partners(length):
    """Sorted partner tuples of every diagram, built by recursive pairing.

    Pairs the first free site with each later free site in turn; for odd
    lengths every site takes the defect once. Slow, independent oracle for
    `enumerate_diagrams`.
    """
    found = []
    partner = [-1] * length

    def fill(free):
        if not free:
            found.append(tuple(partner))
            return
        i, rest = free[0], free[1:]
        for k, j in enumerate(rest):
            partner[i] = j
            partner[j] = i
            fill(rest[:k] + rest[k + 1 :])
            partner[j] = -1
        partner[i] = -1

    sites = tuple(range(length))
    if length % 2:
        for hole in sites:
            fill(sites[:hole] + sites[hole + 1 :])
    else:
        fill(sites)
    return sorted(found)


def brute_force_diagrams(length):
    """All valid partner tuples by filtering raw involutions (small lengths only)."""
    out = set()
    sites = range(length)
    for perm in itertools.permutations(sites):
        if any(perm[i] == i for i in sites if length % 2 == 0):
            continue
        fixed = [i for i in sites if perm[i] == i]
        if length % 2 == 1 and len(fixed) != 1:
            continue
        if any(perm[perm[i]] != i for i in sites):
            continue
        out.add(tuple(-1 if perm[i] == i else perm[i] for i in sites))
    return out


def orbits_by_image_keys(basis):
    """Dihedral orbits from the rank keys of all 2L images, one image at a time.

    Labels each diagram by the smallest key among its rotated and reflected
    partner rows and groups by that label. Slow, independent oracle for
    `compute_orbits`, which works on index maps instead.
    """
    mirrored = reflect_partners(basis.partners)
    smallest = basis._keys.copy()
    for k in range(basis.length):
        for source in (basis.partners, mirrored):
            np.minimum(smallest, _key(rotate_partners(source, k)), out=smallest)
    order = np.argsort(smallest, kind="stable")
    starts = np.flatnonzero(np.diff(smallest[order])) + 1
    return [g.tolist() for g in np.split(order, starts)]


def assert_orbits_are(orbits, groups):
    """An `Orbits` record groups the basis into exactly these member lists, in this
    order: its sizes, its representatives and the orbit of every diagram."""
    assert len(orbits) == len(groups)
    assert orbits.sizes.tolist() == [len(g) for g in groups]
    assert orbits.representatives.tolist() == [g[0] for g in groups]
    owner = {m: k for k, g in enumerate(groups) for m in g}
    assert orbits.orbit_of.tolist() == [owner[x] for x in range(len(owner))]


def monte_carlo_per_step(basis, orbits, ground_state, samples, seed, burn_in=None):
    """`monte_carlo_crosscheck` with one `rng.randrange(3L)` call per step.

    Oracle for the bulk draws: same chain, same batch means, same report.
    """
    length = basis.length
    orbit_of = orbits.orbit_of.tolist()
    # Per state, each site's monoid target twice and its braid target once.
    transitions = [[row[c] for a in range(length) for c in (a, a, length + a)]
                   for row in transition_table(basis, orbits).T.tolist()]
    total = ground_state.total
    exact = [Fraction(size * weight, total)
             for size, weight in zip(ground_state.sizes, ground_state.weights)]

    rng = random.Random(seed)
    events = 3 * length
    state = 0
    burn = samples // 10 if burn_in is None else burn_in
    for _ in range(burn):
        state = transitions[state][rng.randrange(events)]
    n_batches = min(100, samples)
    batch_size = samples // n_batches
    used = n_batches * batch_size
    batch_counts = [[0] * len(orbits) for _ in range(n_batches)]
    for step in range(used):
        state = transitions[state][rng.randrange(events)]
        batch_counts[step // batch_size][orbit_of[state]] += 1

    estimates = []
    for oi, rep in enumerate(orbits.representatives.tolist()):
        means = [batch_counts[b][oi] / batch_size for b in range(n_batches)]
        mean = sum(means) / n_batches
        variance = sum((m - mean) ** 2 for m in means) / max(n_batches - 1, 1)
        stderr = math.sqrt(variance / n_batches)
        gap = mean - float(exact[oi])
        if stderr > 0:
            z = gap / stderr
        else:
            z = 0.0 if gap == 0 else math.inf
        code = encode_partners(basis.partners[rep])
        estimates.append(OrbitEstimate(code, exact[oi], mean, stderr, z))
    return MonteCarloReport(length, used, seed, burn, tuple(estimates))
