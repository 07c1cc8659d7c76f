"""
Verification suite for the structural properties of computed ground states.

Every check returns a machine-readable PASS/FAIL record instead of assuming
the property: the conjectured facts (smallest weight 1, multiplicativity
under label concatenation, maximality of the reversal, power-of-two sum
rules, and agreement with independently computed component degrees of the
upper-upper scheme) are tested against exact computed data and reported,
so a counterexample would surface rather than be asserted away.

The stored reference constants are write-once; the long-permutation weights
are the opening terms of OEIS A094579.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Mapping

import numpy as np

from .diagrams import (
    PartialPermutation,
    Permutation,
    representative_codes,
    shared_basis,
    shared_orbit_labels,
    shared_orbits,
)
from .generators import transition_table
from .kernel import GroundState, groundstate


@dataclass(frozen=True)
class ReferenceOracles:
    """Published values the computed states are compared against."""

    s3_degrees: tuple[tuple[tuple[int, int, int], int], ...]
    rank4_degree_2431: int
    long_permutation_weights: tuple[int, ...]
    class_counts: tuple[int, ...]

    def s3_table(self) -> dict[Permutation, int]:
        return {Permutation(image): degree for image, degree in self.s3_degrees}


REFERENCE = ReferenceOracles(
    s3_degrees=(
        ((1, 2, 3), 1),
        ((1, 3, 2), 3),
        ((2, 1, 3), 3),
        ((2, 3, 1), 13),
        ((3, 1, 2), 13),
        ((3, 2, 1), 31),
    ),
    rank4_degree_2431=173,
    long_permutation_weights=(
        1,
        3,
        31,
        1145,
        154881,
        77899563,
        147226330175,
        1053765855157617,
    ),
    class_counts=(1, 2, 5, 17, 79),
)


@dataclass(frozen=True)
class CheckResult:
    check: str
    length: int
    status: str  # PASS | FAIL | SKIP
    details: str

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "L": self.length,
            "status": self.status,
            "details": self.details,
        }


def permutation_weight_table(
    state: GroundState,
) -> dict[Permutation, int] | dict[PartialPermutation, int]:
    """Map every (partial) permutation label to the weight of its diagram.

    Labels are inserted orbit by orbit, members in basis order.
    """
    table: dict = {}
    for weight, labels in zip(state.weights, shared_orbit_labels(state.length)):
        for label in labels:
            table[label] = weight
    return table


def concatenate_labels(first, second):
    """Block concatenation of two labels; at most one may be partial."""
    if isinstance(first, Permutation) and isinstance(second, Permutation):
        return Permutation(first.image + tuple(v + first.n for v in second.image))
    if isinstance(first, PartialPermutation) and isinstance(second, Permutation):
        return PartialPermutation(
            first.image + tuple(v + first.rank for v in second.image)
        )
    if isinstance(first, Permutation) and isinstance(second, PartialPermutation):
        return PartialPermutation(
            first.image + tuple(None if v is None else v + first.n for v in second.image)
        )
    raise TypeError("at most one factor may be a partial permutation")


def verify_integrality(state: GroundState) -> CheckResult:
    """After gcd normalisation the smallest weight should be exactly 1."""
    smallest = min(state.weights)
    status = "PASS" if smallest == 1 else "FAIL"
    return CheckResult("integrality", state.length, status, f"min weight = {smallest}")


def verify_maximality(state: GroundState) -> CheckResult:
    """The reversal (n, ..., 1) should carry the strictly largest labelled weight."""
    if state.length % 2:
        return CheckResult(
            "maximality", state.length, "SKIP", "odd lengths carry no permutation labels"
        )
    table = permutation_weight_table(state)
    n = state.length // 2
    longest = Permutation.longest(n)
    top = table[longest]
    ties = [str(p) for p, w in table.items() if w == top and p != longest]
    beaten = [str(p) for p, w in table.items() if w > top]
    if beaten:
        return CheckResult(
            "maximality", state.length, "FAIL", f"exceeded by {', '.join(beaten)}"
        )
    if ties:
        return CheckResult(
            "maximality", state.length, "FAIL", f"tied with {', '.join(ties)}"
        )
    return CheckResult(
        "maximality", state.length, "PASS", f"reversal weight {top} is the strict maximum"
    )


def verify_sum_rule(state: GroundState) -> CheckResult:
    """Labelled weights should sum to 2^(n^2-n) (even L = 2n) or 2^(n^2) (odd)."""
    table = permutation_weight_table(state)
    n = state.length // 2
    if state.length % 2 == 0:
        expected_count = math.factorial(n)
        expected_sum = 2 ** (n * n - n)
    else:
        expected_count = math.factorial(n + 1)
        expected_sum = 2 ** (n * n)
    total = sum(table.values())
    ok = len(table) == expected_count and total == expected_sum
    details = (
        f"{len(table)} labelled diagrams (expected {expected_count}), "
        f"sum {total} (expected {expected_sum})"
    )
    return CheckResult("sum-rule", state.length, "PASS" if ok else "FAIL", details)


def verify_factorization(ground_states: Mapping[int, GroundState]) -> CheckResult:
    """Concatenated labels should multiply: every realizable pair is checked."""
    tables = {length: permutation_weight_table(gs) for length, gs in ground_states.items()}
    lengths = sorted(tables)
    checked = 0
    failures: list[str] = []
    for la in lengths:
        for lb in lengths:
            if la % 2 and lb % 2:
                continue  # at most one partial factor
            rank = la // 2 + lb // 2
            lc = 2 * rank + (la % 2 or lb % 2)
            if lc not in tables:
                continue
            target = tables[lc]
            for label_a, wa in tables[la].items():
                for label_b, wb in tables[lb].items():
                    combined = concatenate_labels(label_a, label_b)
                    wc = target.get(combined)
                    checked += 1
                    if wc != wa * wb:
                        failures.append(
                            f"{label_a} * {label_b} -> {combined}: "
                            f"{wa} * {wb} != {wc}"
                        )
    status = "PASS" if not failures else "FAIL"
    details = f"{checked} concatenations checked"
    if failures:
        details += "; first failure: " + failures[0]
    return CheckResult("factorization", max(lengths, default=0), status, details)


def verify_degrees(ground_states: Mapping[int, GroundState]) -> CheckResult:
    """Labelled weights should match the stored component degrees."""
    used = []
    failures = []
    if 6 in ground_states:
        table = permutation_weight_table(ground_states[6])
        for perm, degree in REFERENCE.s3_table().items():
            if table.get(perm) != degree:
                failures.append(f"{perm}: {table.get(perm)} != {degree}")
        used.append(6)
    if 8 in ground_states:
        table = permutation_weight_table(ground_states[8])
        weight = table.get(Permutation((2, 4, 3, 1)))
        if weight != REFERENCE.rank4_degree_2431:
            failures.append(f"(2431): {weight} != {REFERENCE.rank4_degree_2431}")
        used.append(8)
    if not used:
        return CheckResult("degrees", 0, "SKIP", "needs a ground state for length 6 or 8")
    status = "PASS" if not failures else "FAIL"
    details = f"checked lengths {used}"
    if failures:
        details += "; " + "; ".join(failures)
    return CheckResult("degrees", max(used), status, details)


def long_permutation_sequence(
    max_n: int, ground_states: Mapping[int, GroundState]
) -> list[int]:
    """Weights of the reversal (n, ..., 1) for n = 1..max_n."""
    out = []
    for n in range(1, max_n + 1):
        table = permutation_weight_table(ground_states[2 * n])
        out.append(table[Permutation.longest(n)])
    return out


@dataclass(frozen=True)
class OrbitEstimate:
    representative: str
    exact: Fraction
    empirical: float
    stderr: float
    zscore: float


@dataclass(frozen=True)
class MonteCarloReport:
    length: int
    samples: int
    seed: int
    burn_in: int
    estimates: tuple[OrbitEstimate, ...]

    @property
    def max_abs_z(self) -> float:
        return max(abs(e.zscore) for e in self.estimates)

    def within(self, sigma: float) -> bool:
        return self.max_abs_z <= sigma


def _event_rows(table) -> list[list[int]]:
    """Targets of the 3L equally likely events per state, as plain lists.

    Each site gives its monoid target twice and its braid target once; lists,
    because numpy scalar indexing would dominate the step loop.
    """
    size = table.shape[1] // 2
    return table[:, [c for a in range(size) for c in (a, a, size + a)]].tolist()


_DRAW_WORDS = 2**14  # 32-bit words fetched from the generator per chunk


def _uniform_draws(rng: random.Random, n: int) -> Iterator[int]:
    """The values `rng.randrange(n)` would return call after call, drawn in bulk.

    randrange(n) reads the top n.bit_length() bits of one 32-bit Mersenne
    Twister output and draws again while the value is >= n; getrandbits
    of a multiple of 32 bits returns consecutive outputs as little-endian
    words. So reading a chunk of words and keeping the small enough values
    yields the same stream, one chunk in memory at a time.
    """
    shift = 32 - n.bit_length()
    assert shift >= 0, "draws must fit in one 32-bit word"
    while True:
        words = rng.getrandbits(32 * _DRAW_WORDS).to_bytes(4 * _DRAW_WORDS, "little")
        draws = np.frombuffer(words, dtype="<u4") >> shift
        yield from draws[draws < n].tolist()


def monte_carlo_crosscheck(
    length: int,
    samples: int,
    seed: int,
    burn_in: int | None = None,
    ground_state: GroundState | None = None,
    cache_dir=None,
) -> MonteCarloReport:
    """Simulate the uniformised chain and compare orbit frequencies to exact.

    The chain P = I - H/(3L) is sampled one unit-rate event at a time: pick
    a site uniformly, then a monoid move with probability 2/3 or a braid
    move with probability 1/3. Standard errors come from batch means, which
    absorbs the serial correlation of the trajectory; runs are deterministic
    for a fixed seed.
    """
    if length < 2:
        raise ValueError("simulation needs length >= 2")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if ground_state is not None and ground_state.length != length:
        raise ValueError(
            f"ground state of length {ground_state.length} given for length {length}"
        )
    basis = shared_basis(length)
    orbit_of = shared_orbits(length).orbit_of.tolist()
    representatives = representative_codes(length)
    transitions = _event_rows(transition_table(basis))

    if ground_state is None:
        ground_state = groundstate(length, cache_dir=cache_dir)
    total = ground_state.total
    exact = [Fraction(size * weight, total)
             for size, weight in zip(ground_state.sizes, ground_state.weights)]

    draws = _uniform_draws(random.Random(seed), 3 * length)
    state = 0
    burn = samples // 10 if burn_in is None else burn_in
    for event in islice(draws, burn):
        state = transitions[state][event]

    n_batches = min(100, samples)
    batch_size = samples // n_batches
    used = n_batches * batch_size
    batch_counts = [[0] * len(representatives) for _ in range(n_batches)]
    for counts in batch_counts:
        for event in islice(draws, batch_size):
            state = transitions[state][event]
            counts[orbit_of[state]] += 1

    estimates = []
    for oi, representative in enumerate(representatives):
        means = [batch_counts[b][oi] / batch_size for b in range(n_batches)]
        mean = sum(means) / n_batches
        variance = sum((m - mean) ** 2 for m in means) / max(n_batches - 1, 1)
        stderr = math.sqrt(variance / n_batches)
        gap = mean - float(exact[oi])
        if stderr > 0:
            z = gap / stderr
        else:
            z = 0.0 if gap == 0 else math.inf
        estimates.append(
            OrbitEstimate(
                representative=representative,
                exact=exact[oi],
                empirical=mean,
                stderr=stderr,
                zscore=z,
            )
        )
    return MonteCarloReport(
        length=length, samples=used, seed=seed, burn_in=burn, estimates=tuple(estimates)
    )
