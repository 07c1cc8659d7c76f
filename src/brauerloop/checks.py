"""
Verification suite for the structural properties of computed ground states.

Every check returns a machine-readable PASS/FAIL record instead of assuming
the property: the conjectured facts (smallest weight 1, multiplicativity
under label concatenation, maximality of the reversal, power-of-two sum
rules, and agreement with independently computed component degrees of the
upper-upper scheme) are tested against exact computed data and reported,
so a counterexample would surface rather than be asserted away.

Labels are the plain tuples of `shared_orbit_labels`: a permutation's
one-line image, or a partial permutation's image with None at the defect.
`permutation_weight_table` maps each to its diagram's weight, and failure
texts show a label in its compact form in parentheses, as in "(2431)".

The stored reference constants are write-once; the long-permutation weights
are the opening terms of OEIS A094579.

The Monte Carlo cross-check steps the uniformised chain on the (2L, N)
`transition_table` itself, one gather per step (`_trajectory`).
"""

from __future__ import annotations

__all__ = ["REFERENCE", "CheckResult", "MonteCarloReport", "ReferenceOracles",
           "concatenate_labels", "long_permutation_sequence", "monte_carlo_crosscheck",
           "permutation_weight_table", "verify_degrees", "verify_factorization",
           "verify_integrality", "verify_maximality", "verify_sum_rule"]

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .diagrams import (
    label_text,
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

    def s3_table(self) -> dict[tuple[int, ...], int]:
        return dict(self.s3_degrees)


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


def permutation_weight_table(state: GroundState) -> dict[tuple, int]:
    """Map every (partial) permutation label to the weight of its diagram.

    Labels are inserted orbit by orbit, members in basis order.
    """
    labels = shared_orbit_labels(state.length)
    return {label: weight for weight, group in zip(state.weights, labels) for label in group}


def concatenate_labels(first: tuple, second: tuple) -> tuple:
    """Block concatenation of two labels; at most one may be partial (hold None)."""
    if None in first and None in second:
        raise TypeError("at most one factor may be a partial permutation")
    return first + _shifted(second, len(first) - (None in first))


def _shifted(label: tuple, shift: int) -> tuple:
    """The label with every value raised by `shift`, None kept."""
    return tuple(None if v is None else v + shift for v in label)


def _shown(label: tuple) -> str:
    return f"({label_text(label)})"


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
    longest = tuple(range(n, 0, -1))
    top = table[longest]
    ties = [_shown(p) for p, w in table.items() if w == top and p != longest]
    beaten = [_shown(p) for p, w in table.items() if w > top]
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
    """Concatenated labels should multiply: every realizable pair is checked.

    `concatenate_labels` shifts a second factor by la // 2 for every first
    factor of length la, so the second factors are shifted once per pair of lengths.
    """
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
            shifted = [(label_b, wb, _shifted(label_b, la // 2))
                       for label_b, wb in tables[lb].items()]
            for label_a, wa in tables[la].items():
                for label_b, wb, moved in shifted:
                    combined = label_a + moved
                    wc = target.get(combined)
                    checked += 1
                    if wc != wa * wb:
                        failures.append(
                            f"{_shown(label_a)} * {_shown(label_b)} -> {_shown(combined)}: "
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
                failures.append(f"{_shown(perm)}: {table.get(perm)} != {degree}")
        used.append(6)
    if 8 in ground_states:
        table = permutation_weight_table(ground_states[8])
        weight = table.get((2, 4, 3, 1))
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
        out.append(table[tuple(range(n, 0, -1))])
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


# The event stream is handled in chunks of _CHUNK_BLOCKS blocks of
# _BLOCK_STEPS steps, so memory stays bounded whatever the sample count.
_BLOCK_STEPS = 128
_CHUNK_BLOCKS = 2048
_DRAW_WORDS = 2**14  # 32-bit words fetched from the generator per draw chunk


def _event_chunks(rng: random.Random, n: int, count: int, size: int) -> Iterator[np.ndarray]:
    """The first `count` values of `rng.randrange(n)`, as uint8 arrays of `size`.

    randrange(n) reads the top n.bit_length() bits of one 32-bit Mersenne
    Twister output and draws again while the value is >= n; getrandbits
    of a multiple of 32 bits returns consecutive outputs as little-endian
    words. So reading _DRAW_WORDS words at a time and keeping the small
    enough values gives the same stream. The last array may be shorter.
    """
    assert n <= 256, "events must fit in uint8"
    shift = 32 - n.bit_length()
    pieces, held = [], 0
    while count:
        want = min(size, count)
        while held < want:
            words = rng.getrandbits(32 * _DRAW_WORDS).to_bytes(4 * _DRAW_WORDS, "little")
            draws = np.frombuffer(words, dtype="<u4") >> shift
            pieces.append(draws.compress(draws < n).astype(np.uint8))
            held += len(pieces[-1])
        joined = np.concatenate(pieces)
        yield joined[:want]
        pieces, held, count = [joined[want:]], held - want, count - want


def _trajectory(table: np.ndarray, start: int, events: np.ndarray) -> np.ndarray:
    """The states after each event from `start`, stepping the (2L, N) `transition_table`.

    Event 3a or 3a+1 is the monoid move at site a+1 (table row a), event 3a+2
    its braid move (row L+a). Each event is replaced by its table row once
    per call, so each step is one multiply-add and one gather: on the
    flattened table, row m sends state x to m * N + x. The states, and the
    entries they are read from, are uint8 up to 2**8 diagrams, uint16 up to
    2**16, else int32.

    The events are cut into blocks of _BLOCK_STEPS. Every block is first run
    from a guessed start (state 0; the first block from `start`), all blocks
    at once, one gather per step. A block's true start is the previous
    block's end; each block whose start differs from the one it was run from
    is run again from its true start, only until its path meets the stored
    one, for the paths agree from there on. That repeats until no start
    changes. Each round fixes at least the first wrong block, so the result
    is exact whether or not paths meet; meeting paths only save rounds.
    """
    size, count = len(table) // 2, table.shape[1]
    dtype = np.uint8 if count <= 2**8 else np.uint16 if count <= 2**16 else np.int32
    flat = table.ravel().astype(dtype, copy=False)  # a copy of at most 2L * 2**16 entries
    # Row a for events 3a and 3a+1, row L+a for 3a+2, as a bytes.translate table.
    rows = bytes(e // 3 + size * (e % 3 == 2) for e in range(3 * size)).ljust(256, b"\0")
    count = np.intp(count)
    blocks = -(-len(events) // _BLOCK_STEPS)
    moves = np.frombuffer(events.tobytes().translate(rows), dtype=np.uint8)
    padded = np.pad(moves, (0, blocks * _BLOCK_STEPS - len(events)))
    # Step-major layouts: row j holds step j of every block.
    moves = np.ascontiguousarray(padded.reshape(blocks, _BLOCK_STEPS).T)
    states = np.empty((_BLOCK_STEPS, blocks), dtype=dtype)
    guess = np.zeros(blocks, dtype=dtype)
    guess[0] = start
    state = guess
    for row, move in zip(states, moves):
        index = move * count
        index += state
        row[...] = flat.take(index)
        state = row
    while True:
        ends = np.concatenate((guess[:1], states[-1, :-1]))
        run = np.flatnonzero(ends != guess)
        if not run.size:
            return states.T.ravel()[: len(events)]
        guess[run] = state = ends[run]
        for row, move in zip(states, moves):
            state = flat[move[run] * count + state]
            moved = state != row[run]
            run, state = run[moved], state[moved]
            if not run.size:
                break
            row[run] = state


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
    absorbs the serial correlation of the trajectory.

    The events are the values of `random.Random(seed).randrange(3L)`, one
    per step, drawn in bulk. `_trajectory` evaluates the path they fix on
    the transition table exactly, in chunks, so the states and visit counts
    equal those of a step-by-step loop and are deterministic for a fixed
    seed. The batch means use Python's float `sum`, which is compensated
    from Python 3.12 on, so the last digits of `empirical` and `stderr` can
    differ between Python versions for the same seed.
    """
    if length < 2:
        raise ValueError("simulation needs length >= 2")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if burn_in is not None and burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if ground_state is not None and ground_state.length != length:
        raise ValueError(
            f"ground state of length {ground_state.length} given for length {length}"
        )
    basis = shared_basis(length)
    orbits = shared_orbits(length)
    representatives = representative_codes(length)
    table = transition_table(basis, orbits)

    if ground_state is None:
        ground_state = groundstate(length, cache_dir=cache_dir)
    total = ground_state.total
    exact = [Fraction(size * weight, total)
             for size, weight in zip(ground_state.sizes, ground_state.weights)]

    burn = samples // 10 if burn_in is None else burn_in
    n_batches = min(100, samples)
    batch_size = samples // n_batches
    used = n_batches * batch_size
    counts = np.zeros((n_batches, len(orbits)), dtype=np.int64)
    chunks = _event_chunks(random.Random(seed), 3 * length, burn + used,
                           _CHUNK_BLOCKS * _BLOCK_STEPS)
    state, step = 0, 0  # the state before the chunk's first event, and its index
    for events in chunks:
        path = _trajectory(table, state, events)
        state = int(path[-1])
        # Counted steps are burn .. burn + used - 1, cut at batch boundaries.
        lo = max(burn - step, 0)
        while lo < len(path):
            batch = (step + lo - burn) // batch_size
            hi = min(len(path), burn + (batch + 1) * batch_size - step)
            visits = np.bincount(path[lo:hi], minlength=len(basis))
            assert hi - lo <= 2**53, "per-orbit float64 sums of the visits must be exact"
            counts[batch] += np.bincount(orbits.orbit_of, visits, len(orbits)).astype(np.int64)
            lo = hi
        step += len(path)
        del path  # before the next chunk's trajectory is built
    assert int(counts.sum()) == used, "every counted step lands in one batch"
    batch_counts = counts.tolist()

    estimates = []
    for oi, representative in enumerate(representatives):
        means = [batch_counts[b][oi] / batch_size for b in range(n_batches)]
        mean = sum(means) / n_batches
        variance = sum((m - mean) ** 2 for m in means) / max(n_batches - 1, 1)
        stderr = math.sqrt(variance / n_batches)
        gap = mean - float(exact[oi])
        z = gap / stderr if stderr > 0 else 0.0 if gap == 0 else math.inf
        estimates.append(OrbitEstimate(representative, exact[oi], mean, stderr, z))
    return MonteCarloReport(length, used, seed, burn, tuple(estimates))
