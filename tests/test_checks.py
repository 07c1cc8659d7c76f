import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from brauerloop import (
    DEFECT,
    REFERENCE,
    concatenate_labels,
    groundstate,
    long_permutation_sequence,
    monte_carlo_crosscheck,
    permutation_weight_table,
    verify_degrees,
    verify_factorization,
    verify_integrality,
    verify_maximality,
    verify_sum_rule,
)
import brauerloop.kernel as kernel_module
import brauerloop.checks as checks_module
from brauerloop.checks import (
    _BLOCK_STEPS,
    _CHUNK_BLOCKS,
    _DRAW_WORDS,
    _event_chunks,
    _trajectory,
)
from brauerloop.cli import main
from brauerloop.diagrams import _key, shared_basis, shared_orbits

from conftest import (
    STRETCH,
    clear_memos,
    defined_in_package,
    diagram,
    diagram_at,
    diagrams_of,
    index_of,
    members_of,
    monte_carlo_per_step,
    settle,
    table_of,
)
from oracles import apply_braid, apply_monoid, partial_permutation_label, permutation_label
from brauerloop.kernel import GroundState

# Stored reference constants are write-once: any edit must show up here.
ORACLE_SHA256 = "171bc7e704bf6ac364cf0a5c04d85880c3b02f94b6475afdb2fca722d21e74c7"


def oracle_fingerprint():
    blob = repr((
        REFERENCE.s3_degrees,
        REFERENCE.rank4_degree_2431,
        REFERENCE.long_permutation_weights,
        REFERENCE.class_counts,
    )).encode()
    return hashlib.sha256(blob).hexdigest()


def test_reference_oracles_frozen():
    assert oracle_fingerprint() == ORACLE_SHA256


@pytest.fixture(scope="module")
def states():
    return {length: groundstate(length) for length in range(2, 9)}


class TestWeightTable:
    def test_s3_degree_table(self, states):
        table = permutation_weight_table(states[6])
        assert table == REFERENCE.s3_table()

    def test_l4_table(self, states):
        table = permutation_weight_table(states[4])
        assert table == {(1, 2): 1, (2, 1): 3}

    def test_l8_degree_of_2431(self, states):
        table = permutation_weight_table(states[8])
        assert table[(2, 4, 3, 1)] == 173

    def test_l5_partial_table(self, states):
        table = permutation_weight_table(states[5])
        assert table[(2, None, 1)] == 7
        assert table[(2, 1, None)] == 3
        assert table[(1, None, 2)] == 1
        assert len(table) == 6


def numbered_state(length):
    """A stand-in ground state whose orbit weights are 1, 2, 3, ... in orbit order."""
    return GroundState(length, tuple(range(1, len(shared_orbits(length)) + 1)))


class TestWeightTableOracle:
    @pytest.mark.parametrize("length", range(2, 13))
    def test_matches_per_diagram_labels_in_order(self, length):
        basis = shared_basis(length)
        label = permutation_label if length % 2 == 0 else partial_permutation_label
        expected = {}
        orbits = shared_orbits(length)
        for k in range(len(orbits)):
            for m in members_of(orbits, k).tolist():
                found = label(diagram_at(basis, m))
                if found is not None:
                    expected[found] = k + 1
        table = permutation_weight_table(numbered_state(length))
        assert list(table.items()) == list(expected.items())

    @pytest.mark.parametrize("length", [*range(2, 15), *(
        pytest.param(length, marks=STRETCH) for length in (15, 16))])
    def test_every_label_is_found_by_building_its_diagram(self, length):
        # Each image of 1..n, with None put at each defect slot for odd L,
        # becomes its partner row: left site i (0-based) pairs with right
        # site n - 1 + image[i], or n + image[i] when the left block holds
        # the n + 1 sites of an odd length.
        n, odd = length // 2, length % 2
        labels = [image[:slot] + (None,) * odd + image[slot:]
                  for image in permutations(range(1, n + 1))
                  for slot in range(n + 1 if odd else 1)]
        rows = np.full((len(labels), length), DEFECT, dtype=np.int8)
        for row, label in zip(rows, labels):
            for i, v in enumerate(label):
                if v is not None:
                    row[i], row[n + v - 1 + odd] = n + v - 1 + odd, i
        basis = shared_basis(length)
        found = shared_orbits(length).orbit_of[basis.locate(_key(rows))] + 1
        table = permutation_weight_table(numbered_state(length))
        assert len(table) == math.factorial(n + odd) == len(labels)
        assert [table[label] for label in labels] == found.tolist()
        if length > 14:
            clear_memos()  # later tests need not hold these 2 M-row arrays

    def test_unknown_representative_rejected(self):
        state = numbered_state(6)
        with pytest.raises(ValueError, match="do not match"):
            permutation_weight_table(GroundState(6, state.weights[1:]))

    @pytest.mark.parametrize("length", [9, 10])
    def test_builds_no_diagram_per_basis_row(self, length, tmp_path):
        # From cold shared caches through the solve and the cache file to the
        # table: the package has no single-diagram type, so it builds none,
        # neither per basis row nor per orbit.
        clear_memos()
        table = permutation_weight_table(groundstate(length, cache_dir=tmp_path))
        assert len(table) == math.factorial(length // 2 + length % 2)
        assert defined_in_package("ChordDiagram") == []

    def test_warm_groundstate_and_verify_decode_each_payload_once(self, tmp_path, monkeypatch,
                                                                   capsys):
        # A cache built earlier: loading L = 13 and then verifying L = 2..13
        # decodes each file once (and the package has no diagram type to build).
        for length in range(2, 14):
            groundstate(length, cache_dir=tmp_path)
        for path in tmp_path.iterdir():
            settle(path)
        kernel_module._loaded.clear()
        clear_memos()
        decoded = []
        original_decode = kernel_module.deserialize_groundstate

        def counting_decode(text, length):
            decoded.append(length)
            return original_decode(text, length)

        monkeypatch.setattr(kernel_module, "deserialize_groundstate", counting_decode)
        monkeypatch.setattr(kernel_module, "kernel_vector",
                            lambda *a, **k: pytest.fail("warm cache must not solve"))
        state = groundstate(13, cache_dir=tmp_path)
        assert main(["verify", "--max-length", "13", "--cache-dir", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert groundstate(13, cache_dir=tmp_path) is state
        assert sorted(decoded) == list(range(2, 14))
        assert defined_in_package("ChordDiagram") == []


class TestConcatenation:
    def test_two_permutations(self):
        assert concatenate_labels((2, 1), (2, 1)) == (2, 1, 4, 3)

    def test_permutation_then_partial(self):
        lab = concatenate_labels((1,), (None, 1))
        assert lab == (1, None, 2)

    def test_partial_then_permutation(self):
        lab = concatenate_labels((None, 1), (1,))
        assert lab == (None, 1, 2)

    def test_two_partials_rejected(self):
        with pytest.raises(TypeError):
            concatenate_labels((None, 1), (None, 1))


class TestChecks:
    def test_integrality(self, states):
        for gs in states.values():
            result = verify_integrality(gs)
            assert result.status == "PASS", result

    def test_maximality(self, states):
        for length in (4, 6, 8):
            assert verify_maximality(states[length]).status == "PASS"

    def test_maximality_skips_odd(self, states):
        assert verify_maximality(states[5]).status == "SKIP"

    def test_sum_rules(self, states):
        for length, gs in states.items():
            result = verify_sum_rule(gs)
            assert result.status == "PASS", result

    def test_factorization_examples(self, states):
        table8 = permutation_weight_table(states[8])
        assert table8[(2, 1, 4, 3)] == 9  # 3 * 3
        table6 = permutation_weight_table(states[6])
        assert table6[(2, 1, 3)] == 3  # 3 * 1
        result = verify_factorization(states)
        assert result.status == "PASS", result

    def test_degrees(self, states):
        assert verify_degrees(states).status == "PASS"

    def test_degrees_skip_without_data(self, states):
        assert verify_degrees({2: states[2]}).status == "SKIP"

    def test_check_result_json_shape(self, states):
        obj = verify_integrality(states[4]).to_json_obj()
        assert set(obj) == {"check", "L", "status", "details"}


def reweighted(state, pairs, weight):
    """The state with the orbit of the diagram with these 1-based chords set to `weight`."""
    orbit_of = shared_orbits(state.length).orbit_of
    k = int(orbit_of[index_of(shared_basis(state.length), diagram(state.length, *pairs))])
    weights = list(state.weights)
    weights[k] = weight
    return GroundState(state.length, tuple(weights))


class TestFailTexts:
    # (231) at L = 6 pairs 1-5, 2-6, 3-4 and shares its orbit with (312).
    L6_231 = [(1, 5), (2, 6), (3, 4)]

    def test_maximality_exceeded(self, states):
        result = verify_maximality(reweighted(states[6], self.L6_231, 40))
        assert (result.status, result.details) == ("FAIL", "exceeded by (231), (312)")
        result = verify_maximality(reweighted(states[8], [(1, 6), (2, 8), (3, 7), (4, 5)], 1146))
        assert result.details == "exceeded by (2431), (3241), (4132), (4213)"

    def test_maximality_tied(self, states):
        result = verify_maximality(reweighted(states[6], self.L6_231, 31))
        assert (result.status, result.details) == ("FAIL", "tied with (231), (312)")

    def test_factorization_first_failure(self, states):
        broken = dict(states)
        broken[8] = reweighted(states[8], [(1, 6), (2, 5), (3, 8), (4, 7)], 10)
        result = verify_factorization(broken)
        assert (result.status, result.details) == (
            "FAIL",
            "45 concatenations checked; first failure: (21) * (21) -> (2143): 3 * 3 != 10",
        )
        broken = dict(states)
        broken[5] = reweighted(states[5], [(1, 5), (3, 4)], 8)
        assert verify_factorization(broken).details == (
            "45 concatenations checked; first failure: (1) * (2.1) -> (13.2): 1 * 8 != 7"
        )

    def test_degrees_mismatch(self, states):
        broken = dict(states)
        broken[6] = reweighted(states[6], [(1, 4), (2, 6), (3, 5)], 4)
        broken[8] = reweighted(states[8], [(1, 6), (2, 8), (3, 7), (4, 5)], 174)
        result = verify_degrees(broken)
        assert (result.status, result.details) == (
            "FAIL",
            "checked lengths [6, 8]; (132): 4 != 3; (213): 4 != 3; (2431): 174 != 173",
        )


class TestSequence:
    def test_prefix(self, states):
        assert long_permutation_sequence(4, states) == [1, 3, 31, 1145]

    def test_n1(self, states):
        assert long_permutation_sequence(1, states) == [1]


class TestMonteCarlo:
    def test_l4_converges(self, states):
        report = monte_carlo_crosscheck(4, 1_000_000, seed=11, ground_state=states[4])
        # exact orbit probabilities are 6/7 and 1/7
        assert {e.exact for e in report.estimates} == {Fraction(6, 7), Fraction(1, 7)}
        assert report.within(4.0), report

    def test_l2_exact(self, states):
        report = monte_carlo_crosscheck(2, 1000, seed=0, ground_state=states[2])
        assert report.estimates[0].empirical == 1.0
        assert report.max_abs_z == 0.0

    def test_deterministic_under_seed(self, states):
        a = monte_carlo_crosscheck(5, 50_000, seed=42, ground_state=states[5])
        b = monte_carlo_crosscheck(5, 50_000, seed=42, ground_state=states[5])
        assert a == b

    def test_doubling_samples_stays_within_band(self, states):
        a = monte_carlo_crosscheck(4, 100_000, seed=3, ground_state=states[4])
        b = monte_carlo_crosscheck(4, 200_000, seed=3, ground_state=states[4])
        for ea, eb in zip(a.estimates, b.estimates):
            band = 5.0 * math.hypot(ea.stderr, eb.stderr)
            assert abs(ea.empirical - eb.empirical) <= band

    @pytest.mark.parametrize("length", range(2, 9))
    def test_event_rows_match_scalar_generators(self, length):
        # Events 3a and 3a+1 are the monoid at site a+1, event 3a+2 its braid.
        basis = shared_basis(length)
        table = table_of(length)
        for x, d in enumerate(diagrams_of(basis)):
            expected, found = [], []
            for event in range(3 * length):
                move = apply_braid if event % 3 == 2 else apply_monoid
                expected.append(index_of(basis, move(event // 3 + 1, d)))
                found.extend(_trajectory(table, x, np.array([event], dtype=np.uint8)).tolist())
            assert found == expected

    @pytest.mark.parametrize("length, dtype", [
        *((length, np.uint8) for length in range(2, 9)),
        *((length, np.uint16) for length in range(9, 13)),
        (13, np.int32),
    ])
    def test_states_take_the_smallest_dtype(self, length, dtype):
        # Checked against single events on the (2L, N) table, at every state
        # dtype: uint8 up to L = 8, uint16 for L = 9..12, int32 at L = 13.
        table = table_of(length)
        events = np.random.default_rng(length).integers(0, 3 * length, size=600, dtype=np.uint8)
        path = _trajectory(table, min(5, table.shape[1] - 1), events)
        assert path.dtype == dtype
        state, expected = min(5, table.shape[1] - 1), []
        for event in events.tolist():
            state = int(table[event // 3 + length * (event % 3 == 2), state])
            expected.append(state)
        assert path.tolist() == expected

    @pytest.mark.parametrize("length", range(2, 15))
    def test_bulk_draws_equal_randrange(self, length):
        events = 3 * length
        # Enough draws to cross at least two draw-chunk boundaries, cut into
        # arrays whose ends fall inside draw chunks.
        count, size = 2 * _DRAW_WORDS + 1000, 5000
        for seed in (0, 1, 2024):
            rng = random.Random(seed)
            expected = [rng.randrange(events) for _ in range(count)]
            chunks = list(_event_chunks(random.Random(seed), events, count, size))
            assert [len(c) for c in chunks] == [size] * (count // size) + [count % size]
            assert all(c.dtype == np.uint8 for c in chunks)
            assert np.concatenate(chunks).tolist() == expected

    @pytest.mark.parametrize("block_steps", [256, 7, 1])
    def test_trajectory_without_meeting_paths(self, monkeypatch, block_steps):
        # Every event of a permutation table is a bijection, so two paths
        # from different states never meet: every block run from a wrong
        # guess stays wrong until its start is corrected, and the blocks are
        # fixed one round at a time.
        monkeypatch.setattr(checks_module, "_BLOCK_STEPS", block_steps)
        rng = np.random.default_rng(5)
        # A (2L, N) table with L = 3: events 3a, 3a+1 read row a, event 3a+2 row 3+a.
        table = np.stack([rng.permutation(40) for _ in range(6)]).astype(np.int32)
        events = rng.integers(0, 9, size=3000, dtype=np.uint8)
        state, expected = 17, []
        for event in events.tolist():
            state = int(table[event // 3 + 3 * (event % 3 == 2), state])
            expected.append(state)
        assert _trajectory(table, 17, events).tolist() == expected

    def test_memory_does_not_grow_with_samples(self, states):
        def peak(samples):
            tracemalloc.start()
            try:
                monte_carlo_crosscheck(4, samples, seed=1, ground_state=states[4])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # fills the memoised basis, orbits and codes of L = 4
        one_chunk = _CHUNK_BLOCKS * _BLOCK_STEPS * 4  # a chunk's states at 4 bytes each
        assert peak(3_000_000) <= peak(300_000) + one_chunk

    @pytest.mark.parametrize(
        "length, samples, seed, burn_in",
        [
            (2, 1000, 0, None),
            (4, 100_000, 3, 0),
            (5, 12_345, 42, None),
            (6, 50_050, 9, 0),
            (7, 40_000, 1, 17),
            (8, 33_333, 5, None),
            (9, 20_000, 2, None),
            # Trajectory chunks hold 262,144 steps. Burn-in ends inside a
            # block of the first chunk and a batch straddles its end; burn-in
            # ends inside a block of the second chunk; the benchmark's run.
            (5, 300_000, 4, 262_000),
            (6, 200_000, 8, 300_000),
            (8, 1_000_000, 1, None),
        ],
    )
    def test_matches_per_step_oracle(self, states, length, samples, seed, burn_in):
        state = states[length] if length in states else groundstate(length)
        report = monte_carlo_crosscheck(length, samples, seed, burn_in, ground_state=state)
        oracle = monte_carlo_per_step(shared_basis(length), shared_orbits(length), state,
                                      samples, seed, burn_in)
        assert report == oracle

    @pytest.mark.parametrize("length, samples, seed, digest", [
        (4, 100_000, 3, "5a9991ca7c3c0dfe97f28c555a18796c13c8f28a236878ace11c611088f57482"),
        (8, 1_000_000, 1, "719e57112c186d95e22d11cdba21dd618f0b2006ccfca5719cb3a3894a7638fc"),
        (13, 200_000, 7, "255b6c7dc579f43b73a2c038a35a5c5b8f12d2f5549d4343dea918f66177bdb7"),
    ])
    def test_simulate_stdout_is_pinned(self, length, samples, seed, digest, capsys, tmp_path):
        # The SHA-256 of three seeded tables: the event stream, the path, the
        # visit counts and the report's float arithmetic must not move. These
        # batch means print the same under the left-to-right float sum of
        # Python 3.10 and 3.11 and the compensated one of 3.12 and 3.13.
        code = main(["simulate", "--length", str(length), "--samples", str(samples),
                     "--seed", str(seed), "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("length, samples, seed, digest", [
        (4, 100_000, 3, "6633ad173e20bff7529cb8a3c0b4c240537ee9d0625790574797b22d0ab0589c"),
        (8, 1_000_000, 1, "a7dd70eb37a78abd1ed38f39150b931f4bbb07a8106f1c19f4d203fbca616b99"),
        (13, 200_000, 7, "f7e2d954920f8a23a20fda7fc2896e31ebf07a93ddb6ea9f768e8b3c4340b301"),
    ])
    def test_visit_totals_are_pinned(self, length, samples, seed, digest):
        # The visits per orbit behind the three pinned tables above, as integers:
        # round(empirical * samples) is exact under the plain and the compensated
        # float sum alike (each is within 1e-9 of an integer), so this pin
        # holds on every Python version.
        report = monte_carlo_crosscheck(length, samples, seed)
        totals = [round(e.empirical * report.samples) for e in report.estimates]
        assert sum(totals) == samples
        assert hashlib.sha256(",".join(map(str, totals)).encode()).hexdigest() == digest

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            monte_carlo_crosscheck(1, 1000, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_crosscheck(4, 10, seed=0)

    def test_rejects_negative_burn_in_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")

        for name in ("shared_basis", "shared_orbits", "transition_table", "groundstate"):
            monkeypatch.setattr(checks_module, name, no_work)
        with pytest.raises(ValueError, match=r"^burn_in must be >= 0, got -5$"):
            monte_carlo_crosscheck(4, 1000, seed=0, burn_in=-5)

    def test_cli_rejects_negative_burn_in(self, tmp_path, capsys):
        code = main(["simulate", "--length", "4", "--samples", "1000", "--burn-in", "-5",
                     "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        # A usage error, refused by the parser; the library's own check is above.
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith("error: argument --burn-in: must be at least 0, got -5\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("length, other", [(3, 2), (8, 6)])
    def test_rejects_ground_state_of_another_length(self, length, other):
        # The L = 2 state would give L = 3 wrong frequencies without an
        # error; the L = 6 state would index past its weights at L = 8.
        with pytest.raises(ValueError, match=f"length {other} given for length {length}"):
            monte_carlo_crosscheck(length, 1000, seed=0, ground_state=groundstate(other))
