import hashlib
import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from brauerloop import (
    REFERENCE,
    PartialPermutation,
    Permutation,
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
from brauerloop.checks import _DRAW_WORDS, _event_rows, _uniform_draws
from brauerloop.cli import main
from brauerloop.diagrams import (
    ChordDiagram,
    partial_permutation_label,
    permutation_label,
    representative_codes,
    shared_basis,
    shared_orbit_labels,
    shared_orbits,
)
from brauerloop.generators import apply_braid, apply_monoid, transition_table

from conftest import monte_carlo_per_step, settle
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
        assert table == {Permutation((1, 2)): 1, Permutation((2, 1)): 3}

    def test_l8_degree_of_2431(self, states):
        table = permutation_weight_table(states[8])
        assert table[Permutation((2, 4, 3, 1))] == 173

    def test_l5_partial_table(self, states):
        table = permutation_weight_table(states[5])
        assert table[PartialPermutation((2, None, 1))] == 7
        assert table[PartialPermutation((2, 1, None))] == 3
        assert table[PartialPermutation((1, None, 2))] == 1
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
            for m in orbits.members_of(k).tolist():
                found = label(basis[m])
                if found is not None:
                    expected[found] = k + 1
        table = permutation_weight_table(numbered_state(length))
        assert list(table.items()) == list(expected.items())

    def test_unknown_representative_rejected(self):
        state = numbered_state(6)
        with pytest.raises(ValueError, match="do not match"):
            permutation_weight_table(GroundState(6, state.weights[1:]))

    @pytest.mark.parametrize("length", [9, 10])
    def test_builds_no_diagram_per_basis_row(self, length, monkeypatch, tmp_path):
        # From cold shared caches through the solve and the cache file to the
        # table: no ChordDiagram at all, neither per basis row nor per orbit.
        for memo in (shared_basis, shared_orbits, representative_codes):
            memo.cache_clear()
        built = []
        original = ChordDiagram.__post_init__

        def counting(self):
            built.append(self.partner)
            original(self)

        monkeypatch.setattr(ChordDiagram, "__post_init__", counting)
        table = permutation_weight_table(groundstate(length, cache_dir=tmp_path))
        assert len(table) == math.factorial(length // 2 + length % 2)
        assert built == []

    def test_warm_groundstate_and_verify_decode_each_payload_once(self, tmp_path, monkeypatch,
                                                                   capsys):
        # A cache built earlier: loading L = 13 and then verifying L = 2..13
        # decodes each file once and builds no ChordDiagram.
        for length in range(2, 14):
            groundstate(length, cache_dir=tmp_path)
        for path in tmp_path.iterdir():
            settle(path)
        for memo in (kernel_module._memoised_read, shared_basis, shared_orbits,
                     representative_codes, shared_orbit_labels):
            memo.cache_clear()
        built = []
        original = ChordDiagram.__post_init__

        def counting(self):
            built.append(self.partner)
            original(self)

        decoded = []
        original_decode = kernel_module.deserialize_groundstate

        def counting_decode(text, length):
            decoded.append(length)
            return original_decode(text, length)

        monkeypatch.setattr(ChordDiagram, "__post_init__", counting)
        monkeypatch.setattr(kernel_module, "deserialize_groundstate", counting_decode)
        monkeypatch.setattr(kernel_module, "kernel_vector",
                            lambda *a, **k: pytest.fail("warm cache must not solve"))
        state = groundstate(13, cache_dir=tmp_path)
        assert main(["verify", "--max-length", "13", "--cache-dir", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert groundstate(13, cache_dir=tmp_path) is state
        assert sorted(decoded) == list(range(2, 14))
        assert built == []


class TestConcatenation:
    def test_two_permutations(self):
        assert concatenate_labels(
            Permutation((2, 1)), Permutation((2, 1))
        ) == Permutation((2, 1, 4, 3))

    def test_permutation_then_partial(self):
        lab = concatenate_labels(Permutation((1,)), PartialPermutation((None, 1)))
        assert lab == PartialPermutation((1, None, 2))

    def test_partial_then_permutation(self):
        lab = concatenate_labels(PartialPermutation((None, 1)), Permutation((1,)))
        assert lab == PartialPermutation((None, 1, 2))

    def test_two_partials_rejected(self):
        with pytest.raises(TypeError):
            concatenate_labels(
                PartialPermutation((None, 1)), PartialPermutation((None, 1))
            )


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
        assert table8[Permutation((2, 1, 4, 3))] == 9  # 3 * 3
        table6 = permutation_weight_table(states[6])
        assert table6[Permutation((2, 1, 3))] == 3  # 3 * 1
        result = verify_factorization(states)
        assert result.status == "PASS", result

    def test_degrees(self, states):
        assert verify_degrees(states).status == "PASS"

    def test_degrees_skip_without_data(self, states):
        assert verify_degrees({2: states[2]}).status == "SKIP"

    def test_check_result_json_shape(self, states):
        obj = verify_integrality(states[4]).to_json_obj()
        assert set(obj) == {"check", "L", "status", "details"}


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
        basis = shared_basis(length)
        expected = []
        for d in basis:
            row = []
            for i in range(1, length + 1):
                m = basis.index_of(apply_monoid(i, d))
                row.extend((m, m, basis.index_of(apply_braid(i, d))))
            expected.append(row)
        assert _event_rows(transition_table(basis)) == expected

    @pytest.mark.parametrize("length", range(2, 15))
    def test_bulk_draws_equal_randrange(self, length):
        events = 3 * length
        # Enough draws to cross at least two chunk boundaries.
        count = 2 * _DRAW_WORDS + 1000
        for seed in (0, 1, 2024):
            rng = random.Random(seed)
            expected = [rng.randrange(events) for _ in range(count)]
            draws = _uniform_draws(random.Random(seed), events)
            assert list(islice(draws, count)) == expected

    @pytest.mark.parametrize(
        "length, samples, seed, burn_in",
        [
            (2, 1000, 0, None),
            (4, 100_000, 3, 0),
            (5, 12_345, 42, None),
            (6, 50_050, 9, 0),
            (7, 40_000, 1, 17),
            (8, 33_333, 5, None),
        ],
    )
    def test_matches_per_step_oracle(self, states, length, samples, seed, burn_in):
        state = states[length]
        report = monte_carlo_crosscheck(length, samples, seed, burn_in, ground_state=state)
        oracle = monte_carlo_per_step(shared_basis(length), shared_orbits(length), state,
                                      samples, seed, burn_in)
        assert report == oracle

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            monte_carlo_crosscheck(1, 1000, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_crosscheck(4, 10, seed=0)

    @pytest.mark.parametrize("length, other", [(3, 2), (8, 6)])
    def test_rejects_ground_state_of_another_length(self, length, other):
        # The L = 2 state would give L = 3 wrong frequencies without an
        # error; the L = 6 state would index past its weights at L = 8.
        with pytest.raises(ValueError, match=f"length {other} given for length {length}"):
            monte_carlo_crosscheck(length, 1000, seed=0, ground_state=groundstate(other))
