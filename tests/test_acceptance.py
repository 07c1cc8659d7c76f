"""Acceptance suite: every criterion prints one PASS/FAIL line (run with -s to watch)."""

import time

import pytest

from brauerloop import (
    REFERENCE,
    Permutation,
    annihilates,
    build_full,
    check_relations,
    class_count,
    groundstate,
    kernel_vector,
    long_permutation_sequence,
    monte_carlo_crosscheck,
    normalize_integer,
    permutation_weight_table,
    verify_factorization,
    verify_integrality,
    verify_maximality,
    verify_sum_rule,
)
from brauerloop.diagrams import shared_basis, shared_orbits

L6_WEIGHT_SIZE = {(63, 2), (31, 3), (13, 6), (3, 3), (1, 1)}
# Every size divides 2L and the size-weighted counts sum to the basis sizes
# (15 and 105); the weight multisets are the published ground-state values.
L8_WEIGHT_SIZE = {
    (8297, 2), (3433, 8), (1491, 8), (1145, 4), (1043, 8), (707, 4),
    (483, 8), (317, 8), (209, 4), (173, 16), (71, 8), (51, 8),
    (31, 4), (13, 8), (9, 2), (3, 4), (1, 1),
}


def criterion(num, ok, desc):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


def clear_shared_caches():
    shared_basis.cache_clear()
    shared_orbits.cache_clear()


@pytest.fixture(scope="module")
def states():
    """Ground states for L = 2..12 computed cold, with the elapsed wall time."""
    clear_shared_caches()
    start = time.perf_counter()
    computed = {length: groundstate(length) for length in range(2, 13)}
    elapsed = time.perf_counter() - start
    return computed, elapsed


def weight_size_pairs(gs):
    return set(zip(gs.weights, gs.sizes))


def test_criterion_01_groundstate_l4():
    clear_shared_caches()
    start = time.perf_counter()
    gs = groundstate(4)
    elapsed = time.perf_counter() - start
    ok = (
        weight_size_pairs(gs) == {(3, 2), (1, 1)}
        and sorted(gs.expand(), reverse=True) == [3, 3, 1]
        and elapsed < 1.0
    )
    criterion(1, ok, f"L=4 weights (3,3,1) over orbit sizes (2,1) in {elapsed:.2f}s")


def test_criterion_02_groundstate_l5():
    clear_shared_caches()
    start = time.perf_counter()
    gs = groundstate(5)
    elapsed = time.perf_counter() - start
    ok = (
        sorted(gs.weights, reverse=True) == [7, 3, 1]
        and gs.sizes == (5, 5, 5)
        and elapsed < 1.0
    )
    criterion(2, ok, f"L=5 weights (7,3,1) over orbit sizes (5,5,5) in {elapsed:.2f}s")


def test_criterion_03_groundstate_l6_l8():
    clear_shared_caches()
    start = time.perf_counter()
    gs6 = groundstate(6)
    gs8 = groundstate(8)
    elapsed = time.perf_counter() - start
    ok = (
        weight_size_pairs(gs6) == L6_WEIGHT_SIZE
        and weight_size_pairs(gs8) == L8_WEIGHT_SIZE
        and elapsed < 5.0
    )
    criterion(3, ok, f"L=6 and L=8 weight/size tables match exactly in {elapsed:.2f}s")


def test_criterion_04_s3_degree_table(states):
    computed, _ = states
    table = permutation_weight_table(computed[6])
    ok = table == REFERENCE.s3_table()
    criterion(4, ok, "L=6 permutation weights equal the S3 degree table {1,3,3,13,13,31}")


def test_criterion_05_degree_of_2431(states):
    computed, _ = states
    weight = permutation_weight_table(computed[8])[Permutation((2, 4, 3, 1))]
    criterion(5, weight == 173, f"L=8 weight of (2431) is {weight}, expected 173")


def test_criterion_06_long_permutation_sequence(states):
    computed, elapsed = states
    values = long_permutation_sequence(6, computed)
    expected = list(REFERENCE.long_permutation_weights[:6])
    ok = values == expected and elapsed < 600.0
    criterion(
        6,
        ok,
        f"reversal weights n=1..6 are {values} (solves up to L=12 took {elapsed:.1f}s)",
    )


def test_criterion_07_sum_rules(states):
    computed, _ = states
    failures = []
    for n in range(2, 7):
        result = verify_sum_rule(computed[2 * n])
        if result.failed:
            failures.append(result)
    for length in (5, 7):
        result = verify_sum_rule(computed[length])
        if result.failed:
            failures.append(result)
    criterion(
        7,
        not failures,
        "sum rules: 2^(n^2-n) for n=2..6 and 2^(n^2) for L=5,7"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_08_conjectured_structure(states):
    computed, _ = states
    bad = [verify_integrality(gs) for gs in computed.values()]
    bad = [r for r in bad if r.failed]
    bad += [r for r in (verify_maximality(computed[length])
                        for length in range(2, 13, 2)) if r.failed]
    factor = verify_factorization(computed)
    if factor.failed:
        bad.append(factor)
    criterion(
        8,
        not bad,
        f"min-weight-1, factorization ({factor.details}), and maximality all hold"
        + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_09_relation_suite():
    failures = []
    for length in range(3, 11):
        report = check_relations(length, exhaustive=True)
        if not report.all_passed:
            failures.append(report.to_text())
    criterion(
        9,
        not failures,
        "all generator relations hold exhaustively for L=3..10"
        + (f"; {failures}" if failures else ""),
    )


def test_criterion_10_oracle_equivalence(states):
    computed, _ = states
    ok = True
    notes = []
    for length in range(2, 9):
        full = normalize_integer(kernel_vector(build_full(shared_basis(length))))
        if full != computed[length].expand():
            ok = False
            notes.append(f"full/reduced mismatch at L={length}")
    for length, gs in computed.items():
        basis = shared_basis(length)
        if not annihilates(basis, gs.expand()):
            ok = False
            notes.append(f"H*psi != 0 at L={length}")
    for length in (11, 12):
        build_full(shared_basis(length)).validate(shared_basis(length))
    criterion(
        10,
        ok,
        "full and reduced kernels agree (L<=8); H*psi=0 exact on the full basis (L<=12)"
        + (f"; {notes}" if notes else ""),
    )


def test_criterion_11_class_counts():
    enumerated = [len(shared_orbits(2 * n)) for n in range(1, 8)]
    formula = [class_count(n) for n in range(1, 8)]
    ok = formula == enumerated and tuple(formula[:5]) == REFERENCE.class_counts
    criterion(
        11,
        ok,
        f"class counts n=1..7 formula {formula} match enumeration {enumerated}",
    )


def test_criterion_12_monte_carlo(states):
    computed, _ = states
    first = monte_carlo_crosscheck(6, 1_000_000, seed=2024, ground_state=computed[6])
    second = monte_carlo_crosscheck(6, 1_000_000, seed=2024, ground_state=computed[6])
    ok = first.within(5.0) and first == second
    criterion(
        12,
        ok,
        f"L=6 Monte Carlo (1e6 steps): max |z| = {first.max_abs_z:.2f} < 5, "
        "deterministic under fixed seed",
    )


def test_stretch_sequence_n7():
    clear_shared_caches()
    start = time.perf_counter()
    gs = groundstate(14)
    table = permutation_weight_table(gs)
    value = table[Permutation.longest(7)]
    elapsed = time.perf_counter() - start
    criterion(0, value == 147226330175 and elapsed <= 10.0,
              f"stretch: n=7 reversal weight {value} at L=14 in {elapsed:.1f}s")
