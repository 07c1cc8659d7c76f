import math

import pytest

from brauerloop import (
    NonIntegerError,
    OddProductError,
    class_count,
    compute_orbits,
    double_factorial,
    enumerate_diagrams,
    euler_totient,
    involution_term,
    pairings_fixed_by_rotation,
)


class TestDoubleFactorial:
    def test_empty_product_convention(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1

    def test_small_values(self):
        assert double_factorial(5) == 15
        assert double_factorial(7) == 105

    def test_matches_l8_basis_size(self):
        assert double_factorial(7) == len(enumerate_diagrams(8))

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            double_factorial(-2)


class TestEulerTotient:
    def test_small_values(self):
        assert euler_totient(1) == 1
        assert euler_totient(4) == 2
        assert euler_totient(12) == 4

    @pytest.mark.parametrize("q", range(1, 60))
    def test_matches_coprime_count(self, q):
        assert euler_totient(q) == sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            euler_totient(0)


class TestInvolutionTerm:
    def test_printed_formula_values(self):
        assert involution_term(0) == 1
        assert involution_term(1) == 1
        assert involution_term(2) == 3  # 1 + 2!/(0! 1!)
        assert involution_term(3) == 7  # 1 + 3!/(1! 1!)

    @pytest.mark.parametrize("n", range(0, 12))
    def test_direct_evaluation(self, n):
        expected = sum(
            math.factorial(n) // (math.factorial(n - 2 * k) * math.factorial(k))
            for k in range(n // 2 + 1)
        )
        assert involution_term(n) == expected


class TestPairingsFixedByRotation:
    def test_small_values(self):
        assert pairings_fixed_by_rotation(2, 2) == 3
        assert pairings_fixed_by_rotation(3, 2) == 7
        assert pairings_fixed_by_rotation(6, 1) == 15

    def test_trivial_rotation_counts_all_pairings(self):
        # q = 1 fixes everything, so the count is the total number of pairings
        for n in range(1, 6):
            assert pairings_fixed_by_rotation(2 * n, 1) == double_factorial(2 * n - 1)

    def test_odd_odd_rejected(self):
        with pytest.raises(OddProductError):
            pairings_fixed_by_rotation(3, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pairings_fixed_by_rotation(0, 2)


class TestClassCount:
    def test_published_prefix(self):
        assert [class_count(n) for n in range(1, 6)] == [1, 2, 5, 17, 79]

    def test_n3_decomposition(self):
        # rotation sum over (p, q) in {(1,6),(2,3),(3,2),(6,1)} is 2+6+7+15 = 30,
        # then (30/3 + 7 + 3)/4 = 5
        rotation_sum = sum(
            pairings_fixed_by_rotation(p, 6 // p) * euler_totient(6 // p)
            for p in (1, 2, 3, 6)
        )
        assert rotation_sum == 30
        assert (rotation_sum // 3 + involution_term(3) + involution_term(2)) // 4 == 5
        assert class_count(3) == 5

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_orbit_enumeration(self, n):
        assert class_count(n) == len(compute_orbits(enumerate_diagrams(2 * n)))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            class_count(0)

    def test_non_integer_error_exists(self):
        # the formula is always integral for valid n; the guard is for bugs
        assert issubclass(NonIntegerError, ArithmeticError)
