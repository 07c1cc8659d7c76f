"""
Closed-form count of dihedral classes of chord diagrams on 2n sites.

All functions are pure, exact integer arithmetic. The class count is a
Burnside-style average over the dihedral group: a divisor sum of pairings
fixed by each rotation, plus two reflection terms, divided by 4n. The
double-factorial convention (-1)!! = 0!! = 1 makes the empty products in the
rotation terms come out right.
"""

from __future__ import annotations

__all__ = ["NonIntegerError", "OddProductError", "class_count", "double_factorial",
           "euler_totient", "involution_term", "pairings_fixed_by_rotation"]

from math import comb, factorial


class OddProductError(ValueError):
    """Both cycle parameters odd: no pairing can be fixed by such a rotation."""


class NonIntegerError(ArithmeticError):
    """The class-count formula failed to produce an integer (implementation bug)."""


def double_factorial(k: int) -> int:
    """k!! with the empty-product convention (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError(f"double factorial needs k >= -1, got {k}")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def euler_totient(q: int) -> int:
    """Count of residues coprime to q, by trial-division factorisation."""
    if q < 1:
        raise ValueError(f"totient needs q >= 1, got {q}")
    result = q
    m = q
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def involution_term(n: int) -> int:
    """Reflection-term sum n!/((n-2k)! k!) over k = 0..floor(n/2)."""
    if n < 0:
        raise ValueError(f"needs n >= 0, got {n}")
    return sum(factorial(n) // (factorial(n - 2 * k) * factorial(k)) for k in range(n // 2 + 1))


def pairings_fixed_by_rotation(p: int, q: int) -> int:
    """Pairings of p*q circle points fixed by the rotation with p cycles of length q."""
    if p < 1 or q < 1:
        raise ValueError("cycle parameters must be positive")
    if p % 2 and q % 2:
        raise OddProductError(f"p = {p} and q = {q} are both odd; p*q must be even")
    if q % 2 == 0:
        return sum(
            comb(p, 2 * k) * q**k * double_factorial(2 * k - 1) for k in range(p // 2 + 1)
        )
    return q ** (p // 2) * double_factorial(p - 1)


def class_count(n: int) -> int:
    """Number of dihedral classes of chord diagrams on 2n sites."""
    if n < 1:
        raise ValueError(f"class count needs n >= 1, got {n}")
    m = 2 * n
    rotation_sum = sum(
        pairings_fixed_by_rotation(p, m // p) * euler_totient(m // p)
        for p in range(1, m + 1)
        if m % p == 0
    )
    numerator = rotation_sum + n * (involution_term(n) + involution_term(n - 1))
    if numerator % (4 * n):
        raise NonIntegerError(f"class-count numerator {numerator} is not divisible by {4 * n}")
    return numerator // (4 * n)
