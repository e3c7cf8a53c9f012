"""Independent brute-force cross-checks for the closed-form local
symbols: decide solubility of z^2 = a x^2 + b y^2 by bounded residue
searches whose sufficiency follows from Hensel lifting bounds.  Slower
than the closed forms but derived from the definition, so the two can
be compared on random inputs.
"""
from __future__ import annotations

import functools

from .quadratic import INF, QuadraticError, check_place, squarefree_part

# Largest place the oracle searches.  At an odd prime p it tabulates the
# squares mod p^3 and walks half of the residues, so p is bounded before
# the table is built: 47, the largest place of the verify battery, has
# 50,831 squares mod p^3, and a p near 10^6 would ask for 10^18.
ORACLE_PLACE_CAP = 50

# Odd p, squarefree a and b.  A solution of z^2 = a x^2 + b y^2 over the
# p-adics can be scaled primitive; then either x is a unit (normalize
# x = 1) or p | x and y is a unit (normalize y = 1, x = p x').  In both
# cases the quantity that must be a square has p-valuation at most 2
# (squarefree coefficients), so its residue mod p^3 certifies: t mod p^3
# is a nonzero square residue iff t is a p-adic square, and a vanishing
# residue can always be avoided by perturbing the free variable mod p^3.
# For p = 2 the same scheme runs mod 64: a primitive solution mod 64
# Hensel-lifts through whichever coordinate is odd (the derivative there
# has 2-valuation at most 2, and 64 = 2^6 clears the 2k+1 = 5 threshold),
# so solubility is exactly "a primitive solution exists mod 64".


@functools.lru_cache(maxsize=None)
def _squares_mod(m: int) -> frozenset:
    return frozenset((w * w) % m for w in range(m))


@functools.lru_cache(maxsize=None)
def _odd_squares_mod(m: int) -> frozenset:
    return frozenset((w * w) % m for w in range(1, m, 2))


def _solvable_odd_p(a: int, b: int, p: int) -> bool:
    p3 = p * p * p
    sq = _squares_mod(p3)
    # x a unit, scaled to 1: need a + b y^2 to be a p-adic square
    half = p3 // 2 + 1
    for y in range(half):  # a + b y^2 is even in y mod p^3
        t = (a + b * y * y) % p3
        if t != 0 and t in sq:
            return True
    # p | x, y a unit scaled to 1: need a (p x')^2 + b square, x' mod p
    pp = p * p
    for x1 in range(p):
        t = (a * pp * x1 * x1 + b) % p3
        if t != 0 and t in sq:
            return True
    return False


def _solvable_2(a: int, b: int) -> bool:
    m = 64
    sq_all = _squares_mod(m)
    sq_odd = _odd_squares_mod(m)
    for x in range(m):
        ax2 = a * x * x
        for y in range(m):
            t = (ax2 + b * y * y) % m
            if t in sq_odd:
                return True  # a solution with z odd
            if (x & 1 or y & 1) and t in sq_all:
                return True  # a solution with x or y odd
    return False


@functools.lru_cache(maxsize=None)
def _oracle_cached(a: int, b: int, v) -> int:
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    if v == 2:
        return 1 if _solvable_2(a, b) else -1
    return 1 if _solvable_odd_p(a, b, v) else -1


def hilbert_symbol_oracle(a, b, v) -> int:
    """Hilbert symbol at v by brute-force solubility search."""
    check_place(v)
    if v != INF and v > ORACLE_PLACE_CAP:
        raise QuadraticError(f"place {v} exceeds ORACLE_PLACE_CAP = "
                             f"{ORACLE_PLACE_CAP}")
    a, b = sorted((squarefree_part(a), squarefree_part(b)))  # the symbol is symmetric
    return _oracle_cached(a, b, v)
