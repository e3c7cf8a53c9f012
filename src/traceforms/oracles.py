"""Independent brute-force cross-checks for the closed-form local
symbols: decide solubility of z^2 = a x^2 + b y^2 by bounded residue
searches whose sufficiency follows from Hensel lifting bounds.  Slower
than the closed forms but derived from the definition, so the two can
be compared on random inputs.
"""
from __future__ import annotations

import functools

from . import quadratic

# Largest place the oracle searches.  At an odd prime p it tabulates the
# squares mod p^3, one byte per residue, and walks half of the residues,
# so one symbol costs about p^3/2 steps and a p^3-byte table.  p is
# bounded before the table is built: at 47, the largest place of the
# verify battery, that is 51,912 steps and 103,823 bytes, and a p near
# 10^6 would ask for 10^18 of each.
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
def _squares_mod(m: int) -> bytes:
    """1 at each square residue mod m and 0 elsewhere; w and m - w have
    the same square, so w runs up to m/2."""
    table = bytearray(m)
    for w in range(m // 2 + 1):
        table[w * w % m] = 1
    return bytes(table)


def _solvable_odd_p(a: int, b: int, p: int) -> bool:
    p3 = p * p * p
    sq = _squares_mod(p3)
    # x a unit, scaled to 1: need a + b y^2 to be a p-adic square
    half = p3 // 2 + 1
    for y in range(half):  # a + b y^2 is even in y mod p^3
        t = (a + b * y * y) % p3
        if t and sq[t]:
            return True
    # p | x, y a unit scaled to 1: need a (p x')^2 + b square, x' mod p
    pp = p * p
    for x1 in range(p):
        t = (a * pp * x1 * x1 + b) % p3
        if t and sq[t]:
            return True
    return False


def _solvable_2(a: int, b: int) -> bool:
    sq = _squares_mod(64)
    # a x^2 + b y^2 mod 64 depends on x and y only through r = x^2 and
    # s = y^2 mod 64, twelve residues each, and r is odd exactly when x is
    squares = [r for r in range(64) if sq[r]]
    for r in squares:
        for s in squares:
            t = (a * r + b * s) % 64
            if sq[t] and (t | r | s) & 1:
                return True  # a solution with z, x or y odd
    return False


def hilbert_symbol_oracle(a, b, v) -> int:
    """Hilbert symbol at v by brute-force solubility search."""
    quadratic.check_place(v)
    if v != quadratic.INF and v > ORACLE_PLACE_CAP:
        raise quadratic.QuadraticError(f"place {v} exceeds ORACLE_PLACE_CAP = "
                                       f"{ORACLE_PLACE_CAP}")
    a, b = quadratic.square_class(a).d, quadratic.square_class(b).d
    if v == quadratic.INF:
        return -1 if (a < 0 and b < 0) else 1
    if v == 2:
        return 1 if _solvable_2(a, b) else -1
    return 1 if _solvable_odd_p(a, b, v) else -1
