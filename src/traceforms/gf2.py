"""Linear algebra over GF(2) with rows packed into Python ints.

A row vector is an int whose bit j is the entry in column j.  Echelon
structures are dicts mapping a pivot column to the (forward reduced) row
whose highest set bit is that column.
"""
from __future__ import annotations

import bisect


def echelon_insert(pivots: dict[int, int], v: int) -> int | None:
    """Reduce v against pivots and insert the remainder if nonzero.
    Returns the new pivot column, or None if v was in the span."""
    while v:
        c = v.bit_length() - 1
        if c in pivots:
            v ^= pivots[c]
        else:
            pivots[c] = v
            return c
    return None


def row_space_pivots(rows) -> dict[int, int]:
    pivots: dict[int, int] = {}
    for r in rows:
        echelon_insert(pivots, r)
    return pivots


def nullspace(rows, ncols: int) -> list[int]:
    """Basis of {x : parity(r & x) == 0 for every row r}.

    Basis vector j, for each free (non-pivot) column j in increasing
    order, is the unique solution with x_j = 1 and every other free entry
    0, so the basis depends only on the solution space.  It is
    back-solved from the forward echelon form: the row with pivot c
    fixes x_c from the entries below c, and every pivot entry below j is
    0, so only pivots above j are visited, in increasing order."""
    pivots = row_space_pivots(rows)
    order = sorted(pivots)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        x = 1 << j
        for c in order[bisect.bisect_right(order, j):]:
            if (pivots[c] & x).bit_count() & 1:
                x |= 1 << c
        basis.append(x)
    return basis
