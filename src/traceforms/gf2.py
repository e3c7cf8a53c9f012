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


def reduced_basis(vectors) -> list[int]:
    """The basis of the span of vectors that nullspace returns for it:
    one vector per lowest set bit j occurring in the span, with no other
    such bit set, in increasing j.  That is nullspace's basis vector for
    free column j (x_j = 1, the other free entries 0, only pivots above
    j set), so nullspace(rows, n) == reduced_basis(nullspace(rows, n))
    and the result depends only on the span."""
    low: dict[int, int] = {}  # lowest set bit -> vector
    for v in vectors:
        while v:
            j = (v & -v).bit_length() - 1
            if j not in low:
                low[j] = v
                break
            v ^= low[j]
    basis: dict[int, int] = {}
    # from the highest j down: basis[k], k > j, is already zero at every
    # other key, so clearing bit k of v changes no other key's bit
    for j in sorted(low, reverse=True):
        v = low[j]
        for k, w in basis.items():
            if (v >> k) & 1:
                v ^= w
        basis[j] = v
    return [basis[j] for j in sorted(basis)]


def transpose(rows, ncols: int) -> list[int]:
    """Columns of the bit matrix whose rows (each below 2^ncols) are
    given: bit i of column j is bit j of rows[i].  Done by slicing one
    binary string with stride, not bit by bit: a leading 1 above bit
    ncols-1 gives every row the same width, "0b1" and ncols digits."""
    top = 1 << ncols
    text = "".join(map(bin, [r | top for r in reversed(rows)]))
    step = ncols + 3
    return [int(text[step - 1 - j::step] or "0", 2) for j in range(ncols)]
