"""Permutations of {0, ..., n-1} as tuples of images.

Composition convention used everywhere in this package:

    compose(p, q)(x) == p(q(x))

so in a product the right factor acts first, and a cycle (c0 c1 ... ck)
maps each c_i to c_{i+1}.

A permutation given by its images enters by one check, `door`, whose
refusals groups.closure and clifford._door re-raise as their own errors.
"""
from __future__ import annotations

from . import _as_int, _ints, _quote

Perm = tuple[int, ...]

# Largest degree accepted, checked before the image list is allocated (a
# parsed permutation is sized by its largest point).  A transitive group
# has order at least its degree, so this equals groups.CLOSURE_CAP.
DEGREE_CAP = 2048


def _check_degree(n: int) -> None:
    if not (_ints((n,)) and 0 <= n <= DEGREE_CAP):
        raise ValueError(f"degree {_quote(n)} is outside 0..DEGREE_CAP = {DEGREE_CAP}")


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_perm(p) -> bool:
    return isinstance(p, tuple) and _ints(p) and sorted(p) == list(range(len(p)))


def door(ps, cap: tuple[str, int], n: int | None = None, what: str = "degree") -> list[Perm]:
    """ps on n points, as tuples padded with fixed points.  Each p must be
    a tuple or list of int images forming a permutation of 0..len(p) - 1.
    Before an image is read, a given n (checked by the caller) bounds each
    len(p), or else n, the largest len(p), is bounded by cap = (name,
    value).  A refusal is a ValueError naming n as `what`."""
    for p in ps:
        if not isinstance(p, (tuple, list)):
            raise ValueError(f"not a permutation: {_quote(p)}")
    if n is None and (n := max(map(len, ps), default=0)) > cap[1]:
        raise ValueError(f"{what} {n} exceeds {cap[0]} = {cap[1]}")
    for p in ps:
        if len(p) > n:
            raise ValueError(f"permutation degree exceeds {what}")
        if not is_perm(tuple(p)):
            raise ValueError(f"not a permutation: {_quote(p)}")
    return [tuple(p) + tuple(range(len(p), n)) for p in ps]


def compose(p: Perm, q: Perm) -> Perm:
    """Return p after q, i.e. x -> p(q(x))."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(map(p.__getitem__, q))


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its minimum moved point,
    sorted by that minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def from_cycles(n: int, cycs) -> Perm:
    _check_degree(n)
    images = list(range(n))
    seen = set()  # no point in two cycles, so no image is overwritten
    for cyc in cycs:
        if not _ints(cyc) or len(set(cyc)) != len(cyc):
            raise ValueError(f"repeated or non-int point in cycle {_quote(cyc)}")
        for i, c in enumerate(cyc):
            if not 0 <= c < n:
                raise ValueError(f"point {_quote(c)} out of range 0..{n - 1}")
            if c in seen:
                raise ValueError(f"point {_quote(c)} appears in two cycles")
            seen.add(c)
            images[c] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def signature(p: Perm) -> int:
    """+1 for even permutations, -1 for odd."""
    return -1 if sum(len(c) - 1 for c in cycles(p)) % 2 else 1


def parse_cycle_string(text: str) -> Perm:
    """Parse cycle notation like "(0 1 2)(3 4)".  Points are 0-based and
    space-separated, and the degree is 1 + max point, so the identity is
    written as a fixed point, "(0)"."""
    text = text.strip()
    if text == "()":
        raise ValueError("empty permutation: write the identity as a fixed point, such as (0)")
    try:
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError("no enclosing parentheses")
        cycs = [tuple(map(_as_int, chunk.replace(",", " ").split()))
                for chunk in text[1:-1].split(")(")]
    except ValueError:  # the parentheses, or a point that is no integer
        raise ValueError(f"malformed cycle string: {_quote(text)}") from None
    if not all(cycs):
        raise ValueError(f"empty cycle in {_quote(text)}")
    return from_cycles(1 + max(max(c) for c in cycs), cycs)
