"""Reference math for building inputs and checking outputs.

Written from the definitions and independent of traceforms, so that a
check built on it is a second route to the program's answer.
"""
from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# permutations and finite permutation groups


def perm_from_cycles(deg: int, cycles) -> tuple[int, ...]:
    img = list(range(deg))
    for cyc in cycles:
        for i, c in enumerate(cyc):
            img[c] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def compose(p, q) -> tuple[int, ...]:
    """x -> p(q(x))."""
    return tuple(p[x] for x in q)


def inverse(p) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def cycle_string(p) -> str:
    seen, out = set(), []
    for s in range(len(p)):
        if s in seen or p[s] == s:
            continue
        cyc, x = [s], p[s]
        seen.add(s)
        while x != s:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def closure(gens) -> frozenset:
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def group_facts(gens) -> dict:
    """Order, number of involutions, and dim Hom(G, Z/2), the last from
    the order of G / <squares, commutators>."""
    G = closure(gens)
    ident = tuple(range(len(gens[0])))
    sub = {compose(g, g) for g in G}
    sub |= {compose(compose(g, h), compose(inverse(g), inverse(h)))
            for g in G for h in G}
    N = closure(sorted(sub)) if sub != {ident} else {ident}
    index = len(G) // len(N)
    return {"order": len(G),
            "involutions": sum(1 for g in G if g != ident and compose(g, g) == ident),
            "hom_dim": index.bit_length() - 1}


# ---------------------------------------------------------------------------
# integer polynomials (monic, leading coefficient first)


def power_sums(coeffs, count: int) -> list[int]:
    """Newton's identities: p_k = sum of k-th powers of the roots."""
    d = len(coeffs) - 1
    e = [(-1) ** i * coeffs[i] for i in range(d + 1)]
    ps = [d]
    for k in range(1, count):
        acc = sum((-1) ** (i - 1) * e[i] * ps[k - i] for i in range(1, min(k - 1, d) + 1))
        if k <= d:
            acc += (-1) ** (k - 1) * k * e[k]
        ps.append(acc)
    return ps


def det(m) -> int:
    """Exact determinant of an integer matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n, out = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return int(out)


def poly_disc(coeffs) -> int:
    """Discriminant of the monic f: the determinant of its trace form."""
    d = len(coeffs) - 1
    ps = power_sums(coeffs, 2 * d - 1)
    return det([[ps[i + j] for j in range(d)] for i in range(d)])


def _rem(a: list, b: list) -> list:
    a = a[:]
    while len(a) >= len(b):
        f = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _sign_changes(seq, at_plus_inf: bool) -> int:
    signs = []
    for p in seq:
        deg = len(p) - 1
        s = (1 if p[0] > 0 else -1) * (1 if at_plus_inf or deg % 2 == 0 else -1)
        signs.append(s)
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def real_roots(coeffs) -> int:
    """Number of distinct real roots, by a Sturm sequence over Q."""
    d = len(coeffs) - 1
    p0 = [Fraction(c) for c in coeffs]
    p1 = [Fraction((d - i) * c) for i, c in enumerate(coeffs[:-1])]
    seq = [p0, p1]
    while len(seq[-1]) > 1:
        r = _rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return _sign_changes(seq, False) - _sign_changes(seq, True)


# ---------------------------------------------------------------------------
# square classes and the symbol (d, d) = (d, -1), for small integers


def small_factor(n: int) -> dict[int, int]:
    n, out, p = abs(n), {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree(n: int) -> int:
    out = 1
    for p, e in small_factor(n).items():
        if e % 2:
            out *= p
    return out if n > 0 else -out


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def cup_self(d: int) -> set:
    """Places where the Hilbert symbol (d, d) = (d, -1) is -1, for a
    squarefree d: inf when d < 0, 2 when the odd part of d is 3 mod 4,
    and the odd primes dividing d that are 3 mod 4."""
    out = {"inf"} if d < 0 else set()
    u = d // 2 if d % 2 == 0 else d
    if u % 4 == 3:
        out.add(2)
    out |= {p for p in small_factor(d) if p % 2 and p % 4 == 3}
    return out


def sw_repeat(rank: int, disc: int, places: set, sig: tuple, m: int) -> dict:
    """Invariants of the m-fold orthogonal sum from those of one copy."""
    places = set(places) if m % 2 else set()
    if (m * (m - 1) // 2) % 2:
        places ^= cup_self(disc)
    return {"rank": m * rank, "disc": disc if m % 2 else 1,
            "places": places, "signature": [m * sig[0], m * sig[1]]}
