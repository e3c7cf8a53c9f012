"""Nondegenerate diagonal quadratic forms over Q and their arithmetic
invariants: signature, square-class discriminant, and the degree-2
invariant assembled from Hilbert symbols (recorded as the finite set of
places where the relevant symbol is -1).

Rank, signature, discriminant and that place set classify forms over Q
up to isometry, which is how `is_isometric_q` decides equivalence.

Each value is factored once, by `_square_class`, the only caller of
`factorint`: a fraction's coprime numerator and denominator separately,
by trial division by the twelve Miller-Rabin bases (no sieve), then
Miller-Rabin and Pollard rho.  Everything after that works on squarefree
integers with known primes; `w2` evaluates each pair of entries only at
INF, 2 and the primes of those two entries.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

INF = "inf"  # the archimedean place, alongside prime numbers


class QuadraticError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer factorization (trial division by the Miller-Rabin bases, then
# Miller-Rabin + Pollard rho)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest bound for which the fixed Miller-Rabin bases above are a proven
# deterministic primality test (Sorenson-Webster).
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise QuadraticError("factorint needs a positive integer")
    out: dict[int, int] = {}
    for p in _MR_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            if m >= _MR_PROVEN_BOUND:
                raise QuadraticError(
                    f"cannot certify primality of {m} (above the "
                    f"deterministic Miller-Rabin bound)")
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return out


def _square_class(x) -> tuple[int, frozenset]:
    """The squarefree integer representing the square class of x, and the
    set of its primes.  The numerator and denominator of a Fraction are
    coprime, so each is factored on its own."""
    if isinstance(x, Fraction):
        parts = (abs(x.numerator), x.denominator)
    elif isinstance(x, int):
        parts = (abs(x),)
    else:
        raise QuadraticError(f"cannot reduce {type(x).__name__} to a square class")
    if x == 0:
        raise QuadraticError("zero has no square class")
    primes = frozenset(p for n in parts if n > 1
                       for p, e in factorint(n).items() if e % 2)
    return (-1 if x < 0 else 1) * math.prod(primes), primes


def squarefree_part(x) -> int:
    """The squarefree integer representing the square class of x."""
    return _square_class(x)[0]


def sqclass_mul(a: int, b: int) -> int:
    """Product of square classes of squarefree integers, kept squarefree."""
    g = math.gcd(a, b)
    return (a // g) * (b // g)


# ---------------------------------------------------------------------------
# Hilbert symbols and two-variable cup sets


def _nonresidue(u: int, p: int) -> bool:
    return pow(u, (p - 1) // 2, p) == p - 1


def _hilbert(a: int, b: int, v) -> int:
    """(a, b)_v for squarefree a, b at INF or a prime v, by the closed
    formulas: a squarefree argument has valuation 0 or 1 at v, and its
    unit part is itself or its quotient by v."""
    if v == INF:
        return -1 if (a < 0 and b < 0) else 1
    alpha, beta = a % v == 0, b % v == 0
    u = a // v if alpha else a
    w = b // v if beta else b
    if v == 2:
        e = ((u % 4 == 3 and w % 4 == 3) ^ (alpha and w % 8 in (3, 5))
             ^ (beta and u % 8 in (3, 5)))
    else:
        e = ((alpha and beta and v % 4 == 3)
             ^ (beta and _nonresidue(u, v)) ^ (alpha and _nonresidue(w, v)))
    return -1 if e else 1


def hilbert_symbol(a, b, v) -> int:
    """Hilbert symbol (a, b) at the place v (a prime or INF), by the
    closed formulas: at INF it is -1 iff both arguments are negative;
    at odd p and at 2 it is read off valuations and residues."""
    a = squarefree_part(a)
    b = squarefree_part(b)
    if v != INF:
        if not isinstance(v, int) or v < 2:
            raise QuadraticError(f"not a place: {v!r}")
        if v != 2 and not is_probable_prime(v):
            raise QuadraticError(f"place {v} is not prime")
    return _hilbert(a, b, v)


# Bound on the cup cache; its keys are pairs of squarefree integers.
CUP_CACHE_SIZE = 1024


def _cup_at(a: int, b: int, places) -> frozenset:
    """Places where (a, b) is -1, for squarefree a, b and a place set
    holding INF, 2 and every prime of a and b (elsewhere the symbol is 1).
    Always of even size by the product formula, which is asserted."""
    out = frozenset(v for v in places if _hilbert(a, b, v) == -1)
    if len(out) % 2:
        raise QuadraticError(f"odd number of places in cup({a}, {b}); "
                             "this breaks product-formula reciprocity")
    return out


@functools.lru_cache(maxsize=CUP_CACHE_SIZE)
def _cup_cached(a: int, b: int) -> frozenset:
    return _cup_at(a, b, {INF, 2} | _square_class(a)[1] | _square_class(b)[1])


def cup(a, b) -> frozenset:
    """Set of places where the Hilbert symbol of (a, b) is -1.  Always of
    even size by the product formula, which is asserted."""
    return _cup_cached(squarefree_part(a), squarefree_part(b))


def place_sort_key(v):
    return (1, 0) if v == INF else (0, v)


# ---------------------------------------------------------------------------
# diagonal forms


@dataclass(frozen=True)
class QForm:
    """Nondegenerate diagonal quadratic form <a_1, ..., a_n> over Q."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        ent = tuple(Fraction(a) for a in self.entries)
        if any(a == 0 for a in ent):
            raise QuadraticError("diagonal entries must be nonzero")
        object.__setattr__(self, "entries", ent)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __repr__(self):
        return "<" + ", ".join(str(a) for a in self.entries) + ">"


def direct_sum(*forms: QForm) -> QForm:
    ent: tuple[Fraction, ...] = ()
    for q in forms:
        ent += q.entries
    return QForm(ent)


def tensor(q1: QForm, q2: QForm) -> QForm:
    return QForm(tuple(a * b for a in q1.entries for b in q2.entries))


def scale(a, q: QForm) -> QForm:
    a = Fraction(a)
    if a == 0:
        raise QuadraticError("cannot scale a form by zero")
    return QForm(tuple(a * x for x in q.entries))


def repeat(q: QForm, m: int) -> QForm:
    if m < 1:
        raise QuadraticError("need at least one copy")
    return QForm(q.entries * m)


def signature(q: QForm) -> tuple[int, int]:
    pos = sum(1 for a in q.entries if a > 0)
    return pos, q.rank - pos


def w1(q: QForm) -> int:
    """Square class of the product of the diagonal entries (squarefree)."""
    out = 1
    for a in q.entries:
        out = sqclass_mul(out, squarefree_part(a))
    return out


def w2(q: QForm) -> frozenset:
    """Symmetric difference of cup(a_i, a_j) over pairs i < j.  Each entry
    is factored once; a pair is evaluated at INF, 2 and its two entries'
    primes, the only places where its symbol can be -1."""
    classes = [_square_class(a) for a in q.entries]
    out: frozenset = frozenset()
    for i, (a, pa) in enumerate(classes):
        for b, pb in classes[i + 1:]:
            out ^= _cup_at(a, b, {INF, 2} | pa | pb)
    return out


# ---------------------------------------------------------------------------
# rank/discriminant/place-set triples, and their algebra


@dataclass(frozen=True)
class TruncatedSW:
    """(rank, squarefree discriminant class, place set) of a form."""

    rank: int
    disc: int
    places: frozenset

    def __post_init__(self):
        if squarefree_part(self.disc) != self.disc:
            raise QuadraticError("disc must be a squarefree integer")


def sw_total(q: QForm) -> TruncatedSW:
    return TruncatedSW(q.rank, w1(q), w2(q))


def sw_direct_sum(s1: TruncatedSW, s2: TruncatedSW) -> TruncatedSW:
    return TruncatedSW(
        s1.rank + s2.rank,
        sqclass_mul(s1.disc, s2.disc),
        s1.places ^ s2.places ^ cup(s1.disc, s2.disc),
    )


def sw_scale(a, s: TruncatedSW) -> TruncatedSW:
    """Invariants of the scaled form a*q from those of q."""
    a = squarefree_part(a if isinstance(a, (int, Fraction)) else Fraction(a))
    n = s.rank
    disc = sqclass_mul(a, s.disc) if n % 2 else s.disc
    places = s.places
    if (n * (n - 1) // 2) % 2:
        places = places ^ cup(a, a)
    if (n - 1) % 2:
        places = places ^ cup(a, s.disc)
    return TruncatedSW(n, disc, places)


def sw_repeat(s: TruncatedSW, m: int) -> TruncatedSW:
    """Invariants of the m-fold orthogonal sum of a form from its own."""
    if m < 1:
        raise QuadraticError("need at least one copy")
    disc = s.disc if m % 2 else 1
    places = s.places if m % 2 else frozenset()
    if (m * (m - 1) // 2) % 2:
        places = places ^ cup(s.disc, s.disc)
    return TruncatedSW(m * s.rank, disc, places)


def is_isometric_q(q1: QForm, q2: QForm) -> bool:
    """Isometry over Q, decided by (rank, signature, disc, place set);
    these determine the form at every completion and hence globally."""
    return (q1.rank == q2.rank
            and signature(q1) == signature(q2)
            and w1(q1) == w1(q2)
            and w2(q1) == w2(q2))


# ---------------------------------------------------------------------------
# symmetric Gram matrices and diagonalization


def validate_gram(gram) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(Fraction(x) for x in row) for row in gram)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise QuadraticError("Gram matrix must be square")
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise QuadraticError("Gram matrix must be symmetric")
    return rows


def diagonalize(gram, rng=None) -> QForm:
    """Diagonal form congruent to the symmetric matrix (simultaneous
    symmetric row/column operations).  With rng, pivots are chosen at
    random among the usable ones; the isometry class never depends on
    the choice.  Raises on degenerate input."""
    m = [list(r) for r in validate_gram(gram)]
    n = len(m)
    diag = []
    for k in range(n):
        cands = [i for i in range(k, n) if m[i][i] != 0]
        if not cands:
            # all remaining diagonal entries vanish: mix in an off-diagonal
            pairs = [(i, j) for i in range(k, n) for j in range(k, n)
                     if i != j and m[i][j] != 0]
            if not pairs:
                raise QuadraticError("Gram matrix is degenerate")
            i, j = rng.choice(pairs) if rng is not None else pairs[0]
            # u_i <- u_i + u_j makes the (i,i) entry 2*m[i][j] != 0
            for t in range(n):
                m[i][t] += m[j][t]
            for t in range(n):
                m[t][i] += m[t][j]
            cands = [i]
        piv = rng.choice(cands) if rng is not None else cands[0]
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for t in range(n):
                m[t][k], m[t][piv] = m[t][piv], m[t][k]
        d = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / d
            if f:
                for t in range(n):
                    m[i][t] -= f * m[k][t]
                for t in range(n):
                    m[t][i] -= f * m[t][k]
        diag.append(d)
    return QForm(tuple(diag))
