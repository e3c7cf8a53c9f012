"""Nondegenerate diagonal quadratic forms over Q and their arithmetic
invariants: signature, square-class discriminant, and the degree-2
invariant assembled from Hilbert symbols (recorded as the finite set of
places where the relevant symbol is -1).

Rank, signature, discriminant and that place set classify forms over Q
up to isometry, which is how `is_isometric_q` decides equivalence.

Four decisions are each made by one function.  `_rational` is the only
code that reads a value, for every door and the command line: an int, a
Fraction or a string, its decimal exponent bounded by
sys.int_info.default_max_str_digits.  `square_class` is the only code
that factors one, calling `factorint` on the coprime numerator and
denominator separately: trial division by the thirteen Miller-Rabin bases
(no sieve), then Miller-Rabin and Pollard rho.
`is_probable_prime` is the one primality proof: it raises rather than
pass a probable prime beyond its proven range.  `check_place` decides
what a place is.  A value is factored once, where it enters, into a
square class (the squarefree integer and its primes) that is then held:
a `QForm` keeps its entries' and its disc's (a form built from others
takes theirs), a `TruncatedSW` its disc's, and a caller its own, since
each door that takes a value takes a class.
A product's class comes from its factors', unfactored.
"""
from __future__ import annotations

import functools
import math
import random
import re
import reprlib
import sys
from fractions import Fraction
from typing import NamedTuple

INF = "inf"  # the archimedean place, alongside prime numbers


class QuadraticError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer factorization (trial division by the Miller-Rabin bases, then
# Miller-Rabin + Pollard rho)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Bound below which the first thirteen prime bases, those above, are a
# proven deterministic primality test: psi_13, the least composite that
# is a strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86, 2017).  The first twelve fall short at psi_12 =
# 318,665,857,834,031,151,167,461 = 399,165,290,221 * 798,330,580,441.
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

# The bases are every prime below 43, so below 43^2 a number that none of
# them divides is prime by trial division alone.
_TRIAL_PROVEN_BOUND = 43 * 43


def is_probable_prime(n: int) -> bool:
    """Whether n is prime: by trial division by the fixed bases below
    _TRIAL_PROVEN_BOUND (43^2), then by Miller-Rabin with them below
    _MR_PROVEN_BOUND (3.3e24); a probable prime above it raises."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_PROVEN_BOUND:
        return True
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
    if n >= _MR_PROVEN_BOUND:
        raise QuadraticError(f"cannot certify primality of {n} (above the "
                             f"deterministic Miller-Rabin bound)")
    return True


# Steps y -> y^2 + c allowed in one Pollard rho call: enough for the cycle
# length 2^21 that two 12-digit primes can need, about 4 s at 31 digits
# on a 2-core Xeon.  A step on an n of b bits counts ceil(b/128) times,
# since its cost grows with b: a 99-digit n stops within the same time.
RHO_BUDGET = 1 << 23


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant),
    within RHO_BUDGET steps."""
    rng = random.Random(0xC0FFEE ^ n)
    steps = 0
    width = -(-n.bit_length() // 128)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            steps += 2 * r * width  # r steps to move x, at most r more to find g
            if steps > RHO_BUDGET:
                raise QuadraticError(f"cannot factor {n} within "
                                     f"RHO_BUDGET = {RHO_BUDGET} rho steps")
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
        if p * p > n:  # no prime below p divides n, so it is 1 or a prime
            if n > 1:
                out[n] = 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return out


class _SquareClass(NamedTuple):
    """The squarefree integer d representing a square class, and its primes."""
    d: int
    primes: frozenset


def square_class(x) -> _SquareClass:
    """The square class of x.  A class is returned as it is; any other x
    is read as `_rational` reads it (so a plain tuple is refused), and
    its numerator and denominator, coprime, are each factored on their
    own."""
    if isinstance(x, _SquareClass):
        return x
    x = _rational(x)
    num, den = x.numerator, x.denominator
    if not num:
        raise QuadraticError("zero has no square class")
    primes = frozenset(p for n in (abs(num), den) if n > 1
                       for p, e in factorint(n).items() if e % 2)
    return _SquareClass((-1 if num < 0 else 1) * math.prod(primes), primes)


def squarefree_part(x) -> int:
    """The squarefree integer representing the square class of x."""
    return square_class(x).d


def sqclass_mul(c1: _SquareClass, c2: _SquareClass) -> _SquareClass:
    """The class of a product, from its factors' classes, unfactored:
    d1*d2/gcd^2, with the primes of exactly one factor."""
    g = math.gcd(c1.d, c2.d)
    return _SquareClass(c1.d // g * (c2.d // g), c1.primes ^ c2.primes)


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


def check_place(v) -> None:
    """Refuse v unless it is a place: INF, or an int that
    `is_probable_prime` proves prime (a bool is not a place)."""
    if v != INF and (isinstance(v, bool) or not isinstance(v, int)
                     or not is_probable_prime(v)):
        raise QuadraticError(f"not a place: {v!r}")


def hilbert_symbol(a, b, v) -> int:
    """Hilbert symbol (a, b) at the place v (a prime or INF), by the
    closed formulas: at INF it is -1 iff both arguments are negative;
    at odd p and at 2 it is read off valuations and residues."""
    check_place(v)
    return _hilbert(squarefree_part(a), squarefree_part(b), v)


# Bound on the cup cache; its keys are pairs of square classes.  A
# computation reuses the pairs of its own forms: a perfbench `library`
# run (two rounds) fills 199.  Random forms mostly do not: `suite`'s
# diag_invariance battery takes 1,000 cups of 803 pairs, which a cache
# of 1024 kept, in 0.64 MB, to the end of the run.
CUP_CACHE_SIZE = 256


def _cup_at(a: int, pa: frozenset, b: int, pb: frozenset) -> frozenset:
    """Places where (a, b) is -1, for squarefree a, b with prime sets pa,
    pb: only INF, 2 and those primes can be such places.  Always of even
    size by the product formula, which is asserted."""
    out = frozenset(v for v in {INF, 2} | pa | pb if _hilbert(a, b, v) == -1)
    if len(out) % 2:
        raise QuadraticError(f"odd number of places in cup({a}, {b}); "
                             "this breaks product-formula reciprocity")
    return out


_cup_cached = functools.lru_cache(maxsize=CUP_CACHE_SIZE)(_cup_at)


def cup(a, b) -> frozenset:
    """Set of places where the Hilbert symbol of (a, b) is -1.  Always of
    even size by the product formula, which is asserted."""
    return _cup_cached(*square_class(a), *square_class(b))


def place_sort_key(v):
    return (1, 0) if v == INF else (0, v)


# ---------------------------------------------------------------------------
# diagonal forms


def _rational(x) -> Fraction:
    """x as a Fraction: an int, a Fraction or a string such as "1/10".  A
    float is refused, since its binary value (0.1 is 3602879701896397/2^55)
    is not the decimal it was written as; so are a bool and any other
    type, malformed text and a zero denominator.  A string's decimal
    exponent is held to the digit limit int() puts on an integer's text:
    1e100000 would be a 100,001-digit value for factorint.  An int, a
    Fraction and plain ASCII integer text ([+-]digits, which int() reads
    as Fraction() would, under the same digit limit) take the short way."""
    t = type(x)
    if t is Fraction:
        return x
    if t is int:
        return Fraction(x)
    if isinstance(x, str):
        limit = sys.int_info.default_max_str_digits
        try:
            if x.isascii() and (x[1:] if x[:1] in "+-" else x).isdigit():
                return Fraction(int(x))
            exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", x)
            if exp is None or abs(int(exp[1])) <= limit:
                return Fraction(x)
        except ZeroDivisionError:
            raise QuadraticError(f"zero denominator in {reprlib.repr(x)}") from None
        except ValueError as exc:  # Fraction's on text, quoting x; int()'s on a long exponent
            raise QuadraticError(str(exc).replace(repr(x), reprlib.repr(x))) from None
        raise QuadraticError(f"decimal exponent in {reprlib.repr(x)} exceeds "
                             f"sys.int_info.default_max_str_digits = {limit}")
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise QuadraticError(f"{reprlib.repr(x)} is not an exact rational; "
                             "pass an int, a Fraction or a string")
    return Fraction(x)


class QForm:
    """Nondegenerate diagonal quadratic form <a_1, ..., a_n> over Q.

    Its entries' square classes are found on first use: by factoring
    each entry, or, where `classes` is given, by calling it, which is
    how a form built from held classes (`direct_sum`, `scale`,
    `repeat`, a battery's shared classes) skips the factoring."""

    __slots__ = ("entries", "_held", "_disc")

    def __init__(self, entries, classes=None):
        ent = tuple(map(_rational, entries))
        if not all(a.numerator for a in ent):
            raise QuadraticError("diagonal entries must be nonzero")
        self.entries = ent
        self._held = classes  # None, a function giving the classes, or them
        self._disc = None

    @property
    def _classes(self) -> tuple[_SquareClass, ...]:
        held = self._held
        if type(held) is not tuple:
            held = tuple(map(square_class, self.entries)) if held is None else held()
            self._held = held
        return held

    @property
    def _disc_class(self) -> _SquareClass:
        if self._disc is None:
            self._disc = functools.reduce(sqclass_mul, self._classes, square_class(1))
        return self._disc

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.entries,))

    def __repr__(self):
        return "<" + ", ".join(str(a) for a in self.entries) + ">"


def direct_sum(*forms: QForm) -> QForm:
    ent: tuple[Fraction, ...] = ()
    for q in forms:
        ent += q.entries
    return QForm(ent, lambda: tuple(c for q in forms for c in q._classes))


def scale(a, q: QForm) -> QForm:
    a = _rational(a)
    if a == 0:
        raise QuadraticError("cannot scale a form by zero")

    def classes():
        ca = square_class(a)
        return tuple(sqclass_mul(ca, c) for c in q._classes)
    return QForm(tuple(a * x for x in q.entries), classes)


def repeat(q: QForm, m: int) -> QForm:
    if m < 1:
        raise QuadraticError("need at least one copy")
    return QForm(q.entries * m, lambda: q._classes * m)


def signature(q: QForm) -> tuple[int, int]:
    pos = sum(a.numerator > 0 for a in q.entries)
    return pos, q.rank - pos


def disc_class(q: QForm) -> _SquareClass:
    """The square class of the product of the diagonal entries, from
    the entries' classes: a caller hands it on where a value is taken."""
    return q._disc_class


def w1(q: QForm) -> int:
    """Square class of the product of the diagonal entries (squarefree)."""
    return q._disc_class.d


def w2(q: QForm) -> frozenset:
    """Symmetric difference of cup(a_i, a_j) over pairs i < j, which by
    bilinearity is that of cup(a_1 ... a_(j-1), a_j) over j: n - 1 cups,
    each of an entry's class with the product of the classes before it
    (`sqclass_mul`, unfactored).  A cup is evaluated at INF, 2 and its
    two classes' primes, the only places where its symbol can be -1, or
    read from the cup cache, where a form of the same classes left it."""
    out: frozenset = frozenset()
    classes = q._classes
    if classes:
        prefix = classes[0]
        for c in classes[1:]:
            out ^= _cup_cached(*prefix, *c)
            prefix = sqclass_mul(prefix, c)
    return out


# ---------------------------------------------------------------------------
# rank/discriminant/place-set triples, and their algebra


class TruncatedSW:
    """(rank, squarefree discriminant class, place set) of a form.  Given
    as a square class, disc is kept; an int disc must be squarefree."""

    __slots__ = ("rank", "disc", "places", "_disc_class")

    def __init__(self, rank: int, disc, places: frozenset):
        c = square_class(disc)
        if c is not disc and c.d != disc:
            raise QuadraticError("disc must be a squarefree integer")
        self.rank = rank
        self.disc = c.d
        self.places = places
        self._disc_class = c

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rank, self.disc, self.places)
                == (other.rank, other.disc, other.places))

    def __hash__(self):
        return hash((self.rank, self.disc, self.places))

    def __repr__(self):
        return (f"TruncatedSW(rank={self.rank!r}, disc={self.disc!r}, "
                f"places={self.places!r})")


def sw_total(q: QForm) -> TruncatedSW:
    return TruncatedSW(q.rank, q._disc_class, w2(q))


def sw_direct_sum(s1: TruncatedSW, s2: TruncatedSW) -> TruncatedSW:
    return TruncatedSW(
        s1.rank + s2.rank,
        sqclass_mul(s1._disc_class, s2._disc_class),
        s1.places ^ s2.places ^ _cup_cached(*s1._disc_class, *s2._disc_class),
    )


def sw_scale(a, s: TruncatedSW) -> TruncatedSW:
    """Invariants of the scaled form a*q from those of q."""
    a = square_class(a)
    n = s.rank
    disc = sqclass_mul(a, s._disc_class) if n % 2 else s._disc_class
    places = s.places
    if (n * (n - 1) // 2) % 2:
        places = places ^ _cup_cached(*a, *a)
    if (n - 1) % 2:
        places = places ^ _cup_cached(*a, *s._disc_class)
    return TruncatedSW(n, disc, places)


def sw_repeat(s: TruncatedSW, m: int) -> TruncatedSW:
    """Invariants of the m-fold orthogonal sum of a form from its own."""
    if m < 1:
        raise QuadraticError("need at least one copy")
    disc = s._disc_class if m % 2 else square_class(1)
    places = s.places if m % 2 else frozenset()
    if (m * (m - 1) // 2) % 2:
        places = places ^ _cup_cached(*s._disc_class, *s._disc_class)
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

# Bounds on a Gram matrix read from outside (`form --gram`), checked before
# `diagonalize`, whose time grows with the rank and with the bits of the
# integer matrix den * gram it eliminates (den the lcm of the entries'
# denominators).  A rank-128 matrix of 16-bit integers takes 3 s there,
# so `form` ends within 10 s even when factoring its entries then spends
# a whole RHO_BUDGET (5 s); 20-bit entries take 4 s, 32-bit ones 7 s.
GRAM_RANK_CAP = 128
GRAM_BITS_CAP = 128 * 16  # rank times entry bits


def validate_gram(gram) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(_rational(x) for x in row) for row in gram)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise QuadraticError("Gram matrix must be square")
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise QuadraticError("Gram matrix must be symmetric")
    return rows


def diagonalize(gram, rng=None) -> QForm:
    """Diagonal form congruent to the symmetric matrix read from outside:
    `validate_gram` reads and checks it once, and `_bareiss` eliminates
    den * gram, den the lcm of its denominators.  With rng, pivots are
    chosen at random among the usable ones; the isometry class never
    depends on the choice.  Raises on degenerate input."""
    rows = validate_gram(gram)
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return _bareiss([[x.numerator * (den // x.denominator) for x in row] for row in rows],
                    den, rng)


def _bareiss(rows, den: int = 1, rng=None) -> QForm:
    """The diagonal form of gram = rows / den, for square symmetric rows
    of ints, by fraction-free (Bareiss) symmetric elimination.  The
    trailing block is held as D_k times the Schur complement (D_k the
    k-th pivot, D_0 = 1) and the k-th entry is D_k / (D_(k-1) * den).  It
    checks nothing: `diagonalize` checks an outside matrix first, and
    `galois.trace_form` passes a trace Gram, square, symmetric and
    integral by construction."""
    a = [list(row) for row in rows]
    prev = 1
    diag = []
    while a:
        r = len(a)
        cands = [i for i in range(r) if a[i][i]]
        if not cands:
            # all remaining diagonal entries vanish: mix in an off-diagonal
            pairs = [(i, j) for i in range(r) for j in range(r)
                     if i != j and a[i][j]]
            if not pairs:
                raise QuadraticError("Gram matrix is degenerate")
            i, j = rng.choice(pairs) if rng is not None else pairs[0]
            # u_i <- u_i + u_j makes the (i,i) entry 2*a[i][j] != 0
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            cands = [i]
        piv = rng.choice(cands) if rng is not None else cands[0]
        if piv:
            a[0], a[piv] = a[piv], a[0]
            for row in a:
                row[0], row[piv] = row[piv], row[0]
        head = a[0]
        d = head[0]
        diag.append(Fraction(d, prev * den))
        a = [[(x * d - row[0] * y) // prev for x, y in zip(row[1:], head[1:])]
             for row in a[1:]]
        prev = d
    return QForm(tuple(diag))
