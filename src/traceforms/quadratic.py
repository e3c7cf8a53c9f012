"""Nondegenerate diagonal quadratic forms over Q and their isometry
classes.  A form's invariants are read from its `FormClass`, which
`form_class` builds: rank, signature, the square class of the
discriminant (w1), and the degree-2 invariant w2 assembled from Hilbert
symbols (recorded as the finite set of places where the relevant symbol
is -1).  These classify forms over Q up to isometry.

Four decisions are each made by one function.  `_rational` is the only
code that reads a rational, for every door and the command line: an int, a
Fraction or a string, its decimal exponent bounded by
sys.int_info.default_max_str_digits.  `square_class` is the only code
that factors one, calling `factorint` on the coprime numerator and
denominator separately: trial division by the thirteen Miller-Rabin bases
(no sieve), then Miller-Rabin and Pollard rho.
`is_probable_prime` is the one primality proof: it raises rather than
pass a probable prime beyond its proven range.  `check_place` decides
what a place is.  A value is factored once, where it enters, into a
square class (the squarefree integer and its primes) that is then held:
a `QForm` keeps its entries' (a form built from others takes theirs), a
`FormClass` its disc's, and a caller its own, since each door that takes
a value takes a class.  A product's class comes from its factors',
unfactored, and a Hilbert symbol is read from the cup of its two classes.
A form enters by `QForm` or `diagonalize`, which bound it for every
caller: GRAM_RANK_CAP, and for a Gram matrix GRAM_BITS_CAP too.
"""
from __future__ import annotations

import functools
import math
import random
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import _as_int, _DigitLimit, _ints, _quote

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


def is_probable_prime(n: int, charge=None) -> bool:
    """Whether n is prime: by trial division by the fixed bases below
    _TRIAL_PROVEN_BOUND (43^2), then by Miller-Rabin with them below
    _MR_PROVEN_BOUND (3.3e24); a probable prime above it raises.  Each
    round, at most n.bit_length() squarings, is paid to charge first."""
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
        if charge:
            charge(n, n.bit_length())
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
        raise QuadraticError(f"cannot certify primality of {_quote(n)} (above the "
                             f"deterministic Miller-Rabin bound)")
    return True


# Steps y -> y^2 + c and Miller-Rabin squarings allowed in one factorint
# call: enough for the cycle length 2^21 that two 12-digit primes can
# need, about 4 s at 31 digits on a 2-core Xeon.  A step mod n of
# w = ceil(bits/128) words counts max(w, w^2 // 12) times, as its cost
# grows (as w^2 once CPython's division dominates): a 99-digit n stops
# within the same time, and a round on 4,300 digits (7 s) never starts.
RHO_BUDGET = 1 << 23


def _pollard_rho(n: int, charge) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant),
    each step paid to charge first."""
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            charge(n, 2 * r)  # r steps to move x, at most r more to find g
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
    """Prime factorization of n >= 1 as {prime: exponent}, its steps
    paid to charge out of one RHO_BUDGET."""
    if n < 1:
        raise QuadraticError("factorint needs a positive integer")
    spent = 0

    def charge(m: int, steps: int) -> None:
        nonlocal spent
        w = -(-m.bit_length() // 128)
        spent += steps * max(w, w * w // 12)
        if spent > RHO_BUDGET:
            raise QuadraticError(f"cannot factor {_quote(m)} within "
                                 f"RHO_BUDGET = {RHO_BUDGET} rho steps")

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
        if is_probable_prime(m, charge):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = _pollard_rho(m, charge)
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
    `is_probable_prime` proves prime (a bool is not a place).  No int at
    or above _MR_PROVEN_BOUND is proven, so one that no base divides is
    refused before any Miller-Rabin round, and one that a base divides is
    not a place; a refusal quotes v shortened."""
    if v == INF:
        return
    if _ints((v,)) and v >= _MR_PROVEN_BOUND and all(v % p for p in _MR_BASES):
        raise QuadraticError(f"cannot certify primality of {_quote(v)} (above "
                             f"the deterministic Miller-Rabin bound)")
    if not (_ints((v,)) and is_probable_prime(v)):
        raise QuadraticError(f"not a place: {_quote(v)}")


def hilbert_symbol(a, b, v) -> int:
    """Hilbert symbol (a, b) at the place v (a prime or INF): -1 exactly
    when v is a place of cup(a, b), read from the cup cache."""
    check_place(v)
    return -1 if v in _cup_cached(*square_class(a), *square_class(b)) else 1


# Bound on the cup cache; its keys are pairs of square classes.  A
# computation reuses the pairs of its own forms: a perfbench `library`
# run (two rounds) fills 199.  A `suite` run takes 32,372 cups of 2,159
# pairs.  Of those, its hilbert_oracle battery reads 29,280 symbols as
# cups of 881 pairs, sixteen places of one pair in a row, so fifteen of
# each sixteen hit.  Random forms mostly reuse no pair: the
# diag_invariance battery takes 1,000 cups of 803 pairs, which a cache
# of 1024 kept, in 0.64 MB, to the end of the run.
CUP_CACHE_SIZE = 256


def _cup_at(a: int, pa: frozenset, b: int, pb: frozenset) -> frozenset:
    """Places where (a, b) is -1, for squarefree a, b with prime sets pa,
    pb: only INF, 2 and those primes can be such places.  Always of even
    size by the product formula, which is asserted."""
    out = frozenset(v for v in {INF, 2} | pa | pb if _hilbert(a, b, v) == -1)
    if len(out) % 2:
        raise QuadraticError(f"odd number of places in cup({_quote(a)}, {_quote(b)}); "
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


# stripped rational text that Fraction() reads alike on every supported
# Python; the groups are its digit runs
_RATIONAL_TEXT = re.compile(r"[-+]?(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE][-+]?(\d+))?)",
                            re.ASCII)


def _rational(x) -> Fraction:
    """x as a Fraction: an int, a Fraction or a string such as "1/10".  A
    float is refused, since its binary value (0.1 is 3602879701896397/2^55)
    is not the decimal it was written as; so are a bool and any other
    type, malformed text and a zero denominator.  Text must be ASCII with
    no "_" and no inner space (_RATIONAL_TEXT), which Fraction() reads alike
    on every supported Python (3.11 added "1_0", 3.12 "1 / 2").  A string's
    decimal exponent is held to the digit limit int() puts on an integer's
    text: 1e100000 would be a 100,001-digit value for factorint.  A digit
    run past that limit is refused in _DigitLimit's words before Fraction()
    reads it.  A Fraction and an integer take the short way."""
    if type(x) is Fraction:
        return x
    try:
        return Fraction(_as_int(x))
    except ValueError:  # no integer, or past the digit limit: read below
        pass
    if isinstance(x, str):
        limit = sys.int_info.default_max_str_digits
        exp = re.search(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z", x)
        if exp and len(exp[1]) <= limit and int(exp[1]) > limit:
            raise QuadraticError(f"decimal exponent in {_quote(x)} exceeds "
                                 f"sys.int_info.default_max_str_digits = {limit}")
        text = x.isascii() and _RATIONAL_TEXT.fullmatch(x.strip())
        if not text:
            raise QuadraticError(f"Invalid literal for Fraction: {_quote(x)}")
        digits = max(len(run or "") for run in text.groups())
        if digits > limit:
            raise QuadraticError(str(_DigitLimit(digits)))
        if text[2] and not int(text[2]):  # a zero denominator
            raise QuadraticError(f"zero denominator in {_quote(x)}")
        return Fraction(x)
    if not isinstance(x, Fraction):  # an int subclass such as bool is no int
        raise QuadraticError(f"{_quote(x)} is not an exact rational; "
                             "pass an int, a Fraction or a string")
    return Fraction(x)


class QForm:
    """Nondegenerate diagonal quadratic form <a_1, ..., a_n> over Q.

    Its entries' square classes are `classes` where given, which is how
    a form built from held classes (`direct_sum`, `scale`, `repeat`, a
    battery's shared classes) skips the factoring; else they are found
    on first use, by factoring each entry."""

    __slots__ = ("entries", "_held")

    def __init__(self, entries, classes=None):
        if len(entries) > GRAM_RANK_CAP:  # before an entry is read
            raise QuadraticError(f"form rank {len(entries)} exceeds "
                                 f"GRAM_RANK_CAP = {GRAM_RANK_CAP}")
        ent = tuple(map(_rational, entries))
        if not all(a.numerator for a in ent):
            raise QuadraticError("diagonal entries must be nonzero")
        self.entries = ent
        self._held = classes  # None until first read, then a tuple

    @property
    def _classes(self) -> tuple[_SquareClass, ...]:
        if self._held is None:
            self._held = tuple(map(square_class, self.entries))
        return self._held

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
    return QForm(ent, tuple(c for q in forms for c in q._classes))


def scale(a, q: QForm) -> QForm:
    a = _rational(a)
    if a == 0:
        raise QuadraticError("cannot scale a form by zero")
    ca = square_class(a)
    return QForm(tuple(a * x for x in q.entries), tuple(sqclass_mul(ca, c) for c in q._classes))


def _check_copies(m) -> None:
    """Refuse m unless it is a count of copies: an int (no bool) >= 1."""
    if not (_ints((m,)) and m >= 1):
        raise QuadraticError(f"need at least one copy, got {_quote(m)}")


def repeat(q: QForm, m: int) -> QForm:
    _check_copies(m)
    return QForm(q.entries * m, q._classes * m)


def signature(q: QForm) -> tuple[int, int]:
    pos = sum(a.numerator > 0 for a in q.entries)
    return pos, q.rank - pos


# ---------------------------------------------------------------------------
# isometry classes, and their algebra


class FormClass:
    """The isometry class of a form over Q: rank, signature (r, s), the
    squarefree disc class and the place set of w2, which fix the form
    (Hasse-Minkowski).  disc is held as its square class, `disc_class`,
    which a caller hands on where a value is taken: given as a class it
    is kept, and an int disc must be squarefree.  A tuple that no form
    has is refused by the first of Serre's conditions it breaks (A Course
    in Arithmetic, ch. IV, Prop. 7, under the prod_(i<j) convention for
    w2)."""

    __slots__ = ("rank", "signature", "disc", "places", "disc_class")

    def __init__(self, rank: int, signature, disc, places):
        c = square_class(disc)
        if c is not disc and c.d != disc:
            raise QuadraticError("disc must be a squarefree integer")
        try:
            signature = tuple(signature)
        except TypeError:
            raise QuadraticError(
                f"signature must be a pair (r, s), got {_quote(signature)}") from None
        try:
            places = frozenset(places)
        except TypeError:
            raise QuadraticError(f"places must be a set of places, got {_quote(places)}") from None
        d = c.d
        r, s = signature if len(signature) == 2 else (None, None)
        for v in places:
            check_place(v)
        rule = ("r + s = rank" if not (_ints((rank, r, s)) and min(r, s) >= 0 and r + s == rank)
                else "sign(disc) = (-1)^s" if (d < 0) != s % 2
                else "inf in places iff s(s-1)/2 is odd" if (INF in places) != s * (s - 1) // 2 % 2
                else "an even number of places" if len(places) % 2
                else "disc 1 at rank 0" if not rank and d != 1
                else "no places at rank <= 1" if rank < 2 and places
                else "no place where -disc is a square at rank 2" if rank == 2 and any(
                    d % v and (-d % 8 == 1 if v == 2 else not _nonresidue(-d, v))
                    for v in places - {INF})
                else None)
        if rule:
            raise QuadraticError(f"no form over Q has rank {_quote(rank)}, signature "
                                 f"{_quote(signature)}, disc {d} and places {_quote(places)}: "
                                 f"{rule} fails")
        self.rank, self.signature, self.disc, self.places = rank, (r, s), d, places
        self.disc_class = c

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rank, self.signature, self.disc, self.places)
                == (other.rank, other.signature, other.disc, other.places))

    def __hash__(self):
        return hash((self.rank, self.signature, self.disc, self.places))

    def __repr__(self):
        return (f"FormClass(rank={self.rank!r}, signature={self.signature!r}, "
                f"disc={self.disc!r}, places={self.places!r})")

    def direct_sum(self, other: FormClass) -> FormClass:
        (r1, s1), (r2, s2) = self.signature, other.signature
        d1, d2 = self.disc_class, other.disc_class
        return FormClass(self.rank + other.rank, (r1 + r2, s1 + s2), sqclass_mul(d1, d2),
                         self.places ^ other.places ^ _cup_cached(*d1, *d2))

    def scale(self, a) -> FormClass:
        """The class of the scaled form a*q from that of q."""
        a = square_class(a)
        n = self.rank
        disc = sqclass_mul(a, self.disc_class) if n % 2 else self.disc_class
        places = self.places
        if (n * (n - 1) // 2) % 2:
            places = places ^ _cup_cached(*a, *a)
        if (n - 1) % 2:
            places = places ^ _cup_cached(*a, *self.disc_class)
        return FormClass(n, self.signature[::-1] if a.d < 0 else self.signature, disc, places)

    def repeat(self, m: int) -> FormClass:
        """The class of the m-fold orthogonal sum of a form from its own."""
        _check_copies(m)
        disc = self.disc_class if m % 2 else square_class(1)
        places = self.places if m % 2 else frozenset()
        if (m * (m - 1) // 2) % 2:
            places = places ^ _cup_cached(*self.disc_class, *self.disc_class)
        return FormClass(m * self.rank, tuple(m * x for x in self.signature), disc, places)


def form_class(q: QForm) -> FormClass:
    """The isometry class of q: two forms are isometric over Q exactly
    when their classes are equal.  Its places, those of w2, are the
    symmetric difference of cup(a_i, a_j) over pairs i < j, which by
    bilinearity is that of cup(a_1 ... a_(j-1), a_j) over j: n - 1 cups,
    each of an entry's class with the product of the classes before it
    (`sqclass_mul`, unfactored), and the last product is the disc.  A
    cup is evaluated at INF, 2 and its two classes' primes, the only
    places where its symbol can be -1, or read from the cup cache, where
    a form of the same classes left it."""
    classes = q._classes
    disc, places = classes[0] if classes else square_class(1), frozenset()
    for c in classes[1:]:
        places ^= _cup_cached(*disc, *c)
        disc = sqclass_mul(disc, c)
    return FormClass(q.rank, signature(q), disc, places)


# ---------------------------------------------------------------------------
# symmetric Gram matrices and diagonalization

# Bounds on a Gram matrix, checked by `diagonalize` (the rank by `QForm`
# too), whose time grows with the rank and with the bits of the integer
# matrix den * gram it eliminates (den the lcm of the entries'
# denominators).  A rank-128 matrix of 16-bit integers takes 3 s there;
# 20-bit entries take 4 s, 32-bit ones 7 s.  The caps bound the
# elimination only.  RHO_BUDGET bounds one factorint call, and a form's
# square classes make one call for each entry's numerator and one for its
# denominator, so a form of hard entries can spend that many budgets.
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
    """Diagonal form congruent to the symmetric matrix read from outside,
    a list or tuple of list or tuple rows, refused before a length is
    taken if it is anything else.  Its rank (row count or length) is
    refused above GRAM_RANK_CAP before `validate_gram` reads and checks
    it once, and rank times entry bits (the largest numerator's plus
    den's, less one) above GRAM_BITS_CAP as den, the lcm of the
    denominators, is built.  `_bareiss` eliminates den * gram.  With rng,
    pivots are chosen at random among the usable ones; the isometry class
    never depends on the choice.  Raises on degenerate input."""
    if not (isinstance(gram, (list, tuple))
            and all(isinstance(row, (list, tuple)) for row in gram)):
        raise QuadraticError("Gram matrix must be a list of rows")
    n = max([len(gram), *map(len, gram)])
    if n > GRAM_RANK_CAP:
        raise QuadraticError(f"Gram rank {n} exceeds GRAM_RANK_CAP = {GRAM_RANK_CAP}")
    rows = validate_gram(gram)
    entries = [x for row in rows for x in row]
    num_bits = max((abs(x.numerator).bit_length() for x in entries), default=0)
    den = 1
    for x in entries:
        den = math.lcm(den, x.denominator)
        bits = num_bits + den.bit_length() - 1
        if n * bits > GRAM_BITS_CAP:  # den only grows: stop at once
            raise QuadraticError(f"Gram rank {n} x {bits} entry bits exceeds "
                                 f"GRAM_BITS_CAP = {GRAM_BITS_CAP}")
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
