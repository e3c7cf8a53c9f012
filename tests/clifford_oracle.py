"""Independent routes to what traceforms.clifford computes, kept as test
oracles.

A Clifford algebra over Q(sqrt 2): elements are Fraction-valued, and a
lift is multiplied out factor by factor as a product of unit vectors
epsilon(i, j, n) = (e_i - e_j)/sqrt(2), with the reordering sign of
_sign_parity.  Of the library's Clifford code it uses only
transposition_factors (besides its error class and rank cap); pin_lift's
(k, z) becomes an element here by as_element.

The fold sign rule, the library's first integer route to every sign:
multiply the integer folds out with _fold_factors and compare the fold
of a product of lifts with that of the lift of the product
(fold_sign_bit).

The Pfaffian residue rule, its second: the scalar part of a product of
K vectors is the Pfaffian of their K x K skew Gram matrix (Wick's
theorem), taken by skew elimination mod the prime PRIME = 2^61 - 1
(pfaffian).  A product of K vectors e_i - e_j has coefficients whose
squares sum to 2^K, so |Pf| <= 2^(K/2), with equality only when the
product is the scalar +-2^(K/2); for K <= 118, 2^(K/2 + 1) < PRIME, so
a residue of +-2^(K/2) proves that scalar and any other residue that
the product is not one (pfaffian_sign).  The library now reads each
sign off an exact rewrite of the word (clifford._word_sign), with no
modulus.
"""
from __future__ import annotations

from fractions import Fraction

from traceforms import perms
from traceforms.clifford import (
    CLIFFORD_RANK_CAP,
    CliffordError,
    SignMismatchError,
    _fold_factors,
    transposition_factors,
)
from traceforms.cohomology import cochains_from_columns
from traceforms.groups import generating_set, left_regular


class QSqrt2:
    """Element u + v*sqrt(2) of Q(sqrt 2), with exact Fraction parts."""

    __slots__ = ("u", "v")

    def __init__(self, u=0, v=0):
        object.__setattr__(self, "u", Fraction(u))
        object.__setattr__(self, "v", Fraction(v))

    def __setattr__(self, *a):
        raise AttributeError("QSqrt2 is immutable")

    @staticmethod
    def _coerce(x) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, (int, Fraction)):
            return QSqrt2(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QSqrt2")

    def __add__(self, other):
        o = self._coerce(other)
        return QSqrt2(self.u + o.u, self.v + o.v)

    def __neg__(self):
        return QSqrt2(-self.u, -self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        return QSqrt2(self.u * o.u + 2 * self.v * o.v,
                      self.u * o.v + self.v * o.u)

    def norm(self) -> Fraction:
        return self.u * self.u - 2 * self.v * self.v

    def inverse(self) -> "QSqrt2":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return QSqrt2(self.u / n, -self.v / n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSqrt2(other)
        if not isinstance(other, QSqrt2):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __repr__(self):
        if self.v == 0:
            return f"{self.u}"
        if self.u == 0:
            return f"{self.v}*r2"
        return f"({self.u} + {self.v}*r2)"


def _sign_parity(S: int, T: int) -> int:
    """Parity of the reordering sign in e_S * e_T = (+-) e_{S xor T}: each
    generator e_t of T passes the generators of S above t.  Bit t of w is
    the parity of those (a suffix XOR by doubling shifts, which reaches
    32 bits, beyond the rank cap)."""
    w = S >> 1
    for k in (1, 2, 4, 8, 16):
        w ^= w >> k
    return (w & T).bit_count() & 1


class CliffordElt:
    """Sparse element of the rank-n Clifford algebra over Q(sqrt 2)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[int, QSqrt2]):
        if not 0 <= n <= CLIFFORD_RANK_CAP:
            raise CliffordError(f"rank must be between 0 and CLIFFORD_RANK_CAP = {CLIFFORD_RANK_CAP}")
        clean: dict[int, QSqrt2] = {}
        top = 1 << n
        for mask, c in terms.items():
            if mask < 0 or mask >= top:
                raise CliffordError(f"basis mask {mask:#x} out of rank-{n} range")
            c = QSqrt2._coerce(c)
            if c:
                clean[mask] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("CliffordElt is immutable")

    @staticmethod
    def scalar(n: int, value) -> "CliffordElt":
        return CliffordElt(n, {0: QSqrt2._coerce(value)})

    @staticmethod
    def basis_vector(n: int, k: int) -> "CliffordElt":
        if not 0 <= k < n:
            raise CliffordError(f"generator index {k} out of range")
        return CliffordElt(n, {1 << k: QSqrt2(1)})

    def _check_same(self, other: "CliffordElt") -> None:
        if self.n != other.n:
            raise CliffordError("rank mismatch")

    def __add__(self, other: "CliffordElt") -> "CliffordElt":
        self._check_same(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            t[m] = t.get(m, QSqrt2()) + c
        return CliffordElt(self.n, t)

    def __neg__(self) -> "CliffordElt":
        return CliffordElt(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, a) -> "CliffordElt":
        a = QSqrt2._coerce(a)
        return CliffordElt(self.n, {m: c * a for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
            return self.scale(other)
        self._check_same(other)
        out: dict[int, QSqrt2] = {}
        for S, a in self.terms.items():
            for T, b in other.terms.items():
                m = S ^ T
                c = a * b
                if _sign_parity(S, T):
                    c = -c
                acc = out.get(m)
                out[m] = c if acc is None else acc + c
        return CliffordElt(self.n, out)

    def __eq__(self, other):
        if not isinstance(other, CliffordElt):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def reversal(self) -> "CliffordElt":
        out = {}
        for m, c in self.terms.items():
            k = bin(m).count("1")
            out[m] = -c if (k * (k - 1) // 2) & 1 else c
        return CliffordElt(self.n, out)

    def grade_involution(self) -> "CliffordElt":
        out = {}
        for m, c in self.terms.items():
            out[m] = -c if bin(m).count("1") & 1 else c
        return CliffordElt(self.n, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            name = "".join(f"e{k}" for k in range(self.n) if (m >> k) & 1) or "1"
            bits.append(f"{self.terms[m]!r}*{name}")
        return " + ".join(bits)


def epsilon(i: int, j: int, n: int) -> CliffordElt:
    """The unit vector (e_i - e_j)/sqrt(2), whose twisted conjugation
    swaps coordinates i and j."""
    if i == j:
        raise CliffordError("epsilon needs two distinct indices")
    half = Fraction(1, 2)
    return CliffordElt(n, {1 << i: QSqrt2(0, half), 1 << j: QSqrt2(0, -half)})


def as_element(lift: tuple[int, dict[int, int]], n: int) -> CliffordElt:
    """The rank-n element (1/sqrt 2)^k z of a lift given as (k, z)."""
    k, z = lift
    scale = QSqrt2(0, Fraction(1, 2 ** ((k + 1) // 2))) if k % 2 else \
        QSqrt2(Fraction(1, 2 ** (k // 2)))
    return CliffordElt(n, z).scale(scale)


def times_lift(x: CliffordElt, p: perms.Perm) -> CliffordElt:
    """x * lift(p), multiplying by p's epsilon factors in the algebra."""
    for i, j in transposition_factors(p):
        x = x * epsilon(i, j, x.n)
    return x


def _scalar(x):
    """The scalar of x, which must have no other terms."""
    if any(m for m in x.terms):
        raise CliffordError("element is not a scalar")
    return x.terms.get(0, QSqrt2())


def twisted_action(x):
    """The permutation k -> j with I(x) e_k x^(-1) = e_j (grade involution
    I); raises if any conjugate is not exactly a basis vector."""
    r = x.reversal()
    norm = _scalar(x * r)
    if not norm:
        raise CliffordError("element is not invertible")
    xi = r.scale(norm.inverse())
    gi = x.grade_involution()
    image = []
    for k in range(x.n):
        y = gi * CliffordElt.basis_vector(x.n, k) * xi
        if len(y.terms) != 1:
            raise CliffordError("conjugation does not preserve the frame")
        (m, c), = y.terms.items()
        if bin(m).count("1") != 1 or c != QSqrt2(1):
            raise CliffordError("conjugate of a generator is not a generator")
        image.append(m.bit_length() - 1)
    p = tuple(image)
    if not perms.is_perm(p):
        raise CliffordError("twisted action is not a permutation")
    return p


def check_pin(x):
    """x is parity homogeneous with spinor norm +-1 and acts on the frame;
    returns the permutation."""
    if len({bin(m).count("1") & 1 for m in x.terms}) > 1:
        raise CliffordError("element is not parity homogeneous")
    if _scalar(x.reversal() * x) not in (QSqrt2(1), QSqrt2(-1)):
        raise CliffordError("spinor norm is not +-1")
    return twisted_action(x)


# -- the fold sign rule ------------------------------------------------------

def fold_sign_bit(z: dict[int, int], w: dict[int, int], gap: int) -> int:
    """The bit b with z = (-1)^b 2^(gap/2) w.  For z the fold of
    lift(g) lift(h) (k1 + k2 factors), w the fold of lift(gh) (k3
    factors) and gap = k1 + k2 - k3, that is lift(g) lift(h) =
    (-1)^b lift(gh); k = n - #cycles makes the gap even and >= 0."""
    if gap >= 0 and gap % 2 == 0:
        j = gap // 2
        if z == {m: c << j for m, c in w.items()}:
            return 0
        if z == {m: -c << j for m, c in w.items()}:
            return 1
    raise SignMismatchError("product of lifts is not +-(lift of product)")


def fold_product_sign(p: perms.Perm, q: perms.Perm) -> int:
    """pin_product_sign(p, q) for p, q of one degree, by folds."""
    fp, fq = transposition_factors(p), transposition_factors(q)
    fc = transposition_factors(perms.compose(p, q))
    z = _fold_factors(_fold_factors({0: 1}, fp), fq)
    return fold_sign_bit(z, _fold_factors({0: 1}, fc), len(fp) + len(fq) - len(fc))


def fold_square_sign(factors: list[tuple[int, int]]) -> int:
    """+-1 with x^2 = +-1, x the lift with these factors, by folds."""
    state = _fold_factors(_fold_factors({0: 1}, factors), factors)
    return -1 if fold_sign_bit(state, {0: 1}, 2 * len(factors)) else 1


def fold_cocycle_bits(G) -> int:
    """The bits of pin_cocycle(G)'s table, from folded generator columns
    filled out along the Cayley walk, as pin_cocycle computed it before
    its signs became Pfaffians and then word signs."""
    n, t = G.order, G.table
    rows_of = left_regular(G)
    factor_lists = [transposition_factors(rows_of[g]) for g in range(n)]
    k = [len(fl) for fl in factor_lists]
    folds = [_fold_factors({0: 1}, fl) for fl in factor_lists]
    columns = {s: [0] + [
        fold_sign_bit(_fold_factors(folds[x], factor_lists[s]),
                      folds[t[x][s]], k[x] + k[s] - k[t[x][s]])
        for x in range(1, n)] for s in generating_set(G)}
    return cochains_from_columns(G, columns, 1)[0]


# -- the Pfaffian residue rule -----------------------------------------------

PRIME = (1 << 61) - 1  # the Pfaffians are taken mod this prime


def pfaffian(a: list[list[int]]) -> int:
    """Pfaffian mod PRIME of the skew-symmetric integer matrix a, by skew
    elimination (a is overwritten).  With a = [[0, x, b], [-x, 0, c],
    [-b^T, -c^T, C]], Pf(a) = x Pf(C + (c^T b - b^T c)/x); swapping
    rows and columns k + 1 and j to bring a nonzero x into place negates
    it, and a zero row makes it 0."""
    size = len(a)
    pf = 1
    for k in range(0, size, 2):
        rk = a[k]
        j = next((j for j in range(k + 1, size) if rk[j]), None)
        if j is None:
            return 0
        if j != k + 1:
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a:
                row[k + 1], row[j] = row[j], row[k + 1]
            pf = -pf
        rk1 = a[k + 1]
        pf = pf * rk[k + 1] % PRIME
        inv = pow(rk[k + 1], -1, PRIME)
        b, c = rk[k + 2:], rk1[k + 2:]
        for i in range(k + 2, size):
            x, y = rk1[i] * inv % PRIME, rk[i] * inv % PRIME
            if x or y:
                row = a[i]
                row[k + 2:] = [(r + x * bj - y * cj) % PRIME
                               for r, bj, cj in zip(row[k + 2:], b, c)]
    return pf


def pfaffian_sign(vectors: list[tuple[int, int]]) -> int:
    """The bit b with v_1...v_K = (-1)^b 2^(K/2), each (i, j) standing
    for the vector e_i - e_j, read off the residue mod PRIME of the
    Pfaffian of their skew Gram matrix; raises SignMismatchError for any
    other residue (module docstring)."""
    size = len(vectors)
    if size % 2:
        raise SignMismatchError("product of lifts is not +-(lift of product)")
    a = [[0] * size for _ in range(size)]
    touching: dict[int, list[tuple[int, int]]] = {}  # coordinate -> (t, +-1)
    for t, (i, j) in enumerate(vectors):
        touching.setdefault(i, []).append((t, 1))
        touching.setdefault(j, []).append((t, -1))
    for col in touching.values():
        for x, (t, st) in enumerate(col):
            for u, su in col[x + 1:]:  # t < u: <v_t, v_u> gains st su
                a[t][u] += st * su
                a[u][t] -= st * su
    pf = pfaffian(a)
    power = pow(2, size // 2, PRIME)
    if pf == power:
        return 0
    if pf == PRIME - power:
        return 1
    raise SignMismatchError("product of lifts is not +-(lift of product)")


def pfaffian_product_sign(p: perms.Perm, q: perms.Perm) -> int:
    """pin_product_sign(p, q) for p, q of one degree, by one Pfaffian over
    the factors of p, of q and, reversed, of p after q."""
    fc = transposition_factors(perms.compose(p, q))
    return pfaffian_sign(transposition_factors(p) + transposition_factors(q) + fc[::-1])
