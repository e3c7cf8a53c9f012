"""Pin-group lifts of permutations and the sign cocycle they induce.

Basis elements of the Clifford algebra of the positive-definite form are
indexed by bitmasks: bit k set means the generator e_k appears
(generators ascend left to right, e_k^2 = +1).  A permutation p acts on
R^n by permuting coordinates; its pin lift is the ordered product of
factors (e_i - e_j)/sqrt(2), one per transposition in a cycle
decomposition.  A lift with k factors is (1/sqrt 2)^k z, where z, its
fold, is an integer combination of basis masks.

Every sign is read off folds.  The factor count k(g) = n - #cycles(g) is
the distance from g to the identity in transpositions, so it is
subadditive, and it is even exactly when g is.  Hence the gap
k(g) + k(h) - k(gh) is even and >= 0, and lift(g) lift(h) =
(-1)^b lift(gh) holds exactly when the fold of the product equals
(-1)^b 2^(gap/2) times the fold of lift(gh), as integer dicts.  For
the translation action of a group this gives a 2-cocycle, and for an
involution g the sign of lift(g)^2.

Exact arithmetic over Q(sqrt 2) (QSqrt2, CliffordElt) only verifies
lifts: twisted conjugation by pin_lift(p) must recover p.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import perms
from .cohomology import Cocycle2
from .groups import Group, left_regular

CLIFFORD_RANK_CAP = 24   # largest number of generators accepted
FULL_PIN_CAP = 12        # largest group order for the full sign table
ACTION_CHECK_CAP = 10    # verify lifts by twisted conjugation up to here


class CliffordError(ValueError):
    pass


class SignMismatchError(CliffordError):
    """A product of lifts failed to be +-(the lift of the product)."""


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
            raise CliffordError(f"rank must be between 0 and {CLIFFORD_RANK_CAP}")
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

    def parity(self) -> int | None:
        """0 or 1 if all terms have that grade parity, else None."""
        if not self.terms:
            return 0
        ps = {bin(m).count("1") & 1 for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def is_scalar(self) -> bool:
        return all(m == 0 for m in self.terms)

    def scalar_part(self) -> QSqrt2:
        return self.terms.get(0, QSqrt2())

    def spinor_norm(self) -> QSqrt2:
        """reversal(x) * x, which must be a scalar."""
        p = self.reversal() * self
        if not p.is_scalar():
            raise CliffordError("spinor norm is not scalar")
        return p.scalar_part()

    def inverse(self) -> "CliffordElt":
        r = self.reversal()
        p = self * r
        if not p.is_scalar() or not p:
            raise CliffordError("element is not invertible this way")
        return r.scale(p.scalar_part().inverse())

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


def transposition_factors(p: perms.Perm) -> list[tuple[int, int]]:
    """Transpositions whose composition (leftmost applied last) is p;
    each cycle (c1 c2 ... ck) contributes (c1,ck), (c1,c(k-1)), ..., (c1,c2)."""
    out: list[tuple[int, int]] = []
    for cyc in perms.cycles(p):
        c1 = cyc[0]
        for other in reversed(cyc[1:]):
            out.append((c1, other))
    return out


# -- integer fold kernel ----------------------------------------------------
# A product of k epsilon factors is (1/sqrt 2)^k times an integer
# combination of basis masks (its fold); every sign is read off folds.


def _fold_factors(state: dict[int, int], factors) -> dict[int, int]:
    """Multiply state (integer mask combination) on the right by each
    (e_i - e_j) in turn, ignoring the 1/sqrt(2) scale."""
    for i, j in factors:
        new: dict[int, int] = {}
        # e_S e_t = (-1)^(#S above t) e_{S xor t}; e_j carries a sign -1
        steps = ((i + 1, 1 << i, 0), (j + 1, 1 << j, 1))
        for mask, c in state.items():
            for above, bit, neg in steps:
                s = -c if ((mask >> above).bit_count() ^ neg) & 1 else c
                m = mask ^ bit
                acc = new.get(m, 0) + s
                if acc:
                    new[m] = acc
                elif m in new:
                    del new[m]
        state = new
    return state


def _sign_bit(z: dict[int, int], w: dict[int, int], gap: int) -> int:
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


def _square_sign(factors: list[tuple[int, int]]) -> int:
    """+-1 with x^2 = +-1, x the lift with these factors (an involution's);
    the empty fold {0: 1} is the lift of the identity."""
    state = _fold_factors(_fold_factors({0: 1}, factors), factors)
    return -1 if _sign_bit(state, {0: 1}, 2 * len(factors)) else 1


def twisted_action(x: CliffordElt) -> perms.Perm:
    """The permutation k -> j with I(x) e_k x^(-1) = e_j (grade involution
    I); raises if any conjugate is not exactly a basis vector."""
    gi = x.grade_involution()
    xi = x.inverse()
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


def check_pin(x: CliffordElt) -> perms.Perm:
    """Verify x is a pin element lifting a coordinate permutation: parity
    homogeneous, spinor norm +-1, frame-preserving.  Returns the
    permutation."""
    if x.parity() is None:
        raise CliffordError("element is not parity homogeneous")
    sn = x.spinor_norm()
    if sn != QSqrt2(1) and sn != QSqrt2(-1):
        raise CliffordError(f"spinor norm {sn!r} is not +-1")
    return twisted_action(x)


def pin_lift(p: perms.Perm, n: int | None = None) -> CliffordElt:
    """Pin lift of the permutation p acting on n coordinates."""
    if n is None:
        n = len(p)
    if len(p) > n:
        raise CliffordError("permutation degree exceeds rank")
    if n > CLIFFORD_RANK_CAP:
        raise CliffordError(f"rank {n} exceeds cap {CLIFFORD_RANK_CAP}")
    q = tuple(p) + tuple(range(len(p), n))
    factors = transposition_factors(q)
    k = len(factors)  # scale (1/sqrt 2)^k
    scale = QSqrt2(0, Fraction(1, 2 ** ((k + 1) // 2))) if k % 2 else \
        QSqrt2(Fraction(1, 2 ** (k // 2)))
    x = CliffordElt(n, _fold_factors({0: 1}, factors)).scale(scale)
    if n <= ACTION_CHECK_CAP:
        if check_pin(x) != q:
            raise CliffordError("lift does not act as the permutation")
    return x


def involution_square_sign(n: int) -> int:
    """Square of the pin lift of (0 1)(2 3)...(n-2 n-1) on n coordinates,
    computed from its fold and cross-checked against the closed form
    +1 iff n = 0, 2 mod 8."""
    if n < 2 or n % 2:
        raise CliffordError("need an even number of coordinates, at least 2")
    if n > CLIFFORD_RANK_CAP:
        raise CliffordError(f"rank {n} exceeds cap {CLIFFORD_RANK_CAP}")
    alg = _square_sign([(2 * i, 2 * i + 1) for i in range(n // 2)])
    m = n // 2
    closed = 1 if (m * (m - 1) // 2) % 2 == 0 else -1
    if alg != closed:
        raise CliffordError("algebraic and closed-form signs disagree")
    return alg


@dataclass
class PinCocycleResult:
    """Sign data of the pin lifts of a group's translation action."""

    group: Group
    cocycle: Cocycle2 | None
    square_signs: dict[int, int]  # involution index -> lift(g)^2 = +-1
    involutions_only: bool

    @property
    def s_vector(self) -> tuple[int, ...]:
        return tuple(int(self.square_signs[g] == -1)
                     for g in sorted(self.square_signs))


def pin_product_sign(p: perms.Perm, q: perms.Perm, n: int | None = None) -> int:
    """The sign bit with lift(p) lift(q) = (-1)^bit lift(p after q),
    computed by folding q's factors onto lift(p).  Raises
    SignMismatchError if the product fails to be proportional."""
    if n is None:
        n = max(len(p), len(q))
    if max(len(p), len(q)) > n:
        raise CliffordError("permutation degree exceeds rank")
    if n > CLIFFORD_RANK_CAP:
        raise CliffordError(f"rank {n} exceeds cap {CLIFFORD_RANK_CAP}")
    pp = tuple(p) + tuple(range(len(p), n))
    qq = tuple(q) + tuple(range(len(q), n))
    fp = transposition_factors(pp)
    fq = transposition_factors(qq)
    z = _fold_factors(_fold_factors({0: 1}, fp), fq)
    fc = transposition_factors(perms.compose(pp, qq))
    return _sign_bit(z, _fold_factors({0: 1}, fc), len(fp) + len(fq) - len(fc))


def pin_cocycle(G: Group, involutions_only: bool = False) -> PinCocycleResult:
    """Sign cocycle c with lift(g) lift(h) = (-1)^c(g,h) lift(gh), where
    lift is the pin lift of left translation by g.  With involutions_only
    just the diagonal values at involutions (the squares) are computed."""
    n = G.order
    cap = CLIFFORD_RANK_CAP if involutions_only else FULL_PIN_CAP
    if n > cap:
        raise CliffordError(
            f"group order {n} exceeds cap {cap} for this computation")
    rows_of = left_regular(G)

    if involutions_only:
        signs = {g: _square_sign(transposition_factors(rows_of[g]))
                 for g in G.involutions()}
        return PinCocycleResult(G, None, signs, True)

    factor_lists = [transposition_factors(rows_of[g]) for g in range(n)]
    k = [len(fl) for fl in factor_lists]
    folds = [_fold_factors({0: 1}, fl) for fl in factor_lists]
    rows = []
    for g in range(n):
        row = 0
        for h in range(1, n):
            gh = G.table[g][h]
            z = _fold_factors(folds[g], factor_lists[h])
            row |= _sign_bit(z, folds[gh], k[g] + k[h] - k[gh]) << h
        rows.append(row)
    c = Cocycle2(G, tuple(rows))
    c.validate()
    signs = {g: -1 if c.value(g, g) else 1 for g in G.involutions()}
    return PinCocycleResult(G, c, signs, False)
