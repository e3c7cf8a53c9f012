"""Pin-group lifts of permutations and the sign cocycle they induce.

Basis elements of the Clifford algebra of the positive-definite form are
indexed by bitmasks: bit k set means the generator e_k appears
(generators ascend left to right, e_k^2 = +1).  A permutation p acts on
R^n by permuting coordinates; its pin lift is the ordered product of
factors (e_i - e_j)/sqrt(2), one per transposition in a cycle
decomposition.  A lift with k factors is (1/sqrt 2)^k z, where z, its
fold, is an integer combination of basis masks.

Every sign is one Pfaffian.  Let U = u_1...u_a be the product of the
factors e_i - e_j of lift(g) followed by those of lift(h), and W =
w_1...w_c that of lift(gh).  The factor count k(g) = n - #cycles(g) is
even exactly when g is, so K = a + c is even; put m = K/2.  Each
factor squares to 2, so W rev(W) = 2^c, and lift(g) lift(h) =
(-1)^b lift(gh), that is U = (-1)^b 2^((a-c)/2) W, holds exactly when

    V = u_1...u_a w_c...w_1 = (-1)^b 2^m.

The scalar part of a product of K vectors is the Pfaffian of their
K x K skew Gram matrix, <v_i, v_j> above the diagonal (Wick's theorem
in the Clifford algebra); here every entry is 0, +-1 or +-2.

Why V = +-2^m: twisted conjugation is a homomorphism Pin(n) -> O(n)
with kernel {+-1}.  The factor (e_i - e_j)/sqrt 2 maps to the
transposition (i j), and each factor list composes back to its
permutation (_factors checks it), so lift(g) lift(h) and lift(gh) map
to the same permutation and differ by a sign.

Why the residue decides it: the Pfaffian is computed by skew
elimination over the integers mod the prime P = 2^61 - 1, with no
floats.  Reduction mod P is a ring map, so Pf = +-2^m has residue
+-2^m mod P, and the two residues differ because P is odd and does not
divide 2^(m+1).  Any other residue raises SignMismatchError.  Within the
rank cap the residue is also a proof on its own: V rev(V) = 2^K, and
the scalar part of V rev(V) is the sum of the squares of V's
coefficients (the form is positive definite), so |Pf| <= 2^m, with
equality only when V is the scalar +-2^m.  As K <= 3(n - 1) <= 69,
2^(m+1) < P, and a residue of +-2^m forces Pf = +-2^m.

For the translation action of a group the signs form a 2-cocycle, and
for an involution g (h = g, c = 0) they give the sign of lift(g)^2.  The
full cocycle computes only the products with a generating set and fills
in the rest by associativity (see pin_cocycle).

pin_lift returns a lift as (k, z) and checks, at every rank, that z is
a pin element whose twisted conjugation gives back p (_check_fold).
_fold_factors, the Clifford product that builds z, serves only those
two; an independent algebra over Q(sqrt 2) and the fold sign rule are
kept as test oracles (tests/clifford_oracle.py).
"""
from __future__ import annotations

from . import cohomology, groups, perms

CLIFFORD_RANK_CAP = 24   # largest number of generators accepted
FULL_PIN_CAP = 12        # largest group order for the full sign table
# largest 2^min(k, n) that pin_lift folds: a fold of k factors on rank n
# has at most that many terms.  A 17-cycle's lift (2^16 terms) takes
# about 0.8 s; a 20-cycle's took 7 s and 200 MB.
FOLD_TERMS_CAP = 1 << 16
_PRIME = (1 << 61) - 1  # the Pfaffians are taken mod this prime


class CliffordError(ValueError):
    pass


class SignMismatchError(CliffordError):
    """A product of lifts failed to be +-(the lift of the product)."""


def transposition_factors(p: perms.Perm) -> list[tuple[int, int]]:
    """Transpositions whose composition (leftmost applied last) is p;
    each cycle (c1 c2 ... ck) contributes (c1,ck), (c1,c(k-1)), ..., (c1,c2)."""
    out: list[tuple[int, int]] = []
    for cyc in perms.cycles(p):
        c1 = cyc[0]
        for other in reversed(cyc[1:]):
            out.append((c1, other))
    return out


def _factors(p: perms.Perm) -> list[tuple[int, int]]:
    """transposition_factors(p), checked to compose back to p: applying
    the swaps left to right to the identity's image list gives p."""
    out = transposition_factors(p)
    images = list(range(len(p)))
    for i, j in out:
        images[i], images[j] = images[j], images[i]
    if tuple(images) != tuple(p):
        raise CliffordError("transposition factors do not compose to the permutation")
    return out


# -- signs by Pfaffians -----------------------------------------------------
# One skew elimination mod _PRIME per sign (module docstring).


def _pfaffian(a: list[list[int]]) -> int:
    """Pfaffian mod _PRIME of the skew-symmetric integer matrix a, by skew
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
        pf = pf * rk[k + 1] % _PRIME
        inv = pow(rk[k + 1], -1, _PRIME)
        b, c = rk[k + 2:], rk1[k + 2:]
        for i in range(k + 2, size):
            x, y = rk1[i] * inv % _PRIME, rk[i] * inv % _PRIME
            if x or y:
                row = a[i]
                row[k + 2:] = [(r + x * bj - y * cj) % _PRIME
                               for r, bj, cj in zip(row[k + 2:], b, c)]
    return pf


def _pfaffian_sign(vectors: list[tuple[int, int]]) -> int:
    """The bit b with v_1...v_K = (-1)^b 2^(K/2), each (i, j) standing
    for the vector e_i - e_j: the residue mod _PRIME of the Pfaffian of
    the skew Gram matrix decides it (module docstring).  Raises
    SignMismatchError for any other residue."""
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
    pf = _pfaffian(a)
    power = pow(2, size // 2, _PRIME)
    if pf == power:
        return 0
    if pf == _PRIME - power:
        return 1
    raise SignMismatchError("product of lifts is not +-(lift of product)")


def _square_sign(factors: list[tuple[int, int]]) -> int:
    """+-1 with x^2 = +-1, x the lift with these factors (an involution's):
    the lift of the identity has no factors."""
    return -1 if _pfaffian_sign(factors + factors) else 1


# -- integer fold kernel ----------------------------------------------------
# A product of k factors (e_i - e_j)/sqrt(2) is (1/sqrt 2)^k times an
# integer combination of basis masks (its fold); pin_lift returns folds
# and _check_fold proves them.


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


def _check_fold(z: dict[int, int], factors, p: perms.Perm) -> None:
    """Verify that x = (1/sqrt 2)^k z, k = len(factors), is a pin element
    whose twisted conjugation x' e_a x^(-1) (x' the grade involution) is
    e_p(a) for every a.  Checked on z: it is parity homogeneous, so
    z' = +-z; reversal(z) folded on the right by the factors (e_i - e_j)
    is 2^k, so reversal(z) = 2^k V^(-1) = reversal(V) for V their product
    (each factor squares to 2): z = V, and x, a product of k unit
    vectors, has spinor norm 1.  Then x' e_a x^(-1) = e_p(a) is
    equivalent to z' e_a = e_p(a) z, one linear pass over z for each a
    with sign rules of its own, not those of _fold_factors."""
    parities = {m.bit_count() & 1 for m in z}
    if len(parities) != 1:
        raise CliffordError("element is not parity homogeneous")
    odd = parities.pop()
    rev = {m: -c if (m.bit_count() >> 1) & 1 else c for m, c in z.items()}
    if _fold_factors(rev, factors) != {0: 1 << len(factors)}:
        raise CliffordError("spinor norm is not 1")
    for a, b in enumerate(p):
        # e_m e_a passes the bits of m above a; e_b e_m those below b
        left = {m ^ (1 << a): -c if ((m >> (a + 1)).bit_count() ^ odd) & 1
                else c for m, c in z.items()}
        right = {m ^ (1 << b): -c if (m & ((1 << b) - 1)).bit_count() & 1
                 else c for m, c in z.items()}
        if left != right:
            raise CliffordError("lift does not act as the permutation")


def _padded(ps, n: int | None) -> list[perms.Perm]:
    """The permutations ps on n coordinates (by default their largest
    degree), each padded with fixed points, once n is within the cap."""
    degree = max(len(p) for p in ps)
    if n is None:
        n = degree
    if degree > n:
        raise CliffordError("permutation degree exceeds rank")
    if n > CLIFFORD_RANK_CAP:
        raise CliffordError(f"rank {n} exceeds CLIFFORD_RANK_CAP = {CLIFFORD_RANK_CAP}")
    return [tuple(p) + tuple(range(len(p), n)) for p in ps]


def _check_fold_size(k: int, n: int) -> None:
    """Refuse a fold of k factors on rank n above FOLD_TERMS_CAP terms."""
    if 1 << min(k, n) > FOLD_TERMS_CAP:
        raise CliffordError(f"a fold of {k} factors on rank {n} may reach "
                            f"2^{min(k, n)} terms, above FOLD_TERMS_CAP = {FOLD_TERMS_CAP}")


def pin_lift(p: perms.Perm, n: int | None = None) -> tuple[int, dict[int, int]]:
    """Pin lift of the permutation p acting on n coordinates, as (k, z):
    the lift is (1/sqrt 2)^k z, with z the integer fold of its k factors.
    Raises CliffordError unless _check_fold proves it."""
    q, = _padded([p], n)
    factors = transposition_factors(q)
    _check_fold_size(len(factors), len(q))
    z = _fold_factors({0: 1}, factors)
    _check_fold(z, factors, q)
    return len(factors), z


def involution_square_sign(n: int) -> int:
    """Square of the pin lift of (0 1)(2 3)...(n-2 n-1) on n coordinates,
    decided by one Pfaffian (`_square_sign`) and cross-checked against
    the closed form +1 iff n = 0, 2 mod 8."""
    if n < 2 or n % 2:
        raise CliffordError("need an even number of coordinates, at least 2")
    if n > CLIFFORD_RANK_CAP:
        raise CliffordError(f"rank {n} exceeds CLIFFORD_RANK_CAP = {CLIFFORD_RANK_CAP}")
    alg = _square_sign([(2 * i, 2 * i + 1) for i in range(n // 2)])
    m = n // 2
    closed = 1 if (m * (m - 1) // 2) % 2 == 0 else -1
    if alg != closed:
        raise CliffordError("algebraic and closed-form signs disagree")
    return alg


class PinCocycleResult:
    """Sign data of the pin lifts of a group's translation action."""

    __slots__ = ("group", "cocycle", "square_signs", "involutions_only")

    def __init__(self, group: groups.Group, cocycle: cohomology.Cocycle2 | None,
                 square_signs: dict[int, int], involutions_only: bool):
        self.group = group
        self.cocycle = cocycle
        self.square_signs = square_signs  # involution index -> lift(g)^2 = +-1
        self.involutions_only = involutions_only

    def __repr__(self):
        return (f"PinCocycleResult(group={self.group!r}, cocycle={self.cocycle!r}, "
                f"square_signs={self.square_signs!r}, "
                f"involutions_only={self.involutions_only!r})")

    @property
    def s_vector(self) -> tuple[int, ...]:
        return tuple(int(self.square_signs[g] == -1)
                     for g in sorted(self.square_signs))


def pin_product_sign(p: perms.Perm, q: perms.Perm, n: int | None = None) -> int:
    """The sign bit with lift(p) lift(q) = (-1)^bit lift(p after q),
    one Pfaffian over the factors of p, of q and, reversed, of p after
    q.  Raises SignMismatchError if the product fails to be proportional."""
    pp, qq = _padded([p, q], n)
    fc = _factors(perms.compose(pp, qq))
    return _pfaffian_sign(_factors(pp) + _factors(qq) + fc[::-1])


def pin_cap(involutions_only: bool) -> tuple[str, int]:
    """(name, value) of the largest group order pin_cocycle accepts."""
    return (("CLIFFORD_RANK_CAP", CLIFFORD_RANK_CAP) if involutions_only
            else ("FULL_PIN_CAP", FULL_PIN_CAP))


def pin_cocycle(G: groups.Group, involutions_only: bool = False) -> PinCocycleResult:
    """Sign cocycle c with lift(g) lift(h) = (-1)^c(g,h) lift(gh), where
    lift is the pin lift of left translation by g.  With involutions_only
    just the diagonal values at involutions (the squares) are computed.

    The full table computes only the columns of a generating set S:
    c(x, s) for x != e and s in S, each one Pfaffian (_pfaffian_sign).
    Every other column follows from a column h already known, along the
    breadth-first walk from e by right multiplication by S
    (cochains_from_columns):

        c(g, hs) = c(g, h) + c(gh, s) + c(h, s).

    Proof: with lift(h) lift(s) = e3 lift(hs), lift(g) lift(h) =
    e1 lift(gh) and lift(gh) lift(s) = e2 lift(ghs), all signs +-1,
    associativity gives lift(g) lift(hs) = e3 lift(g) lift(h) lift(s) =
    e1 e3 lift(gh) lift(s) = e1 e2 e3 lift(ghs).  So each entry is proven
    from signs that _pfaffian_sign decided, and validate() then checks
    the cocycle identity independently, by building the central extension
    the table defines (cohomology.extension_from_cocycle)."""
    n = G.order
    name, cap = pin_cap(involutions_only)
    if n > cap:
        raise CliffordError(f"group order {n} exceeds {name} = {cap}")
    rows_of = groups.left_regular(G)

    if involutions_only:
        signs = {g: _square_sign(_factors(rows_of[g])) for g in G.involutions()}
        return PinCocycleResult(G, None, signs, True)

    t = G.table
    fl = [_factors(rows_of[g]) for g in range(n)]
    columns = {s: [0] + [_pfaffian_sign(fl[x] + fl[s] + fl[t[x][s]][::-1])
                         for x in range(1, n)]
               for s in groups.generating_set(G)}
    c = cohomology.Cocycle2(G, cohomology.cochains_from_columns(G, columns, 1)[0])
    c.validate()
    signs = {g: -1 if c.value(g, g) else 1 for g in G.involutions()}
    return PinCocycleResult(G, c, signs, False)
