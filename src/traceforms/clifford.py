"""Pin-group lifts of permutations and the sign cocycle they induce.

Basis elements of the Clifford algebra of the positive-definite form are
indexed by bitmasks: bit k set means the generator e_k appears
(generators ascend left to right, e_k^2 = +1).  A permutation p acts on
R^n by permuting coordinates; its pin lift is the ordered product of
factors (e_i - e_j)/sqrt(2), one per transposition in a cycle
decomposition.  A lift with k factors is (1/sqrt 2)^k z, where z, its
fold, is an integer combination of basis masks.

Every sign is one word of vectors.  Let U = u_1...u_a be the product
of the factors e_i - e_j of lift(g) followed by those of lift(h), and
W = w_1...w_c that of lift(gh).  The factor count k(g) = n - #cycles(g)
is even exactly when g is, so K = a + c is even; put m = K/2.  Each
factor squares to 2, so W rev(W) = 2^c, and lift(g) lift(h) =
(-1)^b lift(gh), that is U = (-1)^b 2^((a-c)/2) W, holds exactly when

    V = u_1...u_a w_c...w_1 = (-1)^b 2^m.

Why V = +-2^m: twisted conjugation is a homomorphism Pin(n) -> O(n)
with kernel {+-1}.  The factor (e_i - e_j)/sqrt 2 maps to the
transposition (i j), and each factor list composes back to its
permutation (_factors checks it), so lift(g) lift(h) and lift(gh) map
to the same permutation and differ by a sign.

How _word_sign finds b, exactly and with integers only: it peels V one
coordinate z at a time, the largest first, by two identities that
follow from c y + y c = 2<c, y> for vectors.  For c = e_i - e_j, whose
reflection s_c swaps coordinates i and j,

    (1) c y = -s_c(y) c, since s_c(y) = y - <y, c> c and c c = 2;
    (2) c c = <c, c> = 2.

By (1), a product X of r factors has X y = (-1)^r rho_X(y) X, rho_X the
composite of their swaps.  At level z each factor on z moves left past
the factors X before it that avoid z; rho_X fixes z, so it stays
+-(e_z - e_a).  The moved factors are multiplied out left to right,
carrying one c = e_z - e_a: a next e_z - e_a gives c c = 2 by (2), and
e_z - e_b, b != a, gives c y = -(e_a - e_b) c by (1), a new factor that
avoids z.  What is left is +-2^t L X or +-2^t L c X, with L and X free
of z.  In the second case V's image in O(n) sends z to rho_L(s_c(z)) =
rho_L(a) != z, so V is no scalar and SignMismatchError is raised.  In
the first, 2t factors are gone and the rest avoid z; once the word is
empty, V = +-2^t with 2t = K, and b counts the -1s collected: one per
factor passed in (1), one per e_i - e_z read as -(e_z - e_i), one per
new factor.  A level is one pass over at most K factors: O(n K) a sign.

For the translation action of a group the signs form a 2-cocycle, and
for an involution g (h = g, c = 0) they give the sign of lift(g)^2, the
one sign involution_square_sign(|G|) at every g.  pin_cocycle computes
the products with a generating set and fills in the rest by
associativity.

Every input passes one check, _door: a permutation must pass perms.door,
and a rank be an int of at most CLIFFORD_RANK_CAP (for pin_cocycle, the
group order).  pin_lift returns a lift as (k, z) and
checks, at every rank, that z is a pin element whose twisted
conjugation gives back p (_check_fold).  _fold_factors, the Clifford
product that builds z, serves only those two; an independent algebra
over Q(sqrt 2) and the fold sign rule are kept as test oracles
(tests/clifford_oracle.py).
"""
from __future__ import annotations

from . import _ints, _quote, cohomology, groups, perms

CLIFFORD_RANK_CAP = 24   # largest number of generators, so of pin_cocycle's order
# largest 2^min(k, n) that pin_lift folds: a fold of k factors on rank n
# has at most that many terms.  A 17-cycle's lift (2^16 terms) takes
# about 0.8 s; a 20-cycle's took 7 s and 200 MB.
FOLD_TERMS_CAP = 1 << 16


class CliffordError(ValueError):
    pass


class SignMismatchError(CliffordError):
    """A product of lifts failed to be +-(the lift of the product)."""


def transposition_factors(p: perms.Perm) -> list[tuple[int, int]]:
    """Transpositions whose composition (leftmost applied last) is p;
    each cycle (c1 c2 ... ck) contributes (c1,ck), (c1,c(k-1)), ..., (c1,c2).
    A p that perms.cycles refuses is refused as a CliffordError."""
    try:
        cycs = perms.cycles(p)
    except ValueError as exc:
        raise CliffordError(str(exc)) from None
    return [(cyc[0], other) for cyc in cycs for other in reversed(cyc[1:])]


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


# -- signs by peeling the factor word ---------------------------------------
# One pass over the word per coordinate (module docstring).


def _word_sign(word: list[tuple[int, int]]) -> int:
    """The bit b with v_1...v_K = (-1)^b 2^(K/2), each (i, j) standing
    for the vector e_i - e_j, by peeling the word one coordinate z at a
    time, the largest first (module docstring).  Raises SignMismatchError
    if the product is not a scalar."""
    bit = 0
    z = max(map(max, word), default=0)
    while word:
        rho = list(range(z))  # rho_X of the factors passed so far
        peeled: list[tuple[int, int]] = []
        rest: list[tuple[int, int]] = []
        odd = 0  # parity of len(rest)
        carried = None  # a, while e_z - e_a waits to be multiplied out
        for v in word:
            i, j = v
            if i == z:
                b = rho[j]
                bit ^= odd
            elif j == z:  # e_i - e_z = -(e_z - e_i)
                b = rho[i]
                bit ^= odd ^ 1
            else:
                rest.append(v)
                rho[i], rho[j] = rho[j], rho[i]
                odd ^= 1
                continue
            if carried is None:
                carried = b
            elif carried == b:  # (e_z - e_a)^2 = 2
                carried = None
            else:  # (e_z - e_a)(e_z - e_b) = -(e_a - e_b)(e_z - e_a)
                peeled.append((carried, b))
                bit ^= 1
        if carried is not None:
            raise SignMismatchError("product of lifts is not +-(lift of product)")
        word = peeled + rest
        z -= 1
    return bit


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


def _door(ps, n: int | None) -> list[perms.Perm]:
    """ps on n coordinates (by default their largest degree), as tuples
    padded with fixed points: the layer's one input check.  A given n
    must be an int of at most CLIFFORD_RANK_CAP; perms.door, not loaded
    for a rank alone, checks ps and bounds a derived n by the same cap."""
    if n is not None or not ps:  # no permutation gives no rank
        if not _ints((n,)):
            raise CliffordError(f"rank is not an int: {_quote(n)}")
        if n > CLIFFORD_RANK_CAP:
            raise CliffordError(f"rank {_quote(n)} exceeds "
                                f"CLIFFORD_RANK_CAP = {CLIFFORD_RANK_CAP}")
        if not ps:
            return []
    try:
        return perms.door(ps, ("CLIFFORD_RANK_CAP", CLIFFORD_RANK_CAP), n, "rank")
    except ValueError as exc:
        raise CliffordError(str(exc)) from None


def pin_lift(p: perms.Perm, n: int | None = None) -> tuple[int, dict[int, int]]:
    """Pin lift of the permutation p acting on n coordinates, as (k, z):
    the lift is (1/sqrt 2)^k z, with z the integer fold of its k factors.
    Raises CliffordError unless _check_fold proves it."""
    q, = _door([p], n)
    factors = transposition_factors(q)
    k, n = len(factors), len(q)
    if 1 << min(k, n) > FOLD_TERMS_CAP:
        raise CliffordError(f"a fold of {k} factors on rank {n} may reach "
                            f"2^{min(k, n)} terms, above FOLD_TERMS_CAP = {FOLD_TERMS_CAP}")
    z = _fold_factors({0: 1}, factors)
    _check_fold(z, factors, q)
    return k, z


def involution_square_sign(n: int) -> int:
    """Square of the pin lift of (0 1)(2 3)...(n-2 n-1) on n coordinates,
    decided by one word sign; the prop-lift2 statement checks it against
    the closed form +1 iff n = 0, 2 mod 8.  It is the square at every
    fixed-point-free involution t = s (0 1)...(n-2 n-1) s^-1: lift(s)
    lift((0 1)...) lift(s)^-1 is +-lift(t), twisted conjugation being a
    homomorphism with kernel +-1, and x^2 = +-1 is central.  Left
    translation by an involution of G has no fixed point (tx = x forces
    t = e), so s_map(pin_cocycle(G)) is this one sign at every involution."""
    _door((), n)
    if n < 2 or n % 2:
        raise CliffordError("need an even number of coordinates, at least 2")
    return -1 if _word_sign([(2 * i, 2 * i + 1) for i in range(n // 2)] * 2) else 1


def pin_product_sign(p: perms.Perm, q: perms.Perm, n: int | None = None) -> int:
    """The sign bit with lift(p) lift(q) = (-1)^bit lift(p after q),
    one word sign (_word_sign) over the factors of p, of q and, reversed,
    of p after q.  Raises SignMismatchError if the product fails to be
    proportional."""
    pp, qq = _door([p, q], n)
    fc = _factors(perms.compose(pp, qq))
    return _word_sign(_factors(pp) + _factors(qq) + fc[::-1])


def pin_cocycle(G: groups.Group) -> cohomology.Cocycle2:
    """The validated sign cocycle c with lift(g) lift(h) =
    (-1)^c(g,h) lift(gh), where lift is the pin lift of left translation
    by g; its squares at the involutions are cohomology.s_map(c).  _door
    bounds the order, the rank of the translations.

    The table computes only the columns of a generating set S:
    c(x, s) for x != e and s in S, each one word sign (_word_sign).
    Every other column follows from a column h already known, along the
    breadth-first walk from e by right multiplication by S
    (cochains_from_columns):

        c(g, hs) = c(g, h) + c(gh, s) + c(h, s).

    Proof: with lift(h) lift(s) = e3 lift(hs), lift(g) lift(h) =
    e1 lift(gh) and lift(gh) lift(s) = e2 lift(ghs), all signs +-1,
    associativity gives lift(g) lift(hs) = e3 lift(g) lift(h) lift(s) =
    e1 e3 lift(gh) lift(s) = e1 e2 e3 lift(ghs).  So each entry is proven
    from signs that _word_sign decided, and validate() then checks
    the cocycle identity independently, by building the central extension
    the table defines (cohomology.extension_from_cocycle)."""
    n = groups._group(G, CliffordError).order
    _door((), n)
    t = G.table  # row g is the left translation by g
    fl = list(map(_factors, t))
    columns = {s: [0] + [_word_sign(fl[x] + fl[s] + fl[t[x][s]][::-1])
                         for x in range(1, n)]
               for s in groups.generating_set(G)}
    c = cohomology.Cocycle2(G, cohomology.cochains_from_columns(G, columns, 1)[0])
    c.validate()
    return c
