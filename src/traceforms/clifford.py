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
involution g the sign of lift(g)^2.  The full cocycle folds only the
products with a generating set and fills in the rest by associativity
(see pin_cocycle).

pin_lift returns a lift as (k, z) and checks, at every rank, that z is
a pin element whose twisted conjugation gives back p (_check_fold).
_fold_factors is the only Clifford product here; an independent algebra
over Q(sqrt 2) is kept as a test oracle (tests/clifford_oracle.py).
"""
from __future__ import annotations

from dataclasses import dataclass

from . import perms
from .cohomology import Cocycle2
from .groups import Group, generating_set, left_regular

CLIFFORD_RANK_CAP = 24   # largest number of generators accepted
FULL_PIN_CAP = 12        # largest group order for the full sign table


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


# -- integer fold kernel ----------------------------------------------------
# A product of k factors (e_i - e_j)/sqrt(2) is (1/sqrt 2)^k times an
# integer combination of basis masks (its fold); every sign is read off
# folds.


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


def pin_lift(p: perms.Perm, n: int | None = None) -> tuple[int, dict[int, int]]:
    """Pin lift of the permutation p acting on n coordinates, as (k, z):
    the lift is (1/sqrt 2)^k z, with z the integer fold of its k factors.
    Raises CliffordError unless _check_fold proves it."""
    q, = _padded([p], n)
    factors = transposition_factors(q)
    z = _fold_factors({0: 1}, factors)
    _check_fold(z, factors, q)
    return len(factors), z


def involution_square_sign(n: int) -> int:
    """Square of the pin lift of (0 1)(2 3)...(n-2 n-1) on n coordinates,
    computed from its fold and cross-checked against the closed form
    +1 iff n = 0, 2 mod 8."""
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
    pp, qq = _padded([p, q], n)
    fp = transposition_factors(pp)
    fq = transposition_factors(qq)
    z = _fold_factors(_fold_factors({0: 1}, fp), fq)
    fc = transposition_factors(perms.compose(pp, qq))
    return _sign_bit(z, _fold_factors({0: 1}, fc), len(fp) + len(fq) - len(fc))


def pin_cap(involutions_only: bool) -> tuple[str, int]:
    """(name, value) of the largest group order pin_cocycle accepts."""
    return (("CLIFFORD_RANK_CAP", CLIFFORD_RANK_CAP) if involutions_only
            else ("FULL_PIN_CAP", FULL_PIN_CAP))


def pin_cocycle(G: Group, involutions_only: bool = False) -> PinCocycleResult:
    """Sign cocycle c with lift(g) lift(h) = (-1)^c(g,h) lift(gh), where
    lift is the pin lift of left translation by g.  With involutions_only
    just the diagonal values at involutions (the squares) are computed.

    The full table folds only the columns of a generating set S: c(x, s)
    for x != e and s in S, each read off a fold by _sign_bit.  Every other
    column follows from a column h already known, along a breadth-first
    walk from e by right multiplication by S:

        c(g, hs) = c(g, h) + c(gh, s) + c(h, s).

    Proof: with lift(h) lift(s) = e3 lift(hs), lift(g) lift(h) =
    e1 lift(gh) and lift(gh) lift(s) = e2 lift(ghs), all signs +-1,
    associativity gives lift(g) lift(hs) = e3 lift(g) lift(h) lift(s) =
    e1 e3 lift(gh) lift(s) = e1 e2 e3 lift(ghs).  So each entry is proven
    from folds that _sign_bit verified, and validate() then checks the
    cocycle identity independently."""
    n = G.order
    name, cap = pin_cap(involutions_only)
    if n > cap:
        raise CliffordError(f"group order {n} exceeds {name} = {cap}")
    rows_of = left_regular(G)

    if involutions_only:
        signs = {g: _square_sign(transposition_factors(rows_of[g]))
                 for g in G.involutions()}
        return PinCocycleResult(G, None, signs, True)

    t = G.table
    factor_lists = [transposition_factors(rows_of[g]) for g in range(n)]
    k = [len(fl) for fl in factor_lists]
    folds = [_fold_factors({0: 1}, fl) for fl in factor_lists]
    S = generating_set(G)
    col: list[list[int] | None] = [None] * n  # col[h][g] = c(g, h)
    col[0] = [0] * n
    for s in S:
        col[s] = [0] + [
            _sign_bit(_fold_factors(folds[x], factor_lists[s]),
                      folds[t[x][s]], k[x] + k[s] - k[t[x][s]])
            for x in range(1, n)]
    walk = [0]
    for h in walk:
        for s in S:
            hs = t[h][s]
            if hs not in walk:
                walk.append(hs)
                cs = col[s]
                col[hs] = [col[h][g] ^ cs[t[g][h]] ^ cs[h] for g in range(n)]
    rows = tuple(sum(col[h][g] << h for h in range(n)) for g in range(n))
    c = Cocycle2(G, rows)
    c.validate()
    signs = {g: -1 if c.value(g, g) else 1 for g in G.involutions()}
    return PinCocycleResult(G, c, signs, False)
