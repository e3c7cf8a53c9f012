"""Degree-2 group cohomology with F2 coefficients, central extensions by
Z/2, and the obstruction map that reads a class off its values at
involutions.  A central extension is the pair (total, t) of its total
group and its kernel's involution t; its base is total/{e, t}.

A normalized 2-cocycle c on G satisfies c(e,.) = c(.,e) = 0 and

    c(g,h) + c(gh,k) + c(h,k) + c(g,hk) = 0     (over F2).

A 2-cochain is one integer whose bit g·n + h is c(g, h), the row-major
order of a `--cocycle` file; cocycle_space returns, and H2Basis
reduces, that same integer.  A class of H² is its coordinate mask in
h2(G)'s basis, which H2Basis.coords and H2Basis.representative map to
and from a cocycle.  Only Cocycle2.from_rows and rows handle its text.

For a normalized 2-cochain c, give G×F2 the twisted product
(g,a)(h,b) = (gh, a+b+c(g,h)).  Then

    ((g,a)(h,b))(k,d) and (g,a)((h,b)(k,d))

differ exactly by δc(g,h,k) in the second coordinate, so δc = 0 exactly
when the twisted product is associative, and Group checks that:
validate builds it (extension_from_cocycle).  In particular (g,a) lies
in the left nucleus iff δc(g,·,·) = 0.

cocycle_space solves for c from the right.  (k,d) lies in the right
nucleus {z : (xy)z = x(yz) for all x, y} iff δc(·,·,k) = 0.  The right
nucleus is closed under products: for z, z' in it, (xy)(zz') =
((xy)z)z' = (x(yz))z' = x((yz)z') = x(y(zz')).  It holds (e,1), since
δc(g,h,e) = 0 for normalized c, and every element is
(e,a)(s1,0)...(sk,0) for some si in S, a generating set of G.  So c is a
cocycle once δc(g,h,s) = 0 for all g, h and s in S.  Read as

    c(g, hs) = c(g, h) + c(gh, s) + c(h, s),

that fixes every column c(·, x) along a breadth-first walk of the
Cayley graph from e by right multiplication by S (groups.cayley_walk):
x = hs is reached first by one tree edge (h, s) with column h known.
A tree edge (e, s) gives column s back, and the filled cochain is
normalized: column e is 0 and c(e, hs) = c(e, h) = 0.  The unknowns
are therefore the |S|·(n-1) generator columns c(g, s), g != e, in
place of n² cells, and what is left to impose is δc(g,h,s) = 0 at the
other edges (h, s), whose end hs was reached before.

Those equations are needed only at g = a in S, |S| per edge instead of
n - 1.  Write f = δc.  Like every coboundary, f has δf = 0, which at
(a, g, h, s) reads

    f(g,h,s) + f(ag,h,s) + f(a,gh,s) + f(a,g,hs) + f(a,g,h) = 0.

So the normalized 2-cochain f_a = f(a,·,·) has
δf_a(g,h,s) = f(a,h,s) + f(g,h,s) + f(ag,h,s), which is 0 at every
tree edge (h, s): f_a obeys the fill rule as c does, and it is 0 once
its generator columns f(a,·,s) are.  For a in S they are, at the tree
edges by the fill and at the other edges by the equations.  So the
(s,0) lie in the left nucleus, and so does (e,1), because c is
normalized.  Right multiplication by these reaches every element from
(e,0), so by the left-nucleus lemma (groups module docstring) the left
nucleus is everything, and δc = 0.
"""
from __future__ import annotations

import functools

from . import _ints, _quote, gf2
from .groups import (
    Group,
    GroupError,
    _group,
    cayley_walk,
    generating_set,
    quotient_with_map,
)

H2_CAP = 64
# Bound on h2's cache.  Its key is the group's table (groups compare by
# table), so a `perms:` spec that closes into a table seen before reuses
# its basis: a `suite` run asks about 14 tables, a perfbench `library`
# round about 27.  An order-64 group and its basis keep about 115 KB (a
# dihedral closure on 32 points, by tracemalloc), so a full cache holds
# about 3.6 MB.
H2_CACHE_SIZE = 32


class CohomologyError(ValueError):
    pass


class Cocycle2:
    __slots__ = ("group", "bits")

    def __init__(self, group: Group, bits: int):  # bit g·n + h is c(g, h)
        n = _group(group, CohomologyError).order
        if not _ints((bits,)):
            raise CohomologyError(f"cocycle bits must be an integer, got {_quote(bits)}")
        if bits >> (n * n):  # negative bits shift to -1
            raise CohomologyError("cocycle bits out of range")
        column_e = ((1 << n * n) - 1) // ((1 << n) - 1)  # bit g·n for each g
        if bits & (column_e | ((1 << n) - 1)):
            raise CohomologyError("cocycle is not normalized")
        self.group = group
        self.bits = bits

    def __repr__(self):
        return f"Cocycle2(group={self.group!r}, bits={self.bits!r})"

    def value(self, g: int, h: int) -> int:
        n = self.group.order
        if not (_ints((g, h)) and 0 <= g < n and 0 <= h < n):
            raise CohomologyError(f"cell {_quote((g, h))} is not a pair of "
                                  f"element indices 0..{n - 1}")
        return (self.bits >> (g * n + h)) & 1

    def validate(self) -> None:
        """Check the cocycle identity: build the twisted product, which is
        a group exactly when c is a cocycle (module docstring)."""
        extension_from_cocycle(self)

    def add(self, other: "Cocycle2") -> "Cocycle2":
        if _cocycle(other).group != self.group:
            raise CohomologyError("cocycles live on different groups")
        return Cocycle2(self.group, self.bits ^ other.bits)

    @classmethod
    def from_rows(cls, group: Group, text: str) -> "Cocycle2":
        """The cochain whose row-major bits c(0, 0) c(0, 1) ... text holds
        as '0' and '1', with any whitespace between: a `--cocycle` file."""
        n = group.order
        bits = "".join(text.split())
        if len(bits) != n * n or set(bits) - {"0", "1"}:
            raise CohomologyError(f"cocycle file must hold exactly {n}x{n} ASCII bits")
        return cls(group, int(bits[::-1], 2))

    def rows(self) -> list[str]:
        """Row g is c(g, 0) c(g, 1) ... as '0' and '1' text; from_rows
        reads the rows back."""
        n = self.group.order
        flat = format(self.bits, f"0{n * n}b")[::-1]
        return [flat[g * n:(g + 1) * n] for g in range(n)]


def _cocycle(c) -> Cocycle2:
    """c, refused unless it is a Cocycle2."""
    if not isinstance(c, Cocycle2):
        raise CohomologyError(f"cocycle must be a Cocycle2, got {_quote(c)}")
    return c


def delta1(G: Group, b_bits: int) -> Cocycle2:
    """Coboundary of the 1-cochain b with b(e) = 0; bit g of b_bits is b(g).
    δ is linear, and δ1_x(g, h) = [g = x] + [h = x] + [gh = x] is the
    sum of row x, column x and the cells (g, g^-1 x), O(n) each: δb is
    their sum over the x with b(x) = 1."""
    n = _group(G, CohomologyError).order
    if not _ints((b_bits,)):
        raise CohomologyError(f"1-cochain bits must be an integer, got {_quote(b_bits)}")
    if b_bits & 1 or b_bits >> n:
        raise CohomologyError(f"b must be a 1-cochain on {n} elements with b(e) = 0")
    t = G.table
    inv_rows = [t[G.inv(g)] for g in range(n)]  # row g^-1 for each g
    row = (1 << n) - 1
    column = ((1 << n * n) - 1) // row  # bit g·n for each g
    bits = 0
    for x in range(1, n):
        if b_bits >> x & 1:
            bits ^= ((row << (x * n)) ^ (column << x)
                     ^ sum(1 << (g * n + r[x]) for g, r in enumerate(inv_rows)))
    return Cocycle2(G, bits)


def _check_cap(G: Group) -> None:
    """Refuse a G that is no Group or is past H2_CAP."""
    if _group(G, CohomologyError).order > H2_CAP:
        raise CohomologyError(f"group order {G.order} exceeds H2_CAP = {H2_CAP}")


def _fill(G: Group, tree, columns: dict[int, list[int]], at) -> list[list[int]]:
    """col[x][i] = c(at[i], x) for every x, from the generator columns
    columns[s][g] = c(g, s) (all g, with columns[s][0] = 0), along the
    tree edges (h, s): c(g, hs) = c(g, h) + c(gh, s) + c(h, s).  A tree
    edge (e, s) gives column s back.  The entries are ints added
    bitwise, so one pass fills many cochains at once, or linear forms
    in the unknowns."""
    t = G.table
    col = [[0] * len(at)] * G.order  # entries not yet filled stay shared
    for h, s in tree:
        cs = columns[s]
        c_hs = cs[h]
        col[t[h][s]] = [a ^ cs[t[g][h]] ^ c_hs for a, g in zip(col[h], at)]
    return col


def cochains_from_columns(G: Group, columns: dict[int, list[int]],
                          count: int) -> list[int]:
    """The bits of `count` normalized cochains filled from generator
    columns given bit-sliced: bit i of columns[s][g] is c_i(g, s).
    Each c_i satisfies δc_i(g, h, s) = 0 on the tree edges (h, s) of
    cayley_walk; it is a cocycle when that holds on the other edges too
    (module docstring)."""
    tree, _ = cayley_walk(G)
    n = G.order
    col = _fill(G, tree, columns, range(n))
    return gf2.transpose([x for row in zip(*col) for x in row], count)


def cocycle_space(G: Group) -> list[Cocycle2]:
    """Basis of the space of normalized 2-cocycles: gf2.nullspace's basis
    of the n²-unknown system (it depends only on the space).  Solved on
    the |S|·(n-1) generator columns, unknown i·(n-1) + g - 1 being
    c(g, S[i]), from |S| equations per non-tree edge of cayley_walk
    (module docstring), which read only the rows a in S.  The solutions
    are filled out to cochains bit-sliced, all in one pass, and
    gf2.reduced_basis turns them into that basis."""
    _check_cap(G)
    n = G.order
    t = G.table
    S = generating_set(G)
    tree, other = cayley_walk(G)
    w = n - 1
    unknowns = {s: [0] + [1 << j for j in range(i * w, (i + 1) * w)]
                for i, s in enumerate(S)}
    at_S = _fill(G, tree, unknowns, S)  # at_S[x][i] = c(S[i], x)
    # δc(a, h, s) = 0 for a = S[i] at the other edges (module docstring)
    rows = {at_S[h][i] ^ unknowns[s][t[a][h]] ^ unknowns[s][h] ^ at_S[t[h][s]][i]
            for h, s in other for i, a in enumerate(S)}
    rows.discard(0)
    solutions = gf2.nullspace(rows, len(S) * w)
    words = gf2.transpose(solutions, len(S) * w)  # bit i: solution i
    cochains = cochains_from_columns(
        G, {s: [0] + words[i * w:(i + 1) * w] for i, s in enumerate(S)},
        len(solutions))
    return [Cocycle2(G, v) for v in gf2.reduced_basis(cochains)]


class H2Basis:
    """Echelonized model of H^2(G, F2): coboundary pivots plus one reduced
    representative vector per basis class; dim, z2_dim and b2_dim are
    the dimensions of H², Z² and B²."""

    def __init__(self, G: Group):
        _check_cap(G)
        self.group = G
        self._b2: dict[int, int] = {}
        for x in range(1, G.order):  # the coboundaries of the indicators
            gf2.echelon_insert(self._b2, delta1(G, 1 << x).bits)
        self.b2_dim = len(self._b2)
        self._pivots = sum(1 << c for c in self._b2)  # one bit per pivot
        self._reps: list[int] = []
        self._rep_pivot: dict[int, int] = {}
        cocycles = cocycle_space(G)
        self.z2_dim = len(cocycles)
        for z in cocycles:
            resid, _ = self._reduce(z.bits)
            if resid:
                idx = len(self._reps)
                self._reps.append(resid)
                c = resid.bit_length() - 1
                self._rep_pivot[c] = idx
                self._pivots |= 1 << c
        self.dim = len(self._reps)

    def _reduce(self, v: int) -> tuple[int, int]:
        """Reduce against coboundaries and chosen representatives, top
        pivot first.  Returns (residue, mask of representatives used): the
        residue is what is left of v off the pivots, as each vector
        reduced against changes only bits at and below its pivot."""
        mask = 0
        while p := v & self._pivots:
            c = p.bit_length() - 1
            if c in self._b2:
                v ^= self._b2[c]
            else:
                idx = self._rep_pivot[c]
                v ^= self._reps[idx]
                mask ^= 1 << idx
        return v, mask

    def coords(self, c: Cocycle2) -> int:
        """Coordinate bitmask of the class of c in the chosen basis."""
        if _cocycle(c).group != self.group:
            raise CohomologyError("cocycle lives on a different group")
        residue, mask = self._reduce(c.bits)
        if residue:
            raise CohomologyError("vector is not in the cocycle space")
        return mask

    def representative(self, mask: int) -> Cocycle2:
        """The cocycle of the class with coordinate mask `mask`: the sum of
        the chosen representatives of the basis classes in it."""
        if not _ints((mask,)):
            raise CohomologyError(f"coordinate mask must be an integer, got {_quote(mask)}")
        if mask >> self.dim:
            raise CohomologyError(f"coordinate mask {_quote(mask)} out of range")
        return Cocycle2(self.group, functools.reduce(
            int.__xor__, [rep for i, rep in enumerate(self._reps) if mask >> i & 1], 0))


@functools.lru_cache(maxsize=H2_CACHE_SIZE)
def h2(G: Group) -> H2Basis:
    """h2(G)'s basis, cached by G's table.  H2Basis refuses a G that is
    no Group; an unhashable one, such as a list, raises TypeError from
    the cache before it is read."""
    return H2Basis(G)


def s_map(c: Cocycle2) -> tuple[int, ...]:
    """Values c(t, t) at the involutions t of G, in increasing index
    order.  Constant on cohomology classes, because a coboundary has
    δb(t, t) = b(t) + b(t) + b(t²) = b(e) = 0 at an involution t."""
    return tuple(c.value(t, t) for t in _cocycle(c).group.involutions())


def ker_s(G: Group) -> list[int]:
    """Basis of the kernel of s on H², as coordinate masks: row j of the
    map holds bit c(t, t), t the j-th involution, of each basis
    representative c, representative i at bit i."""
    basis, n = h2(G), G.order
    rows = [sum((rep >> (t * n + t) & 1) << i for i, rep in enumerate(basis._reps))
            for t in G.involutions()]
    return gf2.nullspace(rows, basis.dim)


def is_2_reduced(G: Group) -> bool:
    """True when the only class vanishing at every involution is zero."""
    return len(ker_s(G)) == 0


# ---------------------------------------------------------------------------
# central extensions by Z/2, each the pair (total, t) (module docstring)


def extension_from_cocycle(c: Cocycle2) -> tuple[Group, int]:
    """The extension (total, 1) of c.group by c.  total is on pairs
    (g, a), a in F2, with (g,a)(h,b) = (gh, a+b+c(g,h)); pair (g, a) gets
    index 2g + a.  Building it checks the cocycle identity: the table has
    permutation rows and identity (e,0) = 0, as c is normalized, so Group
    refuses it exactly when δc != 0 (module docstring).  t = (e,1) = 1 is
    central of order 2, as c(e,·) = c(·,e) = 0, and (g,a) -> g, index
    x -> x // 2, is a homomorphism, as products multiply first
    coordinates, with kernel {(e,0), (e,1)} = {e, t}: total/{e, t} is G."""
    G = c.group
    n, bits = G.order, c.bits
    table = []
    for g, row in enumerate(G.table):
        c_g = bits >> (g * n)
        even = []  # the row of (g, 0); that of (g, 1) flips each a + b + c
        for h, gh in enumerate(row):
            x = 2 * gh + (c_g >> h & 1)
            even += (x, x ^ 1)
        table += (tuple(even), tuple([x ^ 1 for x in even]))
    try:
        total = Group(table, name=f"ext({G.name})" if G.name else "ext")
    except GroupError as exc:
        raise CohomologyError(f"cocycle identity fails: {exc}") from None
    return total, 1


def _check_kernel(total: Group, t: int) -> None:
    """Refuse a total that is no Group, and a t that is not a central
    involution of total."""
    tt = _group(total, CohomologyError).table
    if not (_ints([t]) and 0 < t < total.order and tt[t][t] == 0):
        raise CohomologyError(f"element {_quote(t)} does not have order 2")
    if any(row[t] != x for row, x in zip(tt, tt[t])):
        raise CohomologyError(f"element {t} is not central")


def class_of_extension(total: Group, t: int) -> tuple[Group, int]:
    """The base total/{e, t} and the coordinate mask of the extension's
    class in h2(base).  quotient_with_map gives the base and the
    projection, a homomorphism with kernel {e, t}, so s(g)s(h) is s(gh)
    or t s(gh) for any section s.  The section s with s(g) the least
    element over g, so s(e) = e, defines the cocycle by
    s(g)s(h) = t^c(g,h) s(gh).  It is one by associativity of total, and
    h2(base).coords refuses any cochain outside Z² anyway."""
    _check_kernel(total, t)
    base, proj = quotient_with_map(total, [0, t])
    n, tt, bt = base.order, total.table, base.table
    sec = [0] * n
    for x in reversed(range(total.order)):
        sec[proj[x]] = x
    bits = sum((tt[sec[g]][sec[h]] != sec[bt[g][h]]) << (g * n + h)
               for g in range(1, n) for h in range(1, n))
    return base, h2(base).coords(Cocycle2(base, bits))


def two_lift_property(total: Group, t: int) -> bool:
    """True when every involution of the base total/{e, t} lifts to an
    involution of total: exactly when no x in total has x² = t.

    An x over an involution g of the base has x² in {e, t}, and its
    fibre is {x, tx}.  x and tx square alike, (tx)² = t²x² = x², because
    t is central.  So g lifts to an involution exactly when x² = e, that
    is when x² != t.  And an x with x² = t lies over an involution: x is
    not e or t, whose squares are e, so its image is not e, and that
    image squares to the image of t, which is e."""
    _check_kernel(total, t)
    return all(row[x] != t for x, row in enumerate(total.table))
