"""Degree-2 group cohomology with F2 coefficients, central extensions by
Z/2, and the obstruction map that reads a class off its values at
involutions.

A normalized 2-cocycle c on G satisfies c(e,.) = c(.,e) = 0 and

    c(g,h) + c(gh,k) + c(h,k) + c(g,hk) = 0     (over F2).

Cocycles are stored as one bit row per group element; the linear algebra
runs on flat vectors indexed by pairs of non-identity elements.

The identity only has to hold at g in a generating set S of G, so the
cocycle space is solved from |S|·(n-1)² equations in place of (n-1)³,
and validate checks as many.  For a normalized 2-cochain c, give G×F2
the product (g,a)(h,b) = (gh, a+b+c(g,h)).  Then

    ((g,a)(h,b))(k,d) and (g,a)((h,b)(k,d))

differ exactly by δc(g,h,k) in the second coordinate, so (g,a) lies in
the left nucleus iff δc(g,·,·) = 0.  The nucleus holds (e,1), because c
is normalized, and right multiplication by (e,1) and the (s,0) reaches
every element from (e,0).  So by the left-nucleus lemma (groups module
docstring) δc vanishes on all triples once it vanishes at S.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from . import gf2
from .groups import (
    Group,
    SubgroupHandle,
    generating_set,
    quotient_with_map,
)

H2_CAP = 64
# Bound on h2's cache.  Every `perms:` spec builds a new Group, so an
# unbounded cache would keep each such group and its basis alive.
H2_CACHE_SIZE = 64


class CohomologyError(ValueError):
    pass


@dataclass(frozen=True)
class Cocycle2:
    group: Group
    rows: tuple[int, ...]  # bit h of rows[g] is c(g, h)

    def __post_init__(self):
        n = self.group.order
        if len(self.rows) != n:
            raise CohomologyError("row count does not match group order")
        mask = (1 << n) - 1
        if any(r & ~mask for r in self.rows):
            raise CohomologyError("cocycle bits out of range")
        if self.rows[0] != 0 or any(r & 1 for r in self.rows):
            raise CohomologyError("cocycle is not normalized")

    def value(self, g: int, h: int) -> int:
        return (self.rows[g] >> h) & 1

    def validate(self) -> None:
        """Check the cocycle identity at g in the generating set; for a
        normalized cochain that is every triple (module docstring)."""
        n = self.group.order
        t = self.group.table
        for g in generating_set(self.group):
            for h in range(1, n):
                gh = t[g][h]
                v_gh = self.value(g, h)
                for k in range(1, n):
                    if v_gh ^ self.value(gh, k) ^ self.value(h, k) ^ self.value(g, t[h][k]):
                        raise CohomologyError(f"cocycle identity fails at ({g}, {h}, {k})")

    def add(self, other: "Cocycle2") -> "Cocycle2":
        if other.group is not self.group:
            raise CohomologyError("cocycles live on different groups")
        return Cocycle2(self.group, tuple(a ^ b for a, b in zip(self.rows, other.rows)))

    def diagonal(self) -> tuple[int, ...]:
        """Values c(g, g) at the involutions of G, in increasing index order."""
        return tuple(self.value(g, g) for g in self.group.involutions())

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    @staticmethod
    def zero(G: Group) -> "Cocycle2":
        return Cocycle2(G, (0,) * G.order)


def _vec_of(c: Cocycle2) -> int:
    n = c.group.order
    v = 0
    for g in range(1, n):
        block = c.rows[g] >> 1  # drop the h = 0 column
        v |= block << ((g - 1) * (n - 1))
    return v


def _cocycle_from_vec(G: Group, v: int) -> Cocycle2:
    n = G.order
    mask = (1 << (n - 1)) - 1
    rows = [0]
    for g in range(1, n):
        block = (v >> ((g - 1) * (n - 1))) & mask
        rows.append(block << 1)
    return Cocycle2(G, tuple(rows))


def delta1(G: Group, b_bits: int) -> Cocycle2:
    """Coboundary of the 1-cochain b with b(e) = 0; bit g of b_bits is b(g)."""
    n = G.order
    rows = [0]
    for g in range(1, n):
        bg = (b_bits >> g) & 1
        row = 0
        for h in range(1, n):
            bit = bg ^ ((b_bits >> h) & 1) ^ ((b_bits >> G.table[g][h]) & 1)
            row |= bit << h
        rows.append(row)
    return Cocycle2(G, tuple(rows))


def _check_cap(G: Group) -> None:
    if G.order > H2_CAP:
        raise CohomologyError(f"group order {G.order} exceeds H2_CAP = {H2_CAP}")


def cocycle_space(G: Group) -> list[Cocycle2]:
    """Basis of the space of normalized 2-cocycles, in the order
    gf2.nullspace gives (it depends only on the space).  The identity is
    imposed at g in a generating set only; see the module docstring."""
    _check_cap(G)
    n = G.order
    if n == 1:
        return []
    t = G.table
    w = n - 1

    def bit(g, h):  # unknown index for g, h >= 1
        return 1 << ((g - 1) * w + (h - 1))

    rows = set()
    for g in generating_set(G):
        for h in range(1, n):
            gh = t[g][h]
            base = bit(g, h)
            for k in range(1, n):
                row = base
                if gh != 0:
                    row ^= bit(gh, k)
                row ^= bit(h, k)
                hk = t[h][k]
                if hk != 0:
                    row ^= bit(g, hk)
                if row:
                    rows.add(row)
    return [_cocycle_from_vec(G, v) for v in gf2.nullspace(rows, w * w)]


def coboundary_generators(G: Group) -> list[Cocycle2]:
    """The coboundaries of the indicator 1-cochains (not reduced)."""
    return [delta1(G, 1 << g) for g in range(1, G.order)]


class H2Basis:
    """Echelonized model of H^2(G, F2): coboundary pivots plus one reduced
    representative vector per basis class."""

    def __init__(self, G: Group):
        _check_cap(G)
        self.group = G
        self._b2: dict[int, int] = {}
        for c in coboundary_generators(G):
            gf2.echelon_insert(self._b2, _vec_of(c))
        self._reps: list[int] = []
        self._rep_pivot: dict[int, int] = {}
        self._z_dim = 0
        for z in cocycle_space(G):
            self._z_dim += 1
            resid, _ = self._reduce(_vec_of(z))
            if resid:
                idx = len(self._reps)
                self._reps.append(resid)
                self._rep_pivot[resid.bit_length() - 1] = idx
        self.dim = len(self._reps)

    def _reduce(self, v: int) -> tuple[int, int]:
        """Reduce against coboundaries and chosen representatives.  Returns
        (residue, mask of representatives used)."""
        mask = 0
        residue = 0
        while v:
            c = v.bit_length() - 1
            if c in self._b2:
                v ^= self._b2[c]
            elif c in self._rep_pivot:
                idx = self._rep_pivot[c]
                v ^= self._reps[idx]
                mask ^= 1 << idx
            else:
                residue |= 1 << c
                v ^= 1 << c
        return residue, mask

    @property
    def b2_dim(self) -> int:
        return len(self._b2)

    @property
    def z2_dim(self) -> int:
        return self._z_dim

    def coords(self, c: Cocycle2) -> int:
        """Coordinate bitmask of the class of c in the chosen basis."""
        if c.group is not self.group:
            raise CohomologyError("cocycle lives on a different group")
        residue, mask = self._reduce(_vec_of(c))
        if residue:
            raise CohomologyError("vector is not in the cocycle space")
        return mask

    def is_coboundary(self, c: Cocycle2) -> bool:
        return self.coords(c) == 0

    def class_from_coords(self, mask: int) -> "CohClass":
        if mask >> self.dim:
            raise CohomologyError(f"coordinate mask {mask:#x} out of range")
        v = 0
        for i in range(self.dim):
            if (mask >> i) & 1:
                v ^= self._reps[i]
        return CohClass(self, mask, _cocycle_from_vec(self.group, v))

    def class_of(self, c: Cocycle2) -> "CohClass":
        return self.class_from_coords(self.coords(c))

    def classes(self) -> list["CohClass"]:
        return [self.class_from_coords(1 << i) for i in range(self.dim)]


@dataclass(frozen=True)
class CohClass:
    basis: H2Basis
    coords: int
    representative: Cocycle2

    def is_zero(self) -> bool:
        return self.coords == 0


@functools.lru_cache(maxsize=H2_CACHE_SIZE)
def h2(G: Group) -> H2Basis:
    return H2Basis(G)


def s_map(x) -> tuple[int, ...]:
    """Diagonal values at involutions; accepts a class or a raw cocycle.
    Constant on cohomology classes because coboundaries vanish on the
    diagonal at involutions."""
    c = x.representative if isinstance(x, CohClass) else x
    return c.diagonal()


def ker_s(G: Group) -> list[CohClass]:
    """Basis of the kernel of the involution-diagonal map on H^2."""
    basis = h2(G)
    if basis.dim == 0:
        return []
    diags = [s_map(cl) for cl in basis.classes()]
    ninv = len(diags[0])
    rows = []
    for j in range(ninv):
        row = 0
        for i in range(basis.dim):
            row |= diags[i][j] << i
        rows.append(row)
    return [basis.class_from_coords(m) for m in gf2.nullspace(rows, basis.dim)]


def is_2_reduced(G: Group) -> bool:
    """True when the only class vanishing at every involution is zero."""
    return len(ker_s(G)) == 0


# ---------------------------------------------------------------------------
# central extensions by Z/2


@dataclass(frozen=True)
class CentralExt:
    """A central extension  Z/2 -> total -> base  with kernel {0, t}."""

    base: Group
    total: Group
    t: int
    projection: tuple[int, ...]

    def __post_init__(self):
        if self.total.order != 2 * self.base.order:
            raise CohomologyError("total group must have twice the base order")
        if self.total.element_order(self.t) != 2:
            raise CohomologyError("kernel generator must have order 2")
        tt = self.total.table
        if any(tt[self.t][x] != tt[x][self.t] for x in range(self.total.order)):
            raise CohomologyError("kernel generator is not central")
        proj = self.projection
        if len(proj) != self.total.order:
            raise CohomologyError("projection length mismatch")
        if proj[0] != 0:
            raise CohomologyError("projection must send identity to identity")
        # the y with proj(xy) = proj(x)proj(y) for all x are closed under
        # products and hold 0, so a generating set of the total suffices
        bt = self.base.table
        for y in generating_set(self.total):
            if any(proj[tt[x][y]] != bt[proj[x]][proj[y]] for x in range(self.total.order)):
                raise CohomologyError("projection is not a homomorphism")
        kernel = sorted(x for x in range(self.total.order) if proj[x] == 0)
        if kernel != sorted({0, self.t}):
            raise CohomologyError("projection kernel is not {e, t}")

    def fiber(self, g: int) -> list[int]:
        return [x for x in range(self.total.order) if self.projection[x] == g]


def extension_from_cocycle(G: Group, c: Cocycle2) -> CentralExt:
    """Total group on pairs (g, a), a in F2, with
    (g,a)(h,b) = (gh, a+b+c(g,h)).  Pair (g, a) gets index 2g + a."""
    if c.group is not G:
        raise CohomologyError("cocycle lives on a different group")
    c.validate()
    n = G.order
    t = G.table
    table = []
    for g in range(n):
        for a in (0, 1):
            row = []
            for h in range(n):
                cc = c.value(g, h)
                for b in (0, 1):
                    row.append(2 * t[g][h] + (a ^ b ^ cc))
            table.append(row)
    total = Group(table, name=f"ext({G.name})" if G.name else "ext")
    proj = tuple(x // 2 for x in range(2 * n))
    return CentralExt(G, total, 1, proj)


def central_extension_from_quotient(total: Group, t: int) -> CentralExt:
    """View total/(t) as the base of a central extension, for t a central
    involution of `total`."""
    if total.element_order(t) != 2:
        raise CohomologyError(f"element {t} does not have order 2")
    if any(total.table[t][g] != total.table[g][t] for g in range(total.order)):
        raise CohomologyError(f"element {t} is not central")
    N = SubgroupHandle(total, [0, t])
    base, proj = quotient_with_map(total, N)
    return CentralExt(base, total, t, proj)


def class_of_extension(E: CentralExt, rng=None) -> CohClass:
    """Cohomology class of the extension.  A section s with s(e) = e is
    chosen (minimum index by default, random with rng) and
    s(g)s(h) = t^c(g,h) s(gh) defines the cocycle."""
    G = E.base
    n = G.order
    sec = [0] * n
    for g in range(1, n):
        fib = E.fiber(g)
        sec[g] = rng.choice(fib) if rng is not None else min(fib)
    tt = E.total.table
    rows = [0]
    for g in range(1, n):
        row = 0
        for h in range(1, n):
            z = tt[sec[g]][sec[h]]
            gh = G.table[g][h]
            if z == sec[gh]:
                bit = 0
            elif z == tt[E.t][sec[gh]]:
                bit = 1
            else:
                raise CohomologyError("section product escaped the fiber")
            row |= bit << h
        rows.append(row)
    c = Cocycle2(G, tuple(rows))
    c.validate()
    return h2(G).class_of(c)


def two_lift_property(E: CentralExt) -> bool:
    """True when every involution of the base has an order-2 preimage."""
    for g in E.base.involutions():
        if not any(E.total.element_order(x) == 2 for x in E.fiber(g)):
            return False
    return True
