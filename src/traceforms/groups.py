"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  table[g][h] is the
product g*h.  Group objects are immutable once built; identity checks on
construction are exhaustive, and associativity is checked exhaustively
for orders up to ASSOC_CHECK_MAX (construction paths guarantee it above
that).
"""
from __future__ import annotations

import functools
import itertools
from math import lcm

from . import perms
from .perms import Perm

ASSOC_CHECK_MAX = 256
CLOSURE_CAP = 10_000
METACYCLIC_CAP = 128


class GroupError(ValueError):
    pass


class Group:
    __slots__ = ("order", "table", "labels", "name", "_inv", "_orders")

    def __init__(self, table, labels=None, name: str = "", check_assoc: bool | None = None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise GroupError("empty table")
        for row in table:
            if len(row) != n:
                raise GroupError("table is not square")
            if sorted(row) != list(range(n)):
                raise GroupError("table row is not a permutation of element indices")
        for j in range(n):
            col = sorted(table[i][j] for i in range(n))
            if col != list(range(n)):
                raise GroupError("table column is not a permutation of element indices")
        if any(table[0][j] != j for j in range(n)) or any(table[i][0] != i for i in range(n)):
            raise GroupError("element 0 is not a two-sided identity")
        if check_assoc is None:
            check_assoc = n <= ASSOC_CHECK_MAX
        if check_assoc:
            for a in range(n):
                ta = table[a]
                for b in range(n):
                    ab = ta[b]
                    tb = table[b]
                    if list(table[ab]) != [ta[tb[c]] for c in range(n)]:
                        raise GroupError(f"associativity fails at a={a}, b={b}")
        self.order = n
        self.table = table
        self.labels = tuple(labels) if labels is not None else None
        self.name = name
        self._inv = None
        self._orders = None

    def __repr__(self):
        tag = self.name or "group"
        return f"<Group {tag} of order {self.order}>"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        if self._inv is None:
            self._inv = tuple(self.table[g].index(0) for g in range(self.order))
        return self._inv[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, g: int) -> int:
        if self._orders is None:
            orders = [1] * self.order
            for x in range(1, self.order):
                k, acc = 1, x
                while acc != 0:
                    acc = self.table[acc][x]
                    k += 1
                orders[x] = k
            self._orders = tuple(orders)
        return self._orders[g]

    def involutions(self) -> list[int]:
        return [g for g in range(1, self.order) if self.table[g][g] == 0]

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def exponent(self) -> int:
        return lcm(1, *(self.element_order(g) for g in range(self.order)))

    def subgroup(self, members) -> "SubgroupHandle":
        return SubgroupHandle(self, members)

    def full_handle(self) -> "SubgroupHandle":
        return SubgroupHandle(self, range(self.order))

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels else str(g)


class SubgroupHandle:
    """A subgroup of a parent Group, stored as a sorted tuple of parent
    element indices.  Closure, identity and inverses are validated."""

    __slots__ = ("parent", "members", "_member_set")

    def __init__(self, parent: Group, members):
        members = tuple(sorted(set(members)))
        if not members or members[0] != 0:
            raise GroupError("subgroup must contain the identity")
        mset = frozenset(members)
        for a in members:
            if parent.inv(a) not in mset:
                raise GroupError(f"subgroup not closed under inverse at {a}")
            for b in members:
                if parent.table[a][b] not in mset:
                    raise GroupError(f"subgroup not closed under product at ({a}, {b})")
        self.parent = parent
        self.members = members
        self._member_set = mset

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in self._member_set

    def __repr__(self):
        return f"<Subgroup of order {self.order} in {self.parent!r}>"

    def as_group(self) -> Group:
        idx = {m: i for i, m in enumerate(self.members)}
        table = [[idx[self.parent.table[a][b]] for b in self.members] for a in self.members]
        labels = None
        if self.parent.labels:
            labels = [self.parent.labels[m] for m in self.members]
        return Group(table, labels=labels, name=f"subgroup#{self.order}")

    def is_cyclic(self) -> bool:
        return any(self.parent.element_order(g) == self.order for g in self.members)

    def is_elementary_abelian_2(self) -> bool:
        return all(self.parent.element_order(g) <= 2 for g in self.members)

    def is_normal(self) -> bool:
        par = self.parent
        return all(
            par.conj(g, m) in self._member_set
            for g in range(par.order)
            for m in self.members
        )

    def is_metacyclic(self) -> bool:
        """True when some cyclic normal subgroup has cyclic quotient."""
        if self.order > METACYCLIC_CAP:
            raise GroupError(f"metacyclic test capped at order {METACYCLIC_CAP}")
        H = self.as_group()
        for h in range(H.order):
            N = generated_subgroup(H, [h])
            if not N.is_normal():
                continue
            Q = quotient(H, N)
            if any(Q.element_order(q) == Q.order for q in range(Q.order)):
                return True
        return False


def closure(generators, cap: int = CLOSURE_CAP) -> Group:
    """Group generated by permutations (as image tuples), as a table.
    Element 0 is the identity; the rest are sorted by image tuple."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise GroupError("need at least one generator")
    deg = len(gens[0])
    for g in gens:
        if len(g) != deg:
            raise GroupError("generator degree mismatch")
        if not perms.is_perm(g):
            raise GroupError(f"not a permutation: {g}")
    ident = perms.identity(deg)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perms.compose(p, g)
                if q not in seen:
                    if len(seen) >= cap:
                        raise GroupError(f"closure exceeded cap of {cap} elements")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    els = [ident] + sorted(seen - {ident})
    idx = {p: i for i, p in enumerate(els)}
    table = [[idx[perms.compose(a, b)] for b in els] for a in els]
    return Group(table, labels=[perms.to_cycle_string(p) for p in els], name="closure")


def left_regular(G: Group) -> list[Perm]:
    """f(g): x -> g*x.  A homomorphism for compose(p, q)(x) = p(q(x))."""
    return [tuple(G.table[g]) for g in range(G.order)]


def regular_rep_in_alternating(G: Group) -> bool:
    """True when every left translation is an even permutation.  For odd
    order groups this is vacuously true.  For even order it must agree
    with 'the Sylow 2-subgroup is non-cyclic', asserted as a cross-check."""
    result = all(perms.signature(p) == 1 for p in left_regular(G))
    if G.order % 2 == 0:
        noncyclic = not sylow2(G).is_cyclic()
        if result != noncyclic:
            raise AssertionError(
                "even-permutation criterion disagrees with Sylow cyclicity "
                f"on {G!r}: {result} vs {noncyclic}"
            )
    return result


def generated_subgroup(G: Group, seeds) -> SubgroupHandle:
    members = {0}
    frontier = list(set(seeds) | {0})
    members.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (G.table[a][b], G.table[b][a]):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return SubgroupHandle(G, members)


def normalizer(G: Group, members) -> list[int]:
    mset = frozenset(members)
    out = []
    for g in range(G.order):
        if all(G.conj(g, m) in mset for m in mset):
            out.append(g)
    return out


def sylow2(G: Group) -> SubgroupHandle:
    """A Sylow 2-subgroup, grown inside successive normalizers."""
    target = 1
    n = G.order
    while n % 2 == 0:
        target *= 2
        n //= 2
    P = SubgroupHandle(G, [0])
    while P.order < target:
        ext = None
        for g in normalizer(G, P.members):
            if g in P:
                continue
            o = G.element_order(g)
            if o & (o - 1) == 0:  # power of two
                ext = g
                break
        if ext is None:
            raise GroupError("failed to extend 2-subgroup (table is not a group?)")
        P = generated_subgroup(G, list(P.members) + [ext])
        if P.order & (P.order - 1) != 0:
            raise GroupError("extension left the class of 2-groups")
    return P


def quotient_with_map(G: Group, N: SubgroupHandle) -> tuple[Group, tuple[int, ...]]:
    """Quotient G/N for a normal subgroup handle N, plus the projection
    list sending each element of G to its coset index."""
    if N.parent is not G:
        raise GroupError("subgroup handle belongs to a different group")
    if not N.is_normal():
        raise GroupError("subgroup is not normal")
    coset_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        members = sorted(G.table[g][m] for m in N.members)
        idx = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = idx
    # identity coset is discovered first (g = 0), so index 0 is correct
    k = len(reps)
    table = [[coset_of[G.table[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
    Q = Group(table, name=f"{G.name}/N" if G.name else "quotient")
    return Q, tuple(coset_of)


def quotient(G: Group, N: SubgroupHandle) -> Group:
    return quotient_with_map(G, N)[0]


def direct_product(G: Group, H: Group) -> Group:
    n, m = G.order, H.order
    table = [
        [G.table[a][c] * m + H.table[b][d] for c in range(n) for d in range(m)]
        for a in range(n)
        for b in range(m)
    ]
    labels = None
    if G.labels and H.labels:
        labels = [f"({G.labels[a]},{H.labels[b]})" for a in range(n) for b in range(m)]
    return Group(table, labels=labels, name=f"{G.name}x{H.name}" if G.name and H.name else "product")


def _cyclic(k: int) -> Group:
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return Group(table, labels=[str(i) for i in range(k)], name=f"cyclic{k}")


def _elem_abelian_2(k: int) -> Group:
    n = 1 << k
    table = [[i ^ j for j in range(n)] for i in range(n)]
    return Group(table, labels=[format(i, f"0{k}b") for i in range(n)], name=f"elem_abelian_2^{k}")


def _dihedral(order: int) -> Group:
    k = order // 2

    def idx(eps, i):
        return eps * k + i % k

    table = []
    labels = []
    for e1 in (0, 1):
        for i1 in range(k):
            row = []
            for e2 in (0, 1):
                for i2 in range(k):
                    # s^e1 r^i1 * s^e2 r^i2 = s^(e1+e2) r^(i1*(-1)^e2 + i2)
                    row.append(idx((e1 + e2) % 2, (i1 * (-1) ** e2 + i2) % k))
            table.append(row)
            labels.append(f"r{i1}" if e1 == 0 else f"sr{i1}")
    return Group(table, labels=labels, name=f"dihedral{order}")


def _quaternion8() -> Group:
    # x^4 = e, y^2 = x^2, y x y^-1 = x^-1; element (a, b) is x^a y^b
    def mul(p, q):
        a1, b1 = p
        a2, b2 = q
        a = (a1 + (a2 if b1 == 0 else -a2)) % 4
        b = b1 + b2
        if b == 2:
            a = (a + 2) % 4
            b = 0
        return a, b

    els = [(a, b) for b in (0, 1) for a in range(4)]
    els.sort(key=lambda p: (p != (0, 0),))
    idx = {p: i for i, p in enumerate(els)}
    table = [[idx[mul(p, q)] for q in els] for p in els]
    labels = [f"x{a}y{b}" for (a, b) in els]
    return Group(table, labels=labels, name="quaternion8")


def _sym(n: int) -> Group:
    els = [p for p in itertools.permutations(range(n))]
    idx = {p: i for i, p in enumerate(els)}
    table = [[idx[perms.compose(a, b)] for b in els] for a in els]
    return Group(table, labels=[perms.to_cycle_string(p) for p in els], name=f"sym{n}")


def _alt(n: int) -> Group:
    els = [p for p in itertools.permutations(range(n)) if perms.signature(p) == 1]
    idx = {p: i for i, p in enumerate(els)}
    table = [[idx[perms.compose(a, b)] for b in els] for a in els]
    return Group(table, labels=[perms.to_cycle_string(p) for p in els], name=f"alt{n}")


def _quat_cover() -> Group:
    """Order-16 group on pairs (a, b) in Z/4 x Z/4 with product
    (a,b)(c,d) = (a + (-1)^b c, b + d).  It has exactly 3 involutions and
    a central order-2 subgroup with quaternion quotient."""

    def mul(p, q):
        a, b = p
        c, d = q
        return (a + (c if b % 2 == 0 else -c)) % 4, (b + d) % 4

    els = [(a, b) for a in range(4) for b in range(4)]
    els.sort(key=lambda p: p != (0, 0))
    idx = {p: i for i, p in enumerate(els)}
    table = [[idx[mul(p, q)] for q in els] for p in els]
    labels = [f"({a},{b})" for (a, b) in els]
    return Group(table, labels=labels, name="quat_cover")


def catalog(name: str, param: int | None = None) -> Group:
    """Named groups.  Those with a size take it as `param`; `dihedral`
    takes the group order (so dihedral 8 has 5 involutions).  Lookups are
    case-insensitive and cached, so equal specs share one Group object."""
    return _catalog_cached(name.strip().lower(), param)


@functools.lru_cache(maxsize=None)
def _catalog_cached(name: str, param: int | None) -> Group:
    if name == "z4xz2":
        name = "Z4xZ2"
    need_param = {"cyclic", "elem_abelian_2", "dihedral", "sym", "alt"}
    if name in need_param:
        if param is None:
            raise GroupError(f"catalog group {name!r} needs a parameter")
    elif param is not None:
        raise GroupError(f"catalog group {name!r} takes no parameter")
    # bound each table before building it
    cap = f"CLOSURE_CAP = {CLOSURE_CAP}"
    if name == "cyclic" and not 1 <= param <= CLOSURE_CAP:
        raise GroupError(f"cyclic order must be between 1 and {cap}")
    if name == "elem_abelian_2" and not 0 <= param < CLOSURE_CAP.bit_length():
        raise GroupError(f"elem_abelian_2 rank k needs k >= 0 and 2^k <= {cap}")
    if name == "dihedral" and (param % 2 or not 2 <= param <= CLOSURE_CAP):
        raise GroupError(f"dihedral order must be even, >= 2 and <= {cap}")
    if name in ("sym", "alt") and not 0 <= param <= 5:
        raise GroupError(f"{name} degree must be between 0 and 5")
    if name == "cyclic":
        return _cyclic(param)
    if name == "elem_abelian_2":
        return _elem_abelian_2(param)
    if name == "dihedral":
        return _dihedral(param)
    if name == "quaternion8":
        return _quaternion8()
    if name == "sym":
        return _sym(param)
    if name == "alt":
        return _alt(param)
    if name == "Z4xZ2":
        g = direct_product(_cyclic(4), _cyclic(2))
        g.name = "Z4xZ2"
        return g
    if name == "quat_cover":
        return _quat_cover()
    raise GroupError(f"unknown catalog group {name!r}")


def group_from_spec(text: str) -> Group:
    """Parse a group spec: 'catalog:<name>[:<param>]' or
    'perms:<cycleperm>,<cycleperm>,...' (e.g. 'perms:(0 1 2 3),(0 2)')."""
    text = text.strip()
    if text.startswith("catalog:"):
        parts = text.split(":")
        if len(parts) == 2:
            return catalog(parts[1])
        if len(parts) == 3:
            return catalog(parts[1], int(parts[2]))
        raise GroupError(f"malformed catalog spec {text!r}")
    if text.startswith("perms:"):
        body = text[len("perms:"):]
        chunks = [c for c in body.split(",") if c.strip()]
        if not chunks:
            raise GroupError("no generators in perms spec")
        raw = [perms.parse_cycle_string(c) for c in chunks]
        deg = max(len(p) for p in raw)
        gens = [p + tuple(range(len(p), deg)) for p in raw]
        return closure(gens)
    raise GroupError(f"unknown group spec {text!r} (want 'catalog:...' or 'perms:...')")
