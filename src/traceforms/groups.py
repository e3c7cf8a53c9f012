"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  table[g][h] is the
product g*h.  Group objects are immutable once built.  Every table is
checked on construction: its rows and columns are permutations, 0 is a
two-sided identity, and the product is associative.

Associativity, subgroup closure and the cocycle identity (in cohomology)
are checked at a generating set only, by one argument.

Left-nucleus lemma.  In a finite magma M with identity e, the left
nucleus N = {a : (ab)c = a(bc) for all b, c} is closed under products:
for a, a' in N, ((aa')b)c = (a(a'b))c = a((a'b)c) = a(a'(bc)) = (aa')(bc).
It holds e.  So once N holds a set S from which right multiplication
reaches every element of M (each one is (..((e s1) s2)..) sk with the
si in S), N is all of M.

generating_set returns such an S for any table with identity: it takes
elements until the span, the elements reached from 0 by right
multiplication by S, is everything.  Group then checks (sb)c = s(bc)
for s in S only.  In a finite group the span of S is the subgroup S
generates (s^-1 is a power of s), so SubgroupHandle checks a set by
growing the span of its members one generator at a time, and rejects it
once a span leaves it.
"""
from __future__ import annotations

import functools
import itertools
import math

from . import perms
from .perms import Perm

CLOSURE_CAP = 2048


class GroupError(ValueError):
    pass


class Group:
    __slots__ = ("order", "table", "labels", "name", "_inv", "_orders", "_sylow2",
                 "_gens", "_walk")

    def __init__(self, table, labels=None, name: str = ""):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise GroupError("empty table")
        for row in table:
            if len(row) != n:
                raise GroupError("table is not square")
            if sorted(row) != list(range(n)):
                raise GroupError("table row is not a permutation of element indices")
        for col in zip(*table):
            if sorted(col) != list(range(n)):
                raise GroupError("table column is not a permutation of element indices")
        if any(table[0][j] != j for j in range(n)) or any(table[i][0] != i for i in range(n)):
            raise GroupError("element 0 is not a two-sided identity")
        self.order = n
        self.table = table
        self.labels = tuple(labels) if labels is not None else None
        self.name = name
        self._inv = None
        self._orders = None
        self._sylow2 = None
        self._gens = None
        self._walk = None
        # associativity at a generating set suffices: see the module docstring
        for a in generating_set(self):
            ta = table[a]
            for b, tb in enumerate(table):
                if table[ta[b]] != tuple(map(ta.__getitem__, tb)):
                    raise GroupError(f"associativity fails at a={a}, b={b}")

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
        t, S = self.table, generating_set(self)
        return all(t[a][b] == t[b][a] for a in S for b in S)

    def full_handle(self) -> "SubgroupHandle":
        return SubgroupHandle(self, range(self.order))


class SubgroupHandle:
    """A subgroup of a parent Group, stored as a sorted tuple of parent
    element indices.  The set is checked to be a subgroup by growing the
    span of its members (see the module docstring)."""

    __slots__ = ("parent", "members", "_member_set", "_gens")

    def __init__(self, parent: Group, members):
        members = tuple(sorted(set(members)))
        if not members or members[0] != 0:
            raise GroupError("subgroup must contain the identity")
        mset = frozenset(members)
        gens: list[int] = []
        span = {0}
        for m in members:
            if m not in span:
                gens.append(m)
                span = set(_span(parent.table, gens, mset))
        self.parent = parent
        self.members = members
        self._member_set = mset
        self._gens = tuple(gens)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in self._member_set

    def __repr__(self):
        return f"<Subgroup of order {self.order} in {self.parent!r}>"

    def is_cyclic(self) -> bool:
        return any(self.parent.element_order(g) == self.order for g in self.members)

    def is_normal(self) -> bool:
        """The g with gHg^-1 in H form a subgroup, and gHg^-1 is generated
        by the conjugates of H's generators, so generators suffice."""
        par = self.parent
        return all(par.conj(g, m) in self._member_set
                   for g in generating_set(par) for m in self._gens)

    def is_abelian(self) -> bool:
        """Generators that commute pairwise suffice."""
        t = self.parent.table
        return all(t[a][b] == t[b][a] for a in self._gens for b in self._gens)


def closure(generators, cap: tuple[str, int] = ("CLOSURE_CAP", CLOSURE_CAP)) -> Group:
    """Group generated by permutations (as image tuples), as a table.
    Element 0 is the identity; the rest are sorted by image tuple.  The
    search stops once it finds more than cap = (name, value) elements."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise GroupError("need at least one generator")
    deg = len(gens[0])
    for g in gens:
        if len(g) != deg:
            raise GroupError("generator degree mismatch")
        if not perms.is_perm(g):
            raise GroupError(f"not a permutation: {g}")
    cap_name, cap_value = cap
    ident = perms.identity(deg)
    seen = {ident}
    frontier = [ident]
    steps = []  # q = p * gens[k] for each new q: a spanning tree
    while frontier:
        nxt = []
        for p in frontier:
            for k, g in enumerate(gens):
                q = perms.compose(p, g)
                if q not in seen:
                    if len(seen) >= cap_value:
                        raise GroupError(f"closure exceeds {cap_name} = "
                                         f"{cap_value} elements")
                    seen.add(q)
                    nxt.append(q)
                    steps.append((q, p, k))
        frontier = nxt
    els = [ident] + sorted(seen - {ident})
    idx = {p: i for i, p in enumerate(els)}
    # (p * g) * b = p * (g * b): each row is an earlier row permuted, so
    # only products with a generator compose permutations
    left = [[idx[perms.compose(g, b)] for b in els] for g in gens]
    rows = {ident: list(range(len(els)))}
    for q, p, k in steps:
        row = rows[p]
        rows[q] = [row[x] for x in left[k]]
    table = [rows[p] for p in els]
    return Group(table, labels=[perms.to_cycle_string(p) for p in els], name="closure")


def left_regular(G: Group) -> list[Perm]:
    """f(g): x -> g*x.  A homomorphism for compose(p, q)(x) = p(q(x))."""
    return [tuple(G.table[g]) for g in range(G.order)]


def regular_rep_in_alternating(G: Group) -> bool:
    """True when every left translation is an even permutation; the sign
    of a translation is a homomorphism, so the generators decide.  For odd
    order groups this is vacuously true.  For even order it must agree
    with 'the Sylow 2-subgroup is non-cyclic', asserted as a cross-check."""
    result = all(perms.signature(G.table[s]) == 1 for s in generating_set(G))
    if G.order % 2 == 0:
        noncyclic = not sylow2(G).is_cyclic()
        if result != noncyclic:
            raise AssertionError(
                "even-permutation criterion disagrees with Sylow cyclicity "
                f"on {G!r}: {result} vs {noncyclic}"
            )
    return result


def _span(table, gens, within=None) -> list[int]:
    """Elements reached from 0 by right multiplication by gens, breadth
    first; in a group, the subgroup gens generate.  With `within` given,
    raise as soon as one falls outside it."""
    span, seen = [0], {0}
    for x in span:
        row = table[x]
        for s in gens:
            y = row[s]
            if y not in seen:
                if within is not None and y not in within:
                    raise GroupError(f"subgroup not closed under product at ({x}, {s})")
                seen.add(y)
                span.append(y)
    return span


def generated_subgroup(G: Group, seeds) -> SubgroupHandle:
    return SubgroupHandle(G, _span(G.table, sorted(set(seeds))))


def generating_set(G: Group) -> list[int]:
    """A small generating set, found once per group and kept on it:
    elements of highest order first, each one taken while the span of
    those before it is proper."""
    if G._gens is None:
        S: list[int] = []
        span = {0}
        for g in sorted(range(1, G.order), key=lambda g: (-G.element_order(g), g)):
            if len(span) == G.order:
                break
            if g not in span:
                S.append(g)
                span = set(_span(G.table, S))
        G._gens = tuple(S)
    return list(G._gens)


def cayley_walk(G: Group) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The Cayley graph of right multiplication by S = generating_set(G),
    walked breadth first from 0, once per group and kept on it: the tree
    edges (h, s), one for each x = hs != 0 in the order first reached
    (the first |S| are (0, s)), and the other edges (h, s), whose end hs
    was reached before."""
    if G._walk is None:
        t = G.table
        S = generating_set(G)
        seen = [True] + [False] * (G.order - 1)
        walk, tree, other = [0], [], []
        for h in walk:
            row = t[h]
            for s in S:
                x = row[s]
                if seen[x]:
                    other.append((h, s))
                else:
                    seen[x] = True
                    walk.append(x)
                    tree.append((h, s))
        G._walk = (tuple(tree), tuple(other))
    return G._walk


def normalizer(H: SubgroupHandle) -> list[int]:
    """The g in H's parent with gHg^-1 = H; conjugating H's generators
    suffices."""
    G = H.parent
    return [g for g in range(G.order) if all(G.conj(g, m) in H for m in H._gens)]


def sylow2(G: Group) -> SubgroupHandle:
    """A Sylow 2-subgroup, grown inside successive normalizers once per
    group and kept on it."""
    if G._sylow2 is None:
        G._sylow2 = _grow_sylow2(G)
    return G._sylow2


def _grow_sylow2(G: Group) -> SubgroupHandle:
    target = 1
    n = G.order
    while n % 2 == 0:
        target *= 2
        n //= 2
    if target == G.order:  # a 2-group is its own Sylow 2-subgroup
        return G.full_handle()
    P = SubgroupHandle(G, [0])
    gens: list[int] = []
    while P.order < target:
        ext = None
        for g in normalizer(P):
            if g in P:
                continue
            o = G.element_order(g)
            if o & (o - 1) == 0:  # power of two
                ext = g
                break
        if ext is None:
            raise GroupError("failed to extend 2-subgroup (table is not a group?)")
        gens.append(ext)
        P = generated_subgroup(G, gens)
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


def _table_group(els, mul, labels, name: str) -> Group:
    """The group on els (identity first) under mul, by its table."""
    idx = {p: i for i, p in enumerate(els)}
    return Group([[idx[mul(p, q)] for q in els] for p in els], labels=labels, name=name)


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
    return _table_group(els, mul, [f"x{a}y{b}" for (a, b) in els], "quaternion8")


def _sym(n: int) -> Group:
    els = list(itertools.permutations(range(n)))
    return _table_group(els, perms.compose, map(perms.to_cycle_string, els), f"sym{n}")


def _alt(n: int) -> Group:
    els = [p for p in itertools.permutations(range(n)) if perms.signature(p) == 1]
    return _table_group(els, perms.compose, map(perms.to_cycle_string, els), f"alt{n}")


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
    return _table_group(els, mul, [f"({a},{b})" for (a, b) in els], "quat_cover")


def _z4xz2() -> Group:
    g = direct_product(_cyclic(4), _cyclic(2))
    g.name = "Z4xZ2"
    return g


_CONSTRUCTORS = {"cyclic": _cyclic, "elem_abelian_2": _elem_abelian_2,
             "dihedral": _dihedral, "quaternion8": _quaternion8, "sym": _sym,
             "alt": _alt, "z4xz2": _z4xz2, "quat_cover": _quat_cover}


def catalog(name: str, param: int | None = None) -> Group:
    """Named groups.  Those with a size take it as `param`; `dihedral`
    takes the group order (so dihedral 8 has 5 involutions).  Lookups are
    case-insensitive and cached, so equal specs share one Group object."""
    return _catalog_cached(name.strip().lower(), param)


def catalog_order(name: str, param: int | None = None) -> int:
    """Order of the catalog group `catalog(name, param)` names, found
    without building it; raises GroupError as `catalog` does."""
    name = name.strip().lower()
    if name not in _CONSTRUCTORS:
        raise GroupError(f"unknown catalog group {name!r}")
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
    if name in ("cyclic", "dihedral"):
        return param
    if name == "elem_abelian_2":
        return 1 << param
    if name in ("sym", "alt"):
        n = math.factorial(param)
        return n // 2 if name == "alt" and n > 1 else n
    return {"quaternion8": 8, "z4xz2": 8, "quat_cover": 16}[name]


@functools.lru_cache(maxsize=None)
def _catalog_cached(name: str, param: int | None) -> Group:
    catalog_order(name, param)
    build = _CONSTRUCTORS[name]
    return build() if param is None else build(param)


def group_from_spec(text: str, cap: tuple[str, int] = ("CLOSURE_CAP", CLOSURE_CAP)) -> Group:
    """Parse a group spec: 'catalog:<name>[:<param>]' or
    'perms:<cycleperm>,<cycleperm>,...' (e.g. 'perms:(0 1 2 3),(0 2)').
    cap = (name, value) bounds the order before any table is built: a
    catalog spec is sized from its name, and a perms: closure stops once
    it holds more than value elements."""
    text = text.strip()
    cap_name, cap_value = cap
    if text.startswith("catalog:"):
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise GroupError(f"malformed catalog spec {text!r}")
        param = int(parts[2]) if len(parts) == 3 else None
        n = catalog_order(parts[1], param)
        if n > cap_value:
            raise GroupError(f"group order {n} exceeds {cap_name} = {cap_value}")
        return catalog(parts[1], param)
    if text.startswith("perms:"):
        body = text[len("perms:"):]
        chunks = [c for c in body.split(",") if c.strip()]
        if not chunks:
            raise GroupError("no generators in perms spec")
        raw = [perms.parse_cycle_string(c) for c in chunks]
        deg = max(len(p) for p in raw)
        gens = [p + tuple(range(len(p), deg)) for p in raw]
        return closure(gens, cap)
    raise GroupError(f"unknown group spec {text!r} (want 'catalog:...' or 'perms:...')")
