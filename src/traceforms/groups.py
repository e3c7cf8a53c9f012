"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  table[g][h] is the
product g*h.  Group objects are immutable once built.  Every table is
checked on construction: its rows are permutations of int indices, 0 is
a two-sided identity, and the product is associative.  Then it is a group
(a monoid whose elements have right inverses), so no column is checked.

Associativity is checked at a generating set only, by one argument.  It
is also the package's check of the cocycle identity: cohomology builds
the twisted product of a 2-cochain and lets Group check it.

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
generates (s^-1 is a power of s), which is how sylow2 grows a 2-subgroup
one generator at a time.

A subgroup is a Group on its own table: `subgroup` re-indexes a set of
elements that holds 0 and is closed under products (in a finite group,
such a set is a subgroup), and `sylow2` returns one.

A Group is its table and its name: an element is its index, and the
closure and catalog builders document which index each element gets.
It is a value: two groups are equal exactly when their tables are
equal, whatever their names.  What the package derives from a
group (its generating set, Sylow 2-subgroup, H² basis, the table of a
central extension) depends on the table alone, so equal groups share it:
`perms:(0 1)` and `perms:(2 3)` are one group to cohomology.h2's cache.
"""
from __future__ import annotations

import functools
import itertools
import math

from . import _as_int, _ints, _quote, perms

CLOSURE_CAP = 2048


class GroupError(ValueError):
    pass


def _of_kind(convert, x, want: str):
    """convert(x), where a TypeError, raised for an argument of the wrong
    kind, is refused as a GroupError quoting x shortened."""
    try:
        return convert(x)
    except TypeError:
        raise GroupError(f"{want}, got {_quote(x)}") from None


class Group:
    """A group on its multiplication table, held as a tuple of tuple rows.
    A row that arrives as a tuple is kept as that same object, and a row
    of any other sequence type is copied into one.  So the builders here
    and cohomology.extension_from_cocycle pass tuple rows, and each table
    is held once, not also as the builder's copy.  Groups compare by
    table (module docstring); the hash reads the order and the last row
    only, O(order), and is kept."""

    __slots__ = ("order", "table", "name", "_inv", "_orders", "_sylow2",
                 "_gens", "_walk", "_hash")

    def __init__(self, table, name: str = ""):
        table = _of_kind(lambda t: tuple(map(tuple, t)), table, "table must be rows")
        n = len(table)
        if n == 0:
            raise GroupError("empty table")
        indices = list(range(n))
        for row in table:
            if len(row) != n:
                raise GroupError("table is not square")
            if not _ints(row) or sorted(row) != indices:
                raise GroupError("table row is not a permutation of element indices")
        if any(table[0][j] != j for j in range(n)) or any(table[i][0] != i for i in range(n)):
            raise GroupError("element 0 is not a two-sided identity")
        self.order = n
        self.table = table
        self.name = name
        self._inv = None
        self._orders = None
        self._sylow2 = None
        self._gens = None
        self._walk = None
        self._hash = None
        # associativity at a generating set suffices: see the module docstring
        for a in generating_set(self):
            ta = table[a]
            for b, tb in enumerate(table):
                if table[ta[b]] != tuple(map(ta.__getitem__, tb)):
                    raise GroupError(f"associativity fails at a={a}, b={b}")

    def __repr__(self):
        tag = self.name or "group"
        return f"<Group {tag} of order {self.order}>"

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.table[-1]))
        return self._hash

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
        """Found for all elements at once: walking the powers x^k of one
        x of order o gives every x^k, of order o / gcd(k, o)."""
        if self._orders is None:
            orders = [0] * self.order
            for x in range(self.order):
                if not orders[x]:
                    walk, acc = [0], x
                    while acc != 0:
                        walk.append(acc)
                        acc = self.table[acc][x]
                        if len(walk) > self.order:  # x's column is no permutation
                            raise GroupError("table column is not a permutation")
                    o = len(walk)
                    for k, y in enumerate(walk):
                        orders[y] = o // math.gcd(k, o)
            self._orders = tuple(orders)
        return self._orders[g]

    def involutions(self) -> list[int]:
        return [g for g in range(1, self.order) if self.table[g][g] == 0]

    def is_abelian(self) -> bool:
        t, S = self.table, generating_set(self)
        return all(t[a][b] == t[b][a] for a in S for b in S)

    def is_cyclic(self) -> bool:
        return any(self.element_order(g) == self.order for g in range(self.order))


def closure(generators, cap: tuple[str, int] = ("CLOSURE_CAP", CLOSURE_CAP)) -> Group:
    """Group generated by permutations (perms.door, bounded by DEGREE_CAP),
    as a table.  Element 0 is the identity; the rest are sorted by image
    tuple.  The search stops once it finds more than cap = (name, value)
    elements."""
    gens = _of_kind(list, generators, "generators must be a sequence of permutations")
    if not gens:
        raise GroupError("need at least one generator")
    try:
        gens = perms.door(gens, ("DEGREE_CAP", perms.DEGREE_CAP))
    except ValueError as exc:
        raise GroupError(str(exc)) from None
    cap_name, cap_value = cap
    ident = perms.identity(len(gens[0]))
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
    rows = {ident: tuple(range(len(els)))}
    for q, p, k in steps:
        rows[q] = tuple(map(rows[p].__getitem__, left[k]))
    table = [rows[p] for p in els]
    return Group(table, name="closure")


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


def _span(table, gens) -> set[int]:
    """Elements reached from 0 by right multiplication by gens; in a
    group, the subgroup gens generate."""
    span, todo = {0}, [0]
    for x in todo:
        row = table[x]
        for s in gens:
            if (y := row[s]) not in span:
                span.add(y)
                todo.append(y)
    return span


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
                span = _span(G.table, S)
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


def subgroup(G: Group, members) -> Group:
    """The subgroup of G on a set of its elements, as a Group on its own
    table: member i in increasing order is element i, so the identity
    comes first.  A set of non-ints, without 0 or not closed under
    products is refused."""
    els = _of_kind(set, members, "members must be a collection of element indices")
    els = sorted(els) if _ints(els) else []
    if not els or els[0] != 0 or els[-1] >= G.order:
        raise GroupError("subgroup must be a set of element indices holding 0")
    idx = {m: i for i, m in enumerate(els)}
    try:
        table = [tuple(map(idx.__getitem__, map(G.table[a].__getitem__, els))) for a in els]
    except KeyError:
        raise GroupError("subset is not closed under products") from None
    return Group(table, name=f"subgroup of {G.name}" if G.name else "")


def sylow2(G: Group) -> Group:
    """A Sylow 2-subgroup: G itself for a 2-group, else one grown once per
    group and kept on it."""
    if G.order & (G.order - 1) == 0:
        return G
    if G._sylow2 is None:
        G._sylow2 = _grow_sylow2(G)
    return G._sylow2


def _grow_sylow2(G: Group) -> Group:
    """Extend P, from {0}, by the least g outside P of 2-power order with
    gPg^-1 = P (conjugating P's generators suffices) until |P| is the
    2-part of |G|.  Such a g exists while |P| is short of it: P lies in
    a Sylow 2-subgroup Q != P, and in a p-group some g in Q outside P
    has gPg^-1 = P."""
    target = G.order & -G.order
    gens: list[int] = []
    P = {0}
    while len(P) < target:
        ext = next((g for g in range(G.order) if g not in P
                    and (o := G.element_order(g)) & (o - 1) == 0
                    and all(G.conj(g, m) in P for m in gens)), None)
        if ext is None:
            raise GroupError("failed to extend 2-subgroup (table is not a group?)")
        gens.append(ext)
        P = _span(G.table, gens)
        if len(P) & (len(P) - 1) != 0:
            raise GroupError("extension left the class of 2-groups")
    return subgroup(G, P)


def quotient_with_map(G: Group, members) -> tuple[Group, tuple[int, ...]]:
    """Quotient G/N for the normal subgroup N of G on `members`, plus the
    projection list sending each element of G to its coset index.  N is
    normal when G's generators conjugate it into itself."""
    N = _of_kind(set, members, "members must be a collection of element indices")
    subgroup(G, N)  # refuses a set that is not a subgroup
    if not all(G.conj(g, m) in N for g in generating_set(G) for m in N):
        raise GroupError("subgroup is not normal")
    coset_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        coset = sorted(G.table[g][m] for m in N)
        idx = len(reps)
        reps.append(coset[0])
        for m in coset:
            coset_of[m] = idx
    # identity coset is discovered first (g = 0), so index 0 is correct
    k = len(reps)
    table = [tuple([coset_of[G.table[reps[a]][reps[b]]] for b in range(k)]) for a in range(k)]
    Q = Group(table, name=f"{G.name}/N" if G.name else "quotient")
    return Q, tuple(coset_of)


def _table_group(els, mul, name: str) -> Group:
    """The group on els (identity first) under mul, by its table: element
    i is els[i]."""
    idx = {p: i for i, p in enumerate(els)}
    return Group([tuple([idx[mul(p, q)] for q in els]) for p in els], name=name)


_CAP = f"CLOSURE_CAP = {CLOSURE_CAP}"
# name -> (the parameters it admits, the error naming them), or None if it
# takes none; the bounds keep every table within CLOSURE_CAP
_PARAMS = {
    "cyclic": (range(1, CLOSURE_CAP + 1), f"cyclic order must be between 1 and {_CAP}"),
    "elem_abelian_2": (range(CLOSURE_CAP.bit_length()),
                       f"elem_abelian_2 rank k needs k >= 0 and 2^k <= {_CAP}"),
    "dihedral": (range(2, CLOSURE_CAP + 1, 2),
                 f"dihedral order must be even, >= 2 and <= {_CAP}"),
    "sym": (range(6), "sym degree must be between 0 and 5"),
    "alt": (range(6), "alt degree must be between 0 and 5"),
    "quaternion8": None, "z4xz2": None, "quat_cover": None,
}


def _entry(name: str, k: int | None):
    """The catalog group `name` with parameter k, checked against _PARAMS,
    as the arguments of _table_group: its elements, identity first and in
    table order; their product; and its name."""
    if name not in _PARAMS:
        raise GroupError(f"unknown catalog group {_quote(name)}")
    if (_PARAMS[name] is None) != (k is None):
        need = "takes no" if k is not None else "needs a"
        raise GroupError(f"catalog group {_quote(name)} {need} parameter")
    if k is not None and k not in _PARAMS[name][0]:
        raise GroupError(_PARAMS[name][1])
    if name == "cyclic":
        return range(k), lambda a, b: (a + b) % k, f"cyclic{k}"
    if name == "elem_abelian_2":
        return range(1 << k), lambda a, b: a ^ b, f"elem_abelian_2^{k}"
    if name == "dihedral":
        # (e, i) is s^e r^i, and s^e1 r^i1 * s^e2 r^i2 = s^(e1+e2) r^(i1*(-1)^e2 + i2)
        m = k // 2
        return ([(e, i) for e in (0, 1) for i in range(m)],
                lambda p, q: ((p[0] + q[0]) % 2, (q[1] - p[1] if q[0] else p[1] + q[1]) % m),
                f"dihedral{k}")
    if name in ("sym", "alt"):
        els = [p for p in itertools.permutations(range(k))
               if name == "sym" or perms.signature(p) == 1]
        return els, perms.compose, f"{name}{k}"
    if name == "quaternion8":
        # (a, b) is x^a y^b, with x^4 = e, y^2 = x^2 and y x y^-1 = x^-1
        return ([(a, b) for b in (0, 1) for a in range(4)],
                lambda p, q: ((p[0] + (-q[0] if p[1] else q[0]) + 2 * (p[1] & q[1])) % 4,
                              (p[1] + q[1]) % 2), "quaternion8")
    if name == "z4xz2":
        return ([(a, b) for a in range(4) for b in range(2)],
                lambda p, q: ((p[0] + q[0]) % 4, (p[1] + q[1]) % 2), "Z4xZ2")
    # quat_cover: (a,b)(c,d) = (a + (-1)^b c, b + d) on Z/4 x Z/4; it has 3
    # involutions and a central order-2 subgroup with quaternion quotient
    return ([(a, b) for a in range(4) for b in range(4)],
            lambda p, q: ((p[0] + (-q[0] if p[1] % 2 else q[0])) % 4, (p[1] + q[1]) % 4),
            "quat_cover")


# Bound on the catalog cache: a suite run names 15 catalog groups.
CATALOG_CACHE_SIZE = 32


def _key(name: str, param: int | str | None) -> tuple[str, int | None]:
    """(name, param) as the catalog reads them, param by the integer rule."""
    name = _of_kind(str.strip, name, "catalog name must be a string").lower()
    try:
        return name, None if param is None else _as_int(param)
    except ValueError:
        raise GroupError(f"malformed catalog parameter {_quote(param)}") from None


def catalog(name: str, param: int | str | None = None) -> Group:
    """Named groups.  Those with a size take it as `param`; `dihedral`
    takes the group order (so dihedral 8 has 5 involutions).  Lookups are
    case-insensitive and cached, so equal specs share one Group object
    while the spec is among the last CATALOG_CACHE_SIZE looked up."""
    return _catalog_cached(*_key(name, param))


def catalog_order(name: str, param: int | str | None = None) -> int:
    """Order of the group `catalog(name, param)` names: the length of its
    element list, with no table built.  Raises GroupError as `catalog` does."""
    return len(_entry(*_key(name, param))[0])


@functools.lru_cache(maxsize=CATALOG_CACHE_SIZE)
def _catalog_cached(name: str, param: int | None) -> Group:
    return _table_group(*_entry(name, param))


def group_from_spec(text: str, cap: tuple[str, int] = ("CLOSURE_CAP", CLOSURE_CAP)) -> Group:
    """Parse a group spec: 'catalog:<name>[:<param>]' or
    'perms:<cycleperm>,<cycleperm>,...' (e.g. 'perms:(0 1 2 3),(0 2)').
    cap = (name, value) bounds the order before any table is built: a
    catalog spec is sized from its name, and a perms: closure stops once
    it holds more than value elements.  A perms: spec with more than
    value generators is refused before any is parsed, since a group
    within the cap has fewer distinct non-identity elements."""
    text = _of_kind(str.strip, text, "group spec must be a string")
    cap_name, cap_value = cap
    if text.startswith("catalog:"):
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise GroupError(f"malformed catalog spec {_quote(text)}")
        param = parts[2] if len(parts) == 3 else None
        n = catalog_order(parts[1], param)
        if n > cap_value:
            raise GroupError(f"group order {n} exceeds {cap_name} = {cap_value}")
        return catalog(parts[1], param)
    if text.startswith("perms:"):
        chunks = text[len("perms:"):].split(",", cap_value)
        if len(chunks) > cap_value:
            raise GroupError(f"perms spec has more than {cap_name} = {cap_value} generators")
        if not all(c.strip() for c in chunks):
            raise GroupError(f"empty generator in {_quote(text)}")
        return closure([perms.parse_cycle_string(c) for c in chunks], cap)
    raise GroupError(f"unknown group spec {_quote(text)} "
                     "(want 'catalog:...' or 'perms:...')")
