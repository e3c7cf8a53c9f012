import copy
import hashlib
import itertools
import json
import operator
import random
import reprlib

import pytest

from traceforms.groups import (
    Group,
    GroupError,
    catalog,
    catalog_order,
    cayley_walk,
    closure,
    generating_set,
    group_from_spec,
    quotient_with_map,
    regular_rep_in_alternating,
    subgroup,
    sylow2,
)
from traceforms import groups, perms
from traceforms.cohomology import Cocycle2, extension_from_cocycle


def test_catalog_orders_and_involutions():
    expected = {
        ("cyclic", 2): (2, 1),
        ("cyclic", 4): (4, 1),
        ("cyclic", 8): (8, 1),
        ("cyclic", 16): (16, 1),
        ("elem_abelian_2", 3): (8, 7),
        ("dihedral", 8): (8, 5),
        ("dihedral", 16): (16, 9),
        ("quaternion8", None): (8, 1),
        ("sym", 3): (6, 3),
        ("sym", 4): (24, 9),
        ("alt", 4): (12, 3),
        ("Z4xZ2", None): (8, 3),
        ("quat_cover", None): (16, 3),
    }
    for (name, param), (order, ninv) in expected.items():
        G = catalog(name, param) if param is not None else catalog(name)
        assert G.order == order, name
        assert len(G.involutions()) == ninv, name


def test_catalog_case_insensitive():
    assert catalog("SYM", 4) is catalog("sym", 4)
    assert catalog("z4xz2") is catalog("Z4xZ2")


def test_identity_is_zero_and_table_is_group():
    for key in ("quaternion8", "quat_cover"):
        G = catalog(key)
        assert all(G.table[0][h] == h for h in range(G.order))
        assert all(G.table[g][0] == g for g in range(G.order))
        # every row/column is a permutation
        for g in range(G.order):
            assert sorted(G.table[g]) == list(range(G.order))
            assert sorted(G.table[h][g] for h in range(G.order)) == list(
                range(G.order))


def test_builders_hand_group_tuple_rows_it_keeps(monkeypatch):
    # Group copies a table of list rows, so a builder that made lists held
    # its table twice while the Group was built: an order-2048 catalog
    # group peaked at 83 MB for a table that keeps 32.5 MB
    handed = []
    real = Group.__init__

    def recording(self, table, *args, **kwargs):
        handed.append(table := list(table))
        real(self, table, *args, **kwargs)

    def kept(G):
        rows = handed[-1]
        return (all(type(row) is tuple for row in rows)
                and len(rows) == len(G.table) and all(map(operator.is_, rows, G.table)))

    monkeypatch.setattr(Group, "__init__", recording)
    S4 = closure([(1, 2, 3, 0), (1, 0, 2, 3)])
    assert kept(S4)
    assert kept(subgroup(S4, [0, *S4.involutions()[:1]]))
    D8 = groups._catalog_cached.__wrapped__("dihedral", 8)  # the catalog's builder
    assert kept(D8)
    center = [g for g in range(8) if all(D8.mul(g, h) == D8.mul(h, g) for h in range(8))]
    assert kept(quotient_with_map(D8, center)[0])
    assert kept(extension_from_cocycle(Cocycle2(D8, 0))[0])
    # rows from outside arrive as lists and are copied into tuples
    assert Group([[0, 1], [1, 0]]).table == ((0, 1), (1, 0))


def test_element_orders_quaternion():
    Q = catalog("quaternion8")
    orders = sorted(Q.element_order(g) for g in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_left_regular_is_faithful_homomorphism():
    # row g of the table is the left translation x -> g*x
    G = catalog("dihedral", 8)
    rho = G.table
    assert len(set(rho)) == G.order
    for g in range(G.order):
        for h in range(G.order):
            assert perms.compose(rho[g], rho[h]) == rho[G.table[g][h]]


def test_regular_parity_tracks_sylow_cyclicity():
    for key, param in [("cyclic", 4), ("cyclic", 8), ("elem_abelian_2", 2),
                       ("dihedral", 8), ("quaternion8", None), ("sym", 3),
                       ("sym", 4), ("alt", 4), ("Z4xZ2", None)]:
        G = catalog(key, param) if param is not None else catalog(key)
        assert regular_rep_in_alternating(G) == (not sylow2(G).is_cyclic()), key


def test_sylow2_orders():
    assert sylow2(catalog("sym", 3)).order == 2
    assert sylow2(catalog("sym", 4)).order == 8
    assert sylow2(catalog("alt", 4)).order == 4
    assert sylow2(catalog("cyclic", 12)).order == 4


def test_catalog_order_matches_built_groups():
    for name, params in (("cyclic", (1, 2, 7, 16)), ("elem_abelian_2", (0, 1, 4)),
                         ("dihedral", (2, 4, 10)), ("sym", range(6)),
                         ("alt", range(6)), ("quaternion8", (None,)),
                         ("Z4xZ2", (None,)), ("quat_cover", (None,))):
        for param in params:
            assert catalog_order(name, param) == catalog(name, param).order, (name, param)
    for name, param in (("nosuch", None), ("cyclic", None), ("quaternion8", 8),
                        ("cyclic", 4096), ("sym", 6)):
        with pytest.raises(GroupError):
            catalog_order(name, param)


def test_catalog_order_at_each_cap_builds_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(Group, "__init__", refuse)
    for name, cap, order in (("cyclic", 2048, 2048), ("elem_abelian_2", 11, 2048),
                             ("dihedral", 2048, 2048), ("sym", 5, 120), ("alt", 5, 60)):
        assert catalog_order(name, cap) == order
        beyond = cap + 2 if name == "dihedral" else cap + 1
        with pytest.raises(GroupError, match="CLOSURE_CAP = 2048|between 0 and 5"):
            catalog_order(name, beyond)


def _generated(G, seeds):
    """The subgroup seeds generate: the elements that right multiplication
    by seeds reaches from e."""
    H, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for s in seeds:
            if (y := G.mul(x, s)) not in H:
                H.add(y)
                todo.append(y)
    return H


def test_subgroup_is_abelian_matches_all_pairs():
    for G in (catalog("sym", 4), catalog("alt", 4), catalog("dihedral", 16),
              catalog("quat_cover")):
        for a in range(G.order):
            members = _generated(G, [a, G.order - 1 - a])
            want = all(G.mul(x, y) == G.mul(y, x) for x in members for y in members)
            assert subgroup(G, members).is_abelian() == want, (G, sorted(members))
    assert not sylow2(catalog("sym", 4)).is_abelian()
    assert sylow2(catalog("alt", 4)).is_abelian()


def test_quotient_with_map():
    G = catalog("quat_cover")
    # (2, 2) in the element list [(a, b) for a in range(4) for b in range(4)]
    t = 10
    assert G.table[t][t] == 0 and all(G.table[t][g] == G.table[g][t] for g in range(16))
    Q, pi = quotient_with_map(G, [0, t])
    assert Q.order == 8
    # projection is a homomorphism
    for g in range(G.order):
        for h in range(G.order):
            assert pi[G.table[g][h]] == Q.table[pi[g]][pi[h]]
    # the quotient is the quaternion group: one involution, nonabelian
    assert len(Q.involutions()) == 1
    assert not Q.is_abelian()


def test_element_orders_match_repeated_multiplication():
    for spec in ("catalog:cyclic:60", "catalog:dihedral:24", "catalog:elem_abelian_2:4",
                 "catalog:quat_cover", "catalog:sym:5", "catalog:alt:5",
                 "perms:(0 1 2),(0 1),(3 4 5),(3 4)", "perms:(0 1 2 3),(0 1),(4 5)"):
        G = group_from_spec(spec)
        for x in range(G.order):
            k, acc = 1, x
            while acc != 0:
                acc = G.mul(acc, x)
                k += 1
            assert G.element_order(x) == k, (spec, x)


def test_z4xz2_element_orders():
    Z = catalog("Z4xZ2")
    assert sorted(Z.element_order(g) for g in range(Z.order)) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_group_from_spec_catalog_and_perms():
    assert group_from_spec("catalog:sym:4").order == 24
    D8 = group_from_spec("perms:(0 1 2 3),(0 2)")
    assert D8.order == 8
    assert len(D8.involutions()) == 5


def test_closure_cap_and_bad_specs():
    with pytest.raises(GroupError):
        group_from_spec("catalog:nosuch")
    with pytest.raises(GroupError):
        group_from_spec("wat:123")
    with pytest.raises(GroupError):
        catalog("sym", 6)  # beyond the desk-scale catalog
    with pytest.raises(GroupError, match="CLOSURE_CAP = 2048"):
        group_from_spec("perms:(0 1 2 3 4 5 6),(0 1)")  # S7, 5040 elements


def test_closure_table_matches_composition():
    # closure fills rows along a spanning tree of the Cayley graph; every
    # product must be the composition of the two permutations, element i
    # being the identity for i = 0 and else the i-th of the rest by image
    # tuple, as closure documents
    for spec, deg in (("perms:(0 1 2 3),(0 2)", 4), ("perms:(0 1 2 3 4),(0 1)", 5),
                      ("perms:(0 1 2)(3 4),(1 2 3 4 5)", 6),
                      ("perms:(0 1)(2 3),(4 5)", 6)):
        G = group_from_spec(spec)
        gens = perms.door([perms.parse_cycle_string(c) for c in spec[len("perms:"):].split(",")],
                          ("DEGREE_CAP", perms.DEGREE_CAP), deg)
        e = perms.identity(deg)
        seen, todo = {e}, [e]
        for p in todo:
            for g in gens:
                if (q := perms.compose(p, g)) not in seen:
                    seen.add(q)
                    todo.append(q)
        els = [e] + sorted(seen - {e})
        idx = {p: i for i, p in enumerate(els)}
        assert len(idx) == G.order
        for a in range(G.order):
            for b in range(G.order):
                assert G.table[a][b] == idx[perms.compose(els[a], els[b])]


def test_sylow2_of_a_2group_is_the_whole_group():
    for G in (catalog("dihedral", 8), catalog("elem_abelian_2", 3),
              catalog("quat_cover"), group_from_spec("perms:(0 1),(2 3)")):
        assert sylow2(G) is G
        assert G._sylow2 is None  # not kept on itself: no reference cycle


def test_subgroup_closure_inside_parent():
    G = catalog("sym", 4)
    S = sylow2(G)
    assert type(S) is Group and S.order == 8
    # S is its members re-indexed in increasing order: (), (2 3), (0 1),
    # (0 1)(2 3), (0 2)(1 3), (0 2 1 3), (0 3 1 2) and (0 3)(1 2)
    members = [0, 1, 6, 7, 16, 17, 22, 23]
    assert S == subgroup(G, members)
    assert all(members[S.mul(a, b)] == G.mul(members[a], members[b])
               for a in range(8) for b in range(8))
    # a 2-Sylow of S4 is dihedral of order 8: 5 involutions
    assert len(S.involutions()) == 5
    assert not S.is_cyclic()
    with pytest.raises(GroupError, match="holding 0"):
        subgroup(G, members[1:])


def _intercalate_swapped_cyclic(n):
    """The table of Z/n with the 2x2 subsquare on rows and columns 1 and
    1 + n/2 swapped: still a Latin square with identity 0."""
    h = n // 2
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for i in (1, 1 + h):
        for j in (1, 1 + h):
            table[i][j] = (table[i][j] + h) % n
    return table


@pytest.mark.parametrize("n", [6, 256, 258, 1024])
def test_nonassociative_latin_square_is_rejected(n):
    t = _intercalate_swapped_cyclic(n)
    for row in t:
        assert sorted(row) == list(range(n))
    assert t[t[1][1]][2] != t[1][t[1][2]]  # (1*1)*2 != 1*(1*2)
    with pytest.raises(GroupError, match="associativity fails"):
        Group(t)


def test_nonassociative_table_is_caught_past_the_first_generator():
    # Z/60 x (swapped Z/6): the first generator taken is (1, e), of the
    # highest order 60 and in the left nucleus, so only a later one fails
    z60 = [[(i + j) % 60 for j in range(60)] for i in range(60)]
    loop = _intercalate_swapped_cyclic(6)
    table = [[z60[a][c] * 6 + loop[b][d] for c in range(60) for d in range(6)]
             for a in range(60) for b in range(6)]
    with pytest.raises(GroupError, match="associativity fails"):
        Group(table)


def _retired_generating_set(G):
    """Oracle: the former routine, whose span was the closure under
    products on both sides, swept over all pairs."""
    def span(seeds):
        members = {0} | set(seeds)
        frontier = list(members)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(members):
                    for c in (G.table[a][b], G.table[b][a]):
                        if c not in members:
                            members.add(c)
                            nxt.append(c)
            frontier = nxt
        return members

    S, sp = [], {0}
    for g in sorted(range(1, G.order), key=lambda g: (-G.element_order(g), g)):
        if len(sp) == G.order:
            break
        if g not in sp:
            S.append(g)
            sp = span(S)
    return S


def test_generating_set_matches_retired_routine():
    specs = ([f"catalog:cyclic:{k}" for k in (1, 2, 7, 12, 64)]
             + [f"catalog:dihedral:{k}" for k in (2, 8, 24, 64)]
             + [f"catalog:elem_abelian_2:{k}" for k in range(0, 7)]
             + ["catalog:quaternion8", "catalog:z4xz2", "catalog:quat_cover",
                "catalog:sym:4", "catalog:sym:5", "catalog:alt:4", "catalog:alt:5",
                "perms:(0 1 2 3),(0 4)(1 5)(2 6)(3 7)",
                "perms:(0 1 2),(0 1),(3 4 5),(3 4)",
                "perms:(0 1 2 3 4),(1 2 4 3)",
                "perms:(0 1 2),(0 1)(2 3),(4 5)"])
    for spec in specs:
        G = group_from_spec(spec)
        assert generating_set(G) == _retired_generating_set(G), spec
        assert len(_generated(G, generating_set(G))) == G.order


def test_cayley_walk_is_a_breadth_first_spanning_tree():
    """Every edge (h, s), h in G and s in S, appears once.  Edges are
    walked in the order (position of h in the walk, s in S order); the
    tree edges are the ones that reach a new element, one for each
    x != e, and every other edge ends at an element reached before."""
    for spec in ("catalog:cyclic:1", "catalog:cyclic:12", "catalog:dihedral:24",
                 "catalog:elem_abelian_2:4", "catalog:alt:5",
                 "perms:(0 1 2 3),(0 1),(4 5)"):
        G = group_from_spec(spec)
        t, S = G.table, generating_set(G)
        tree, other = cayley_walk(G)
        assert sorted(tree + other) == sorted((h, s) for h in range(G.order) for s in S)
        walk = [0] + [t[h][s] for h, s in tree]
        assert sorted(walk) == list(range(G.order)), spec
        position = {x: i for i, x in enumerate(walk)}

        def when(h, s):
            return position[h], S.index(s)

        reached = {0: (-1, 0)} | {t[h][s]: when(h, s) for h, s in tree}
        assert [when(h, s) for h, s in tree] == sorted(when(h, s) for h, s in tree)
        assert all(reached[h] < when(h, s) for h, s in tree)
        assert all(reached[t[h][s]] < when(h, s) for h, s in other), spec


def _is_subgroup_oracle(G, members):
    """All pairs: a finite set with e that is closed under products."""
    mset = set(members)
    return 0 in mset and all(G.table[a][b] in mset for a in mset for b in mset)


def _accepted(G, members):
    try:
        subgroup(G, members)
    except GroupError:
        return False
    return True


def test_subgroup_matches_all_pairs_oracle_on_order_8():
    # every subset containing e; the counts are the numbers of subgroups
    subgroups = {"cyclic:8": 4, "elem_abelian_2:3": 16, "dihedral:8": 10,
                 "quaternion8": 6, "z4xz2": 8}
    for key, count in subgroups.items():
        G = group_from_spec("catalog:" + key)
        accepted = 0
        for mask in range(1 << 7):
            members = [0] + [g for g in range(1, 8) if mask >> (g - 1) & 1]
            got = _accepted(G, members)
            assert got == _is_subgroup_oracle(G, members), (key, members)
            accepted += got
        assert accepted == count, key


def test_subgroup_matches_all_pairs_oracle_on_s4():
    G = catalog("sym", 4)
    rng = random.Random(24)
    outcomes = set()
    for _ in range(300):
        members = _generated(G, rng.sample(range(24), rng.randint(0, 2)))
        for _ in range(rng.randint(0, 2)):  # perturb: add or drop an element
            g = rng.randrange(1, 24)
            members ^= {g}
        members.add(0)
        want = _is_subgroup_oracle(G, members)
        assert _accepted(G, members) == want, sorted(members)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_quotient_refuses_exactly_the_non_normal_subgroups():
    for G in (catalog("sym", 4), catalog("dihedral", 16), catalog("quat_cover")):
        n = G.order
        seen, normal = set(), 0
        for a in range(n):
            for b in range(a, n):
                H = frozenset(_generated(G, [a, b]))
                if H in seen:
                    continue
                seen.add(H)
                want = all(G.conj(g, m) in H for g in range(n) for m in H)
                try:
                    Q, pi = quotient_with_map(G, H)
                except GroupError as exc:
                    assert not want and str(exc) == "subgroup is not normal", sorted(H)
                else:
                    assert want and Q.order * len(H) == n, sorted(H)
                    assert all(pi[m] == 0 for m in H)
                    normal += 1
        assert len(seen) > 5 and 0 < normal < len(seen), G


# sha256 of the JSON of (table, name) of catalog groups, taken while
# the groups still carried element labels
_CATALOG_DIGESTS = {
    ("cyclic", 1):
        "e451a52232c8f9d4d0f3eca38d677bdd32f53ca4e710537027073f024f48acd8",
    ("cyclic", 2):
        "f887b835e43feb375dea4def9a1f4ceb0575cb059481df2c523277405c7489ba",
    ("cyclic", 3):
        "7e2f2cb2df662dcbbc6fe469b6994c20e2a76d27d0b91b648a320f5f3db77f8a",
    ("cyclic", 4):
        "ea6f3b072183c90667df24deef7eda869fc683c5f0290126d7b5c36585d8d6f5",
    ("cyclic", 8):
        "e9da1772af4d564df36fe9fa2fad42f6e640aa88bb41e116c01b220c75110562",
    ("cyclic", 64):
        "c8ab0e0205f4adfabe73dad6dffb834cf72d0754ca4cef6b5b5559411cdb4118",
    ("elem_abelian_2", 0):
        "c06ff3c4039932791951a806e028e19aa91ca43d8cdf26f6ea51adbe036cbead",
    ("elem_abelian_2", 1):
        "9f53994a888e782a8ce71ed3dc2f39285cd7737f87ded38fc4e6e01b3902fc4f",
    ("elem_abelian_2", 2):
        "5e20aeae750fb093726c4beb30e3eb6caa8db2cfdeb11a99c239bd25bbb6a3a1",
    ("elem_abelian_2", 3):
        "7f23a0d818c6e5cde0717a8ef9ea36c4dcc2b2c8884fce22f17d934380e28a6b",
    ("elem_abelian_2", 6):
        "ba804fd63cb4c560de055f66f4ce6110faa51a7f2539d3adb41b3209b3740a66",
    ("dihedral", 2):
        "1fe6bc860b94beb8a5035b9b2f4b58fce7d15cacaf84eb2e38574b130291258e",
    ("dihedral", 4):
        "b318235571fdfe3feb16f713bf358bfb51db90a2487d679da05e74b1071d7679",
    ("dihedral", 6):
        "c99c29a3710fc2772cfa405830642fddcea284800466a91eb12e54efe60d86aa",
    ("dihedral", 8):
        "13db814843877440b7b28367d3292cfd1a9864f4927bc01e7f8366f381188b63",
    ("dihedral", 12):
        "d15c76a8a2df838d9655d38e91da8ffea554164a683f2c61cb02f3c35de0e32f",
    ("dihedral", 128):
        "ffb7658ecdb196ee5b7ccbc97b2268accef494057d17e3ae44b7f56cc7aeb59f",
    ("sym", 0):
        "553305321955d4e461de5c6298488fc9ddec2dc40f77cf315af30724889c2119",
    ("sym", 1):
        "bf2d4bf60e6f2ab305c85c0cc6cc3c7c76aa1f40c0e3fb6a4a4dbc0f5d9a9c8c",
    ("sym", 2):
        "97ef2c1979e7489766c31ab3f729aebd130a7df49c72aa668b04f61cccaca989",
    ("sym", 3):
        "2c3424cdb1f0e97290f942db3d0bcc726f97cb0f221e744136d78cb399871053",
    ("sym", 4):
        "0750fa5b61e2093244f8eaa07438115d40ffc5e438e10b0e83fd885a11db0964",
    ("sym", 5):
        "854e4f519dccd81a5318b0e0dff9805f99404fa73b67864d47ce95d71781264a",
    ("alt", 0):
        "fcca0958dee28f1ae8605ade13a4ea6008a67c6868e32a861cf3b90a29c58878",
    ("alt", 1):
        "636c7ef2343d8b08431794e64d810591c7de6ceacaf40dd081f071825b88d897",
    ("alt", 2):
        "01597fa780c112ea8eac8d17c222d039966d37dc4a2c9e3eadb5600c2560abe2",
    ("alt", 3):
        "232c9d0fa9097e5dcb4851490917ab1c8bd6314e8bce5146f8f5796abd5ba1c9",
    ("alt", 4):
        "564a884498cfac959bee7fba430fae487f882a8c937e98848b2c57c63621e697",
    ("alt", 5):
        "f9c74999893e3e8a43d9430616b2ebc000b606b4dd6788d849050e5e531fddf8",
    ("quaternion8", None):
        "c1bb79f79a2aa0ec3ad379b8cf5b8a1e2e905f61906e6aef9d9df0706eec7608",
    ("z4xz2", None):
        "dc05604508c03b190afd2b7b6f1b5c7dca55196e58a2b0bce998f1ae8653d3bd",
    ("quat_cover", None):
        "f69e459466583fe3094e6d213f9169186515e1ff1834b45b6e379365359c16ef",
}


@pytest.mark.parametrize("name, param", _CATALOG_DIGESTS, ids=str)
def test_catalog_tables_labels_and_names_are_pinned(name, param):
    G = catalog(name, param)
    blob = json.dumps([G.table, G.name]).encode()
    assert hashlib.sha256(blob).hexdigest() == _CATALOG_DIGESTS[name, param]


@pytest.mark.parametrize("call", [
    lambda: Group(((0, 1.0), (1.0, 0))),
    lambda: Group(((0, True), (True, 0))),
    lambda: Group(((0, "1"), ("1", 0))),
    lambda: subgroup(catalog("cyclic", 4), [0, 2.0]),
    lambda: subgroup(catalog("cyclic", 4), [False, 2]),
    lambda: quotient_with_map(catalog("cyclic", 4), [0, 2.0]),
    lambda: catalog("cyclic", True),
    lambda: catalog("cyclic", 2.0),
    lambda: catalog("cyclic", "1_0"),
    lambda: catalog_order("cyclic", "٣"),
    lambda: closure([(True, False)]),
    lambda: closure([(1, 0), [0, 2.0, 1]]),
    lambda: closure([range(2)]),
    lambda: catalog(None),
    lambda: group_from_spec(None),
    lambda: Group(5),
    lambda: closure(5),
    lambda: subgroup(catalog("cyclic", 4), 5),
    lambda: quotient_with_map(catalog("cyclic", 4), 5),
], ids=["float-entry", "bool-entry", "text-entry", "float-member", "bool-member",
        "float-normal-member", "bool-param", "float-param", "underscore-param",
        "digit-param", "bool-image", "float-image", "range-generator",
        "none-catalog-name", "none-spec", "int-table", "int-generators",
        "int-members", "int-normal-members"])
def test_library_input_outside_the_integer_rule_raises_group_error(call):
    # each raised TypeError or AttributeError, or answered: catalog("cyclic",
    # True) built a group named "cyclicTrue" and closure composed bools
    with pytest.raises(GroupError):
        call()


def test_an_argument_of_the_wrong_kind_is_quoted_shortened():
    with pytest.raises(GroupError) as exc:
        catalog(None)
    assert str(exc.value) == "catalog name must be a string, got None"
    with pytest.raises(GroupError) as exc:
        closure(10 ** 60)
    assert str(exc.value) == ("generators must be a sequence of permutations, "
                              f"got {reprlib.repr(10 ** 60)}")
    assert "..." in str(exc.value)


def test_integer_parameters_share_one_catalog_entry():
    assert catalog("cyclic", " 4 ") is catalog("cyclic", 4) is catalog("Cyclic", "+4")
    assert catalog_order("dihedral", "16") == 16


def test_closure_bounds_the_degree_before_it_composes(monkeypatch):
    # a 3,000-point generator was held and composed, where a perms: spec
    # refused degree 2,049 before it parsed a point
    def compose(p, q):
        raise AssertionError("composed")
    monkeypatch.setattr(perms, "compose", compose)
    with pytest.raises(GroupError, match=r"^degree 3000 exceeds DEGREE_CAP = 2048$"):
        closure([tuple(range(3000))[::-1]])
    with pytest.raises(GroupError, match=r"^degree 2049 exceeds DEGREE_CAP = 2048$"):
        closure([(1, 0), list(range(2049))])


def test_closure_pads_generators_of_mixed_degrees():
    # one degree rule with the perms: spec, which padded before closure
    # refused the mix as a "generator degree mismatch"
    G = closure([(1, 0), [0, 2, 1]])
    assert G.order == 6
    assert G.table == group_from_spec("perms:(0 1),(1 2)").table


def test_a_table_of_permutation_rows_is_accepted_exactly_when_it_is_a_group():
    # Group checks no column: with rows that are permutations, 0 a
    # two-sided identity and the product associative, every element has
    # a right inverse, so the table is a group and its columns are
    # permutations.  Of the 216 tables of order 4 with such rows, the 4
    # labelled groups (3 cyclic, 1 Klein) pass, and only Latin squares
    rows = [[p for p in itertools.permutations(range(4)) if p[0] == i] for i in (1, 2, 3)]
    accepted = []
    for r1, r2, r3 in itertools.product(*rows):
        table = ((0, 1, 2, 3), r1, r2, r3)
        try:
            Group(table)
        except GroupError:
            continue
        accepted.append(table)
    assert len(accepted) == 4
    assert all(sorted(col) == [0, 1, 2, 3] for t in accepted for col in zip(*t))


def test_groups_are_equal_exactly_when_their_tables_are():
    C4 = catalog("cyclic", 4)
    assert C4 == group_from_spec("perms:(0 1 2 3)") and C4 != catalog("elem_abelian_2", 2)
    # the points moved are not the group: the two transpositions close
    # into one table
    a, b = group_from_spec("perms:(0 1)"), group_from_spec("perms:(2 3)")
    assert a == b and hash(a) == hash(b)
    # isomorphic, but closure sorts the elements of (0 2 1 3) into another table
    other = group_from_spec("perms:(0 2 1 3)")
    assert other != C4 and other.table != C4.table
    assert C4 != C4.table and C4 != object()
    assert len({C4, group_from_spec("perms:(0 1 2 3)"), other, a, b}) == 3


def test_hashing_a_group_reads_one_row():
    # an order-2048 table holds 4,194,304 entries; the hash reads the last
    # row's 2,048 and is kept
    read = []

    class Row(tuple):
        def __hash__(self):
            read.append(len(self))
            return tuple.__hash__(self)

    G = catalog("cyclic", 2048)
    H = copy.copy(G)
    H.table, H._hash = tuple(map(Row, G.table)), None
    assert hash(H) == hash(G) and read == [2048]
    assert hash(H) == hash(G) and read == [2048]  # kept, not read again
    assert H == G

