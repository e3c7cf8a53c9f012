import pytest

from traceforms.groups import (
    Group,
    GroupError,
    catalog,
    closure,
    direct_product,
    group_from_spec,
    left_regular,
    quotient_with_map,
    regular_rep_in_alternating,
    sylow2,
)
from traceforms import perms


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


def test_element_orders_quaternion():
    Q = catalog("quaternion8")
    orders = sorted(Q.element_order(g) for g in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_left_regular_is_faithful_homomorphism():
    G = catalog("dihedral", 8)
    rho = left_regular(G)
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


def test_metacyclic_catalog_facts():
    assert sylow2(catalog("cyclic", 8)).is_metacyclic()
    assert sylow2(catalog("quaternion8")).is_metacyclic()
    assert not sylow2(catalog("elem_abelian_2", 3)).is_metacyclic()
    assert sylow2(catalog("dihedral", 8)).is_metacyclic()


def test_quotient_with_map():
    G = catalog("quat_cover")
    t = G.labels.index("(2,2)")
    H = G.subgroup([0, t])
    Q, pi = quotient_with_map(G, H)
    assert Q.order == 8
    # projection is a homomorphism
    for g in range(G.order):
        for h in range(G.order):
            assert pi[G.table[g][h]] == Q.table[pi[g]][pi[h]]
    # the quotient is the quaternion group: one involution, nonabelian
    assert len(Q.involutions()) == 1
    assert not Q.is_abelian()


def test_direct_product_and_z4xz2():
    P = direct_product(catalog("cyclic", 4), catalog("cyclic", 2))
    Z = catalog("Z4xZ2")
    assert P.order == Z.order == 8
    assert sorted(P.element_order(g) for g in range(8)) == \
        sorted(Z.element_order(g) for g in range(8))


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
    # product must be the composition of the two permutations
    for spec, deg in (("perms:(0 1 2 3),(0 2)", 4), ("perms:(0 1 2 3 4),(0 1)", 5),
                      ("perms:(0 1 2)(3 4),(1 2 3 4 5)", 6),
                      ("perms:(0 1)(2 3),(4 5)", 6)):
        G = group_from_spec(spec)
        els = [perms.parse_cycle_string(lab, deg) for lab in G.labels]
        idx = {p: i for i, p in enumerate(els)}
        assert len(idx) == G.order
        for a in range(G.order):
            for b in range(G.order):
                assert G.table[a][b] == idx[perms.compose(els[a], els[b])]


def test_sylow2_of_a_2group_is_the_whole_group():
    for G in (catalog("dihedral", 8), catalog("elem_abelian_2", 3),
              catalog("quat_cover"), group_from_spec("perms:(0 1),(2 3)")):
        assert sylow2(G).members == tuple(range(G.order))


def test_subgroup_closure_inside_parent():
    G = catalog("sym", 4)
    S = sylow2(G)
    assert S.order == 8
    H = S.as_group()
    # a 2-Sylow of S4 is dihedral of order 8: 5 involutions
    assert len(H.involutions()) == 5
    assert not S.is_cyclic()
