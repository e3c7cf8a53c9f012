import random
import types

import pytest

from traceforms import cohomology, gf2, perms
from traceforms.cohomology import (
    Cocycle2,
    CohomologyError,
    central_extension_from_quotient,
    class_of_extension,
    cocycle_space,
    delta1,
    extension_from_cocycle,
    h2,
    is_2_reduced,
    ker_s,
    s_map,
    two_lift_property,
)
from traceforms.groups import (
    Group,
    catalog,
    catalog_order,
    generating_set,
    group_from_spec,
    sylow2,
)


H2_DIMS = {
    ("cyclic", 2): 1,
    ("cyclic", 4): 1,
    ("cyclic", 8): 1,
    ("elem_abelian_2", 2): 3,
    ("elem_abelian_2", 3): 6,
    ("Z4xZ2", None): 3,
    ("quaternion8", None): 2,
    ("sym", 3): 1,
    ("sym", 4): 2,
    ("alt", 4): 1,
    ("dihedral", 8): 3,
}


def _cat(name, param):
    return catalog(name, param) if param is not None else catalog(name)


def test_h2_dimensions():
    for (name, param), dim in H2_DIMS.items():
        assert h2(_cat(name, param)).dim == dim, (name, param)


def test_cocycle_and_coboundary_dims_s4():
    G = catalog("sym", 4)
    assert len(cocycle_space(G)) == 24
    assert h2(G).b2_dim == 22


def _all_triples_cocycle_vectors(G):
    """Oracle: the cocycle identity imposed on every triple (g, h, k) of
    non-identity elements, (n-1)³ equations."""
    n, t, w = G.order, G.table, G.order - 1

    def bit(g, h):
        return 1 << ((g - 1) * w + (h - 1))

    rows = set()
    for g in range(1, n):
        for h in range(1, n):
            gh = t[g][h]
            for k in range(1, n):
                row = bit(g, h) ^ bit(h, k)
                if gh != 0:
                    row ^= bit(gh, k)
                if t[h][k] != 0:
                    row ^= bit(g, t[h][k])
                if row:
                    rows.add(row)
    return gf2.nullspace(rows, w * w)


def _from_oracle_index(n, v):
    """A vector in the oracle's index (g-1)(n-1) + (h-1), g, h >= 1, as
    Cocycle2 bits (bit g·n + h)."""
    w = n - 1
    return sum(((v >> ((g - 1) * w + (h - 1))) & 1) << (g * n + h)
               for g in range(1, n) for h in range(1, n))


_ORACLE_CATALOG = (
    [("cyclic", k) for k in (2, 3, 4, 6, 8, 12, 16, 32)]
    + [("dihedral", k) for k in (4, 6, 8, 10, 12, 16, 24, 32)]
    + [("elem_abelian_2", k) for k in range(1, 6)]
    + [("sym", 3), ("sym", 4), ("alt", 4),
       ("quaternion8", None), ("Z4xZ2", None), ("quat_cover", None)]
)
_ORACLE_PERMS = (
    "perms:(0 1 2 3),(0 1)",  # S4
    "perms:(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15),"
    "(1 15)(2 14)(3 13)(4 12)(5 11)(6 10)(7 9)",  # D32
    "perms:(0 1 2 3),(0 4)(1 5)(2 6)(3 7)",  # C4 wr C2
    "perms:(0 1 2),(0 1),(3 4 5),(3 4)",  # S3 x S3
)


def test_generator_system_matches_all_triples_oracle():
    """Imposing the identity at a generating set only gives the same
    cocycle basis, vector for vector and in the same order."""
    groups = [_cat(name, param) for name, param in _ORACLE_CATALOG]
    groups += [group_from_spec(spec) for spec in _ORACLE_PERMS]
    for G in groups:
        got = [c.bits for c in cocycle_space(G)]
        want = [_from_oracle_index(G.order, v) for v in _all_triples_cocycle_vectors(G)]
        assert got == want, G.name or G.order


def _n2_unknown_cocycle_space(G):
    """Oracle: the solver cocycle_space used before it solved on generator
    columns.  All n² cells are unknowns (bit g·n + h is c(g, h)), row e
    and column e are pinned by one-bit equations, and the identity is
    imposed at g in the generating set for every h, k: |S|·n² equations."""
    n, t = G.order, G.table
    rows = {1 << h for h in range(n)} | {1 << (g * n) for g in range(n)}
    for g in generating_set(G):
        for h in range(1, n):
            gh = t[g][h]
            base = 1 << (g * n + h)
            for k in range(1, n):
                rows.add(base ^ (1 << (gh * n + k)) ^ (1 << (h * n + k))
                         ^ (1 << (g * n + t[h][k])))
    return gf2.nullspace(rows, n * n)


# every catalog group of order <= 64 (H2_CAP), and the benchmark's
# perms: group classes
_CATALOG_TO_64 = (
    [("cyclic", k) for k in range(1, 65)]
    + [("dihedral", k) for k in range(2, 65, 2)]
    + [("elem_abelian_2", k) for k in range(7)]
    + [("sym", k) for k in range(5)] + [("alt", k) for k in range(6)]
    + [("quaternion8", None), ("z4xz2", None), ("quat_cover", None)]
)
_BENCH_PERMS = (
    "perms:(0 1 2 3),(0 2)",  # D8
    "perms:(0 1 2 3)(4 5 6 7),(0 4 2 6)(1 7 3 5)",  # Q8
    "perms:(0 1 2 3 4 5 6 7)",  # C8
    "perms:(0 1),(2 3),(4 5)",  # C2^3
    "perms:(0 1 2 3),(4 5)",  # C4xC2
    "perms:(0 1 2 3 4),(1 4)(2 3)",  # D10
    "perms:(0 1 2 3 4 5),(1 5)(2 4)",  # D12
    "perms:(0 1 2),(0 1)(2 3)",  # A4
    "perms:(0 1 2 3)(4 5 6)",  # C12
    "perms:(0 1 2 3 4 5 6 7),(1 7)(2 6)(3 5)",  # D16
    "perms:(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)",  # C16
    "perms:(0 1 2 3),(4 5 6 7)",  # C4xC4
    "perms:(0 1 2 3),(0 2),(4 5)",  # C2xD8
    "perms:(0 1 2 3 4),(1 2 4 3)",  # F20
    "perms:(0 1 2 3 4 5 6 7 8 9),(1 9)(2 8)(3 7)(4 6)",  # D20
    "perms:(0 1 2 3),(0 1)",  # S4
    "perms:(0 1 2 3 4 5 6 7 8 9 10 11),(1 11)(2 10)(3 9)(4 8)(5 7)",  # D24
    "perms:(0 1 2),(0 1)(2 3),(4 5)",  # C2xA4
    "perms:(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15),"
    "(1 15)(2 14)(3 13)(4 12)(5 11)(6 10)(7 9)",  # D32
    "perms:(0 1 2 3),(0 4)(1 5)(2 6)(3 7)",  # C4wrC2
    "perms:(0 1 2 3 4 5 6 7),(1 7)(2 6)(3 5),(8 9)",  # C2xD16
    "perms:(0 1 2),(0 1),(3 4 5),(3 4)",  # S3xS3
    "perms:(0 1 2 3),(0 1),(4 5)",  # C2xS4
    "perms:(0 1 2 3)",  # C4
    "perms:(0 1),(2 3)",  # C2^2
    "perms:(0 1 2 3 4 5)",  # C6
    "perms:(0 1 2),(0 1)",  # S3
    "perms:(0 1 2 3 4 5 6 7 8 9)",  # C10
)


def _groups_to_64():
    return ([_cat(name, param) for name, param in _CATALOG_TO_64]
            + [group_from_spec(spec) for spec in _BENCH_PERMS])


def test_sylow2_decides_2_reducedness_in_the_proven_direction():
    """[G:S] is odd for a Sylow 2-subgroup S, so restriction H²(G; F₂) ->
    H²(S; F₂) is injective; an involution of S is one of G, so a class of
    G vanishing at every involution restricts to one of S.  Hence S
    2-reduced implies G 2-reduced."""
    others = [G for G in _groups_to_64() if G.order & (G.order - 1)]
    assert len(others) == 102
    for G in others:
        S = sylow2(G)
        assert type(S) is Group and S.order == G.order & -G.order, G
        assert not is_2_reduced(S) or is_2_reduced(G), G


def test_generator_columns_match_n2_unknown_oracle():
    """Solving on the |S|·(n-1) generator columns gives the n²-unknown
    solver's basis, bit for bit and in the same order."""
    for G in _groups_to_64():
        got = [c.bits for c in cocycle_space(G)]
        assert got == _n2_unknown_cocycle_space(G), G.name or G.order


def test_generator_column_unknowns_and_equations(monkeypatch):
    """The system cocycle_space hands gf2.nullspace has |S|·(n-1)
    columns and at most |S| equations per non-tree Cayley edge."""
    seen = []
    nullspace = gf2.nullspace

    def spy(rows, ncols):
        seen.append((len(rows), ncols))
        return nullspace(rows, ncols)

    monkeypatch.setattr(gf2, "nullspace", spy)
    G = group_from_spec("perms:(0 1 2 3),(0 1),(4 5)")  # C2 x S4
    n, S = G.order, generating_set(G)
    cocycle_space(G)
    (nrows, ncols), = seen
    assert ncols == len(S) * (n - 1) < n * n
    assert 0 < nrows <= len(S) * (len(S) * n - (n - 1))


def _n2_loop_delta1(G, b_bits):
    """Oracle: delta1 as it was before it summed indicator supports,
    δb(g, h) = b(g) + b(h) + b(gh) cell by cell, n² steps."""
    n = G.order
    bits = 0
    for g in range(1, n):
        bg = (b_bits >> g) & 1
        row = 0
        for h in range(1, n):
            bit = bg ^ ((b_bits >> h) & 1) ^ ((b_bits >> G.table[g][h]) & 1)
            row |= bit << h
        bits |= row << (g * n)
    return bits


def test_delta1_matches_n2_loop_oracle():
    """delta1 from the supports of the indicators equals the cell-by-cell
    coboundary, on each indicator (the coboundaries H2Basis starts from)
    and on random 1-cochains."""
    rng = random.Random(14)
    for G in _groups_to_64():
        n = G.order
        got = [delta1(G, 1 << x).bits for x in range(1, n)]
        assert got == [_n2_loop_delta1(G, 1 << x) for x in range(1, n)], \
            G.name or n
        for _ in range(3):
            b = rng.getrandbits(n) & ~1
            assert delta1(G, b).bits == _n2_loop_delta1(G, b), G.name or n
    G = catalog("sym", 3)
    for b in (1, 0b11, 1 << 6):
        with pytest.raises(CohomologyError):
            delta1(G, b)


def test_coboundary_dim_is_order_minus_rank_of_delta():
    # dim B² = (n-1) - dim H¹ = n - 1 - dim Hom(G, Z/2)
    G = catalog("elem_abelian_2", 2)
    assert h2(G).b2_dim == 1  # 3 - 2
    G8 = catalog("cyclic", 8)
    assert h2(G8).b2_dim == 6  # 7 - 1


def _bit_by_bit_reduce(basis, v):
    """The reduction H2Basis._reduce replaced, kept as an oracle: each set
    bit of v, top first, is a coboundary pivot, a representative's pivot
    or a bit of the residue."""
    mask = residue = 0
    while v:
        c = v.bit_length() - 1
        if c in basis._b2:
            v ^= basis._b2[c]
        elif c in basis._rep_pivot:
            idx = basis._rep_pivot[c]
            v ^= basis._reps[idx]
            mask ^= 1 << idx
        else:
            residue |= 1 << c
            v ^= 1 << c
    return residue, mask


def test_reduce_at_pivots_matches_bit_by_bit_oracle():
    rng = random.Random(13)
    for name, param in [("cyclic", 8), ("dihedral", 12), ("sym", 4), ("alt", 4),
                        ("quaternion8", None), ("dihedral", 16)]:
        G = _cat(name, param)
        basis = h2(G)
        assert basis._pivots == sum(1 << c for c in [*basis._b2, *basis._rep_pivot])
        # the representatives the oracle picks from the same cocycle basis
        shadow = types.SimpleNamespace(_b2=basis._b2, _reps=[], _rep_pivot={})
        for z in cocycle_space(G):
            resid, _ = _bit_by_bit_reduce(shadow, z.bits)
            if resid:
                shadow._rep_pivot[resid.bit_length() - 1] = len(shadow._reps)
                shadow._reps.append(resid)
        assert shadow._reps == basis._reps, G
        vectors = [z.bits for z in cocycle_space(G)]
        vectors += [rng.getrandbits(G.order ** 2) for _ in range(20)]
        for v in vectors:
            assert basis._reduce(v) == _bit_by_bit_reduce(basis, v), (G, v)


def test_delta1_is_normalized_cocycle_and_coboundary():
    G = catalog("dihedral", 8)
    rng = random.Random(5)
    basis = h2(G)
    for _ in range(25):
        b = rng.getrandbits(G.order) & ~1
        c = delta1(G, b)
        c.validate()
        assert basis.coords(c) == 0
        # s_map of a coboundary vanishes at involutions
        assert set(s_map(c)) <= {0}


def test_smap_constant_on_classes():
    rng = random.Random(11)
    for key, param in [("cyclic", 4), ("elem_abelian_2", 2),
                       ("quaternion8", None), ("dihedral", 8)]:
        G = _cat(key, param)
        basis = h2(G)
        for _ in range(30):
            c = basis.representative(rng.getrandbits(basis.dim))
            shift = delta1(G, rng.getrandbits(G.order) & ~1)
            assert s_map(c.add(shift)) == s_map(c)


def test_two_reduced_verdicts():
    assert is_2_reduced(catalog("cyclic", 4))
    assert is_2_reduced(catalog("elem_abelian_2", 3))
    assert is_2_reduced(catalog("sym", 3))
    assert not is_2_reduced(catalog("quaternion8"))
    assert not is_2_reduced(catalog("Z4xZ2"))


def test_ker_s_dimensions():
    assert len(ker_s(catalog("cyclic", 8))) == 0
    assert len(ker_s(catalog("quaternion8"))) == 2
    assert len(ker_s(catalog("Z4xZ2"))) == 1


def _section_cocycle(E, sec):
    """Oracle: the cocycle of the section sec (sec[g] over g, sec[0] the
    identity) by s(g)s(h) = t^c(g,h) s(gh), cell by cell."""
    n, tt = E.base.order, E.total.table
    return Cocycle2(E.base, sum(
        (tt[sec[g]][sec[h]] != sec[E.base.table[g][h]]) << (g * n + h)
        for g in range(1, n) for h in range(1, n)))


def test_extension_round_trip_all_classes():
    """class -> extension -> class is the identity on H², for the least
    section class_of_extension takes and for randomized sections."""
    rng = random.Random(3)
    for key, param in [("cyclic", 4), ("elem_abelian_2", 2),
                       ("Z4xZ2", None), ("quaternion8", None)]:
        G = _cat(key, param)
        basis = h2(G)
        for mask in range(1 << basis.dim):
            E = extension_from_cocycle(G, basis.representative(mask))
            assert class_of_extension(E) == mask
            sec = [0] + [rng.choice(E.fiber(g)) for g in range(1, G.order)]
            assert basis.coords(_section_cocycle(E, sec)) == mask


def test_two_lift_iff_kernel_membership():
    """The lifting property of the built extension matches s_map == 0."""
    for key, param in [("cyclic", 4), ("elem_abelian_2", 2),
                       ("quaternion8", None), ("dihedral", 8)]:
        G = _cat(key, param)
        basis = h2(G)
        for mask in range(1 << basis.dim):
            c = basis.representative(mask)
            E = extension_from_cocycle(G, c)
            assert two_lift_property(E) == (set(s_map(c)) <= {0})


def test_quaternion_cover_counterexample():
    T = catalog("quat_cover")
    t = T.labels.index("(2,2)")
    E = central_extension_from_quotient(T, t)
    assert E.base.order == 8
    assert len(E.base.involutions()) == 1 and not E.base.is_abelian()
    assert two_lift_property(E)
    assert class_of_extension(E) != 0


def test_abelian_preimage_in_lifting_extensions_of_cyclic_2_groups():
    """For a cyclic 2-group, an extension with the involution-lifting
    property restricted over the cyclic subgroup generated by any element
    has abelian preimage (for the full group: the extension is abelian)."""
    for k in (2, 4, 8):
        G = catalog("cyclic", k)
        basis = h2(G)
        for mask in range(1 << basis.dim):
            E = extension_from_cocycle(G, basis.representative(mask))
            if two_lift_property(E):
                assert E.total.is_abelian(), (k, mask)


def test_central_extension_validation_errors():
    G = catalog("cyclic", 4)
    basis = h2(G)
    E = extension_from_cocycle(G, basis.representative(1))
    # kernel element must be a central involution
    with pytest.raises(CohomologyError):
        central_extension_from_quotient(E.total, 0)
    # a non-central involution is rejected
    D = catalog("dihedral", 8)
    refl = next(g for g in D.involutions()
                if any(D.table[g][h] != D.table[h][g] for h in range(8)))
    with pytest.raises(CohomologyError):
        central_extension_from_quotient(D, refl)


def test_cocycle_validation_rejects_garbage():
    G = catalog("cyclic", 4)
    bad = Cocycle2(G, 1 << (1 * 4 + 1))  # c(1,1)=1 alone is not a cocycle
    with pytest.raises(CohomologyError, match="^cocycle identity fails: "):
        bad.validate()
    Cocycle2(G, 0).validate()


def test_nontrivial_class_gives_nonsplit_group():
    """The nonzero class of Z/4 yields Z/8 (an element of order 8);
    the zero class yields Z/4 x Z/2 (exponent 4)."""
    G = catalog("cyclic", 4)
    basis = h2(G)
    E1 = extension_from_cocycle(G, basis.representative(1))
    assert max(E1.total.element_order(g) for g in range(8)) == 8
    E0 = extension_from_cocycle(G, basis.representative(0))
    assert max(E0.total.element_order(g) for g in range(8)) == 4


def _all_triples_identity_holds(c):
    """Oracle: the cocycle identity on every triple."""
    n, t = c.group.order, c.group.table
    v = c.value
    return all(v(g, h) ^ v(t[g][h], k) ^ v(h, k) ^ v(g, t[h][k]) == 0
               for g in range(n) for h in range(n) for k in range(n))


def _validate_agrees(c):
    try:
        c.validate()
        got = True
    except CohomologyError:
        got = False
    want = _all_triples_identity_holds(c)
    assert got == want, (c.group.name or c.group.order, c.bits)
    return want


def _identity_rows_at(G, gs):
    """The equations δc(g, h, k) = 0 for g in gs only, as in cocycle_space."""
    n, t, w = G.order, G.table, G.order - 1

    def bit(g, h):
        return 1 << ((g - 1) * w + (h - 1)) if g and h else 0

    return {bit(g, h) ^ bit(t[g][h], k) ^ bit(h, k) ^ bit(g, t[h][k])
            for g in gs for h in range(1, n) for k in range(1, n)} - {0}


def test_validate_matches_all_triples_oracle():
    """validate raises exactly when the all-triples check fails, on
    seeded cochains: sums of basis cocycles, the same with bits flipped,
    random ones, and solutions of the identity at all generators but
    one (these pass at most of S and are the hard case)."""
    rng = random.Random(480)
    groups = [_cat(name, param) for name, param in _ORACLE_CATALOG
              if name != "elem_abelian_2" or param <= 4]
    groups += [group_from_spec(spec) for spec in _ORACLE_PERMS[:1] + _ORACLE_PERMS[2:]]
    outcomes = set()
    for G in groups:
        n, w = G.order, G.order - 1
        basis = [z.bits for z in cocycle_space(G)]
        S = generating_set(G)
        partial = [[_from_oracle_index(n, v) for v in
                    gf2.nullspace(_identity_rows_at(G, S[:i] + S[i + 1:]), w * w)]
                   for i in range(len(S))] if len(S) > 1 else []
        for trial in range(16):
            v = 0
            for z in basis:
                if rng.getrandbits(1):
                    v ^= z
            if trial % 4 == 1:
                v ^= _from_oracle_index(n, 1 << rng.randrange(w * w))
            elif trial % 4 == 2:
                v ^= _from_oracle_index(n, (1 << rng.randrange(w * w))
                                        ^ (1 << rng.randrange(w * w)))
            elif trial % 4 == 3:
                v = _from_oracle_index(n, rng.getrandbits(w * w))
            outcomes.add(_validate_agrees(Cocycle2(G, v)))
        for space in partial:
            for _ in range(4):
                v = 0
                for z in space:
                    if rng.getrandbits(1):
                        v ^= z
                outcomes.add(_validate_agrees(Cocycle2(G, v)))
    assert outcomes == {True, False}


def test_validate_matches_all_triples_oracle_exhaustively_at_order_4():
    for G in (catalog("cyclic", 4), catalog("elem_abelian_2", 2)):
        valid = sum(_validate_agrees(Cocycle2(G, _from_oracle_index(4, v)))
                    for v in range(1 << 9))
        assert valid == 1 << len(cocycle_space(G))


def _basis_masks(basis):
    """The coordinate masks of the basis classes, 1 << i for each i."""
    return [1 << i for i in range(basis.dim)]


def _catalog_to_16():
    return [_cat(name, param) for name, param in _CATALOG_TO_64
            if catalog_order(name, param) <= 16]


def _assert_central_ext(E):
    """Oracle, on all pairs: t is a central involution, the projection is
    a homomorphism onto the base with kernel {e, t}, and the total has
    twice the base's order."""
    T, B, t, proj = E.total, E.base, E.t, E.projection
    tt, bt, m = T.table, B.table, T.order
    assert m == 2 * B.order and len(proj) == m
    assert t != 0 and tt[t][t] == 0
    assert all(tt[t][x] == tt[x][t] for x in range(m))
    assert all(proj[tt[x][y]] == bt[proj[x]][proj[y]] for x in range(m) for y in range(m))
    assert {x for x in range(m) if proj[x] == 0} == {0, t}


def test_central_ext_builders_match_all_pairs_oracle():
    """CentralExt checks nothing: each builder proves what it holds.  Both
    run on every catalog group of order <= 16, extension_from_cocycle on
    each basis class and zero, central_extension_from_quotient at each
    central involution (and at t = (e,1) of the built extensions)."""
    quotients = 0
    for G in _catalog_to_16():
        basis = h2(G)
        for c in [Cocycle2(G, 0), *map(basis.representative, _basis_masks(basis))]:
            E = extension_from_cocycle(G, c)
            _assert_central_ext(E)
            _assert_central_ext(central_extension_from_quotient(E.total, E.t))
        for t in G.involutions():
            if all(G.table[t][x] == G.table[x][t] for x in range(G.order)):
                _assert_central_ext(central_extension_from_quotient(G, t))
                quotients += 1
    assert quotients > 20


def _cell_by_cell_table(G, c):
    """Oracle: the twisted table built one cell at a time from c.value,
    as extension_from_cocycle once did."""
    n, t = G.order, G.table
    table = []
    for g in range(n):
        for a in (0, 1):
            row = []
            for h in range(n):
                cc = c.value(g, h)
                for b in (0, 1):
                    row.append(2 * t[g][h] + (a ^ b ^ cc))
            table.append(tuple(row))
    return tuple(table)


def test_extension_table_matches_cell_by_cell_oracle():
    for G in _catalog_to_16() + [catalog("elem_abelian_2", 6), catalog("dihedral", 64)]:
        basis = h2(G)
        masks = [0, *_basis_masks(basis), (1 << basis.dim) - 1]
        for c in map(basis.representative, masks):
            E = extension_from_cocycle(G, c)
            assert E.total.table == _cell_by_cell_table(G, c), (G.name, c.bits)
            assert E.t == 1 and E.projection == tuple(x // 2 for x in range(2 * G.order))


def test_single_bit_flips_are_refused_exactly_when_the_identity_breaks():
    """Flip each inner bit c(g, h), g, h != e, of each basis representative
    on every catalog group of order <= 16: validate refuses the result
    exactly when the all-triples oracle does."""
    outcomes = set()
    for G in _catalog_to_16():
        n = G.order
        basis = h2(G)
        for bits in (basis.representative(m).bits for m in _basis_masks(basis)):
            for g in range(1, n):
                for h in range(1, n):
                    outcomes.add(_validate_agrees(Cocycle2(G, bits ^ 1 << (g * n + h))))
    assert outcomes == {True, False}


def test_validate_works_above_h2_cap():
    G = catalog("dihedral", 128)
    Cocycle2(G, 0).validate()
    with pytest.raises(CohomologyError, match="^cocycle identity fails: "):
        Cocycle2(G, 1 << (1 * G.order + 1)).validate()  # c(1,1) = 1 alone


def test_h2_cap_names_the_limit():
    with pytest.raises(CohomologyError, match="H2_CAP = 64"):
        h2(catalog("cyclic", 65))


def test_ker_s_and_representatives_match_brute_force_over_every_mask():
    """For every group of the corpus with dim H² <= 10: ker_s is, in
    order, the GF(2) basis (gf2.reduced_basis, nullspace's convention)
    of the masks whose representative vanishes at every involution, found
    over all 2^dim masks; coords inverts representative on every mask,
    and representative refuses a mask outside the basis; and up to order
    16 each basis representative reads back from its row text, whose
    cell (g, h) is c(g, h)."""
    seen = 0
    for G in _groups_to_64():
        basis = h2(G)
        if basis.dim > 10:
            continue
        seen += 1
        masks = range(1 << basis.dim)
        reps = [basis.representative(m) for m in masks]
        assert [basis.coords(c) for c in reps] == list(masks), G
        for m in (-1, 1 << basis.dim):
            with pytest.raises(CohomologyError, match="^coordinate mask .* out of range$"):
                basis.representative(m)
        kernel = [m for m, c in zip(masks, reps) if not any(s_map(c))]
        assert ker_s(G) == gf2.reduced_basis(kernel), G
        if G.order <= 16:
            n = G.order
            for c in map(basis.representative, _basis_masks(basis)):
                rows = c.rows()
                assert rows == ["".join(str(c.value(g, h)) for h in range(n))
                                for g in range(n)], G
                assert Cocycle2.from_rows(G, "\n".join(rows)).bits == c.bits, G
    assert seen == 143


def test_a_cocycle_belongs_to_every_group_on_its_table():
    # a basis, a cocycle and the twisted table depend only on the table,
    # so groups built apart on one table share them
    G1, G2 = catalog("cyclic", 4), group_from_spec("perms:(0 1 2 3)")
    assert G1 is not G2 and h2(G1) is h2(G2)
    c = h2(G1).representative(1)
    E = extension_from_cocycle(G2, c)
    assert E.base is G2 and E.total.table == extension_from_cocycle(G1, c).total.table
    assert h2(G2).coords(c) == 1
    assert c.add(Cocycle2(G2, c.bits)).bits == 0
    # the isomorphic table of (0 2 1 3) is another group
    other = group_from_spec("perms:(0 2 1 3)")
    assert other != G1
    for refused in (lambda: extension_from_cocycle(other, c),
                    lambda: h2(other).coords(c), lambda: c.add(Cocycle2(other, 0))):
        with pytest.raises(CohomologyError, match="different group"):
            refused()


def _s4_generating_sets(count, seed):
    """perms: specs of S4 as the benchmark's S4 block draws them: (0 1 2 3)
    and (0 1), with up to two products of them added, shuffled."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        gens = [perms.parse_cycle_string("(0 1 2 3)"), perms.parse_cycle_string("(0 1)", 4)]
        for _ in range(rng.randint(0, 2)):
            gens.append(perms.compose(rng.choice(gens), rng.choice(gens)))
        gens = [g for g in gens if g != perms.identity(4)]
        rng.shuffle(gens)
        specs.append("perms:" + ",".join(map(perms.to_cycle_string, gens)))
    return specs


def test_generating_sets_of_one_table_share_one_solve():
    # each perms: spec closes into a new Group, but all twelve sort S4's
    # elements into one table; keyed by the Group object they made 12 solves
    specs = _s4_generating_sets(12, seed=41)
    assert len(set(specs)) > 3
    h2.cache_clear()
    dims = {h2(group_from_spec(spec)).dim for spec in specs}
    assert dims == {2} and h2.cache_info().misses == 1


def test_every_h2_miss_is_one_solve(monkeypatch):
    # perfbench's tracer checks its count of wrapped H2Basis solves against
    # h2's misses; over a mixed stream of specs (catalog and perms:,
    # repeated, and two of them on one table) each distinct table is solved
    # once, and once only
    solved = []
    real = cohomology.H2Basis.__init__

    def counting(self, G):
        solved.append(G)
        real(self, G)

    monkeypatch.setattr(cohomology.H2Basis, "__init__", counting)
    h2.cache_clear()
    stream = ["catalog:cyclic:4", "perms:(0 1 2 3)", "catalog:dihedral:8",
              "perms:(0 1 2 3),(0 2)", "perms:(0 1)", "perms:(2 3)",
              "catalog:cyclic:2", "catalog:elem_abelian_2:1", "catalog:sym:4",
              "perms:(0 2 1 3)", "catalog:dihedral:8", *_s4_generating_sets(3, seed=7)]
    groups_seen = [group_from_spec(spec) for spec in stream]
    for G in groups_seen:
        is_2_reduced(G)
        h2(G).representative(0)
    assert len(solved) == h2.cache_info().misses == len(set(groups_seen))
    assert len(solved) == len({G.table for G in groups_seen})
