"""The group kernel against the code it replaced.  `groups.closure`,
`Group`'s table check, `subgroup` and `quotient_with_map` compose
permutations and table rows with one itemgetter call each; the oracle
here is the retired kernel, which composed by
tuple(map(p.__getitem__, q)), found each element's order by its powers
and walked the span of a growing generating set again from 0 for each
generator it took.  The two must give equal tables, element orders and
generating sets, accept the same tables, and refuse a corrupted one with
the same GroupError text, which names the first failing (a, b) with a
in generating-set order and then b ascending."""
import math
import random

import pytest

from test_cohomology import _BENCH_PERMS, _groups_to_64
from traceforms import _ints, perms
from traceforms.groups import (
    Group,
    GroupError,
    generating_set,
    group_from_spec,
    quotient_with_map,
    subgroup,
)


def _old_compose(p, q):
    return tuple(map(p.__getitem__, q))


def _retired_closure(gens):
    """The retired closure of door-padded generators: its table."""
    ident = perms.identity(len(gens[0]))
    seen, frontier, steps = {ident}, [ident], []
    while frontier:
        nxt = []
        for p in frontier:
            for k, g in enumerate(gens):
                q = _old_compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    steps.append((q, p, k))
        frontier = nxt
    els = [ident] + sorted(seen - {ident})
    idx = {p: i for i, p in enumerate(els)}
    left = [[idx[_old_compose(g, b)] for b in els] for g in gens]
    rows = {ident: tuple(range(len(els)))}
    for q, p, k in steps:
        rows[q] = tuple(map(rows[p].__getitem__, left[k]))
    return tuple(rows[p] for p in els)


def _span(table, gens):
    """The elements reached from 0 by right multiplication by gens."""
    span, walk = {0}, [0]
    for h in walk:
        for s in gens:
            if (x := table[h][s]) not in span:
                span.add(x)
                walk.append(x)
    return span


def _retired_generating_set(table):
    """The retired row, identity and column checks, raising the
    GroupError texts Group raises; for a table that passes them, the
    element orders and the generating set."""
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
    orders = [0] * n
    for x in range(n):
        if not orders[x]:
            walk, acc = [0], x
            while acc != 0:
                walk.append(acc)
                acc = table[acc][x]
                if len(walk) > n:
                    raise GroupError("table column is not a permutation")
            for k, y in enumerate(walk):
                orders[y] = len(walk) // math.gcd(k, len(walk))
    S, span = [], {0}
    for g in sorted(range(1, n), key=lambda g: (-orders[g], g)):
        if len(span) == n:
            break
        if g not in span:
            S.append(g)
            span = _span(table, S)  # walked again from 0
    return tuple(orders), S


def _retired_check(table):
    """The retired check of a table: _retired_generating_set, then
    associativity at each generator a in turn, b ascending.  Its rows
    are read as tuples, as Group holds them."""
    table = tuple(map(tuple, table))
    orders, S = _retired_generating_set(table)
    for a in S:
        ta = table[a]
        for b, tb in enumerate(table):
            if table[ta[b]] != tuple(map(ta.__getitem__, tb)):
                raise GroupError(f"associativity fails at a={a}, b={b}")
    return orders, S


def _same_as_retired(G):
    orders, S = _retired_check(G.table)
    assert tuple(map(G.element_order, range(G.order))) == orders, G
    assert generating_set(G) == S, G
    H = Group(G.table)
    assert H == G and generating_set(H) == S


def _generators(spec):
    return perms.door([perms.parse_cycle_string(c) for c in spec[len("perms:"):].split(",")],
                      ("DEGREE_CAP", perms.DEGREE_CAP))


def test_closure_and_check_match_the_retired_kernel():
    corpus = _groups_to_64()
    assert len(corpus) == 145
    for spec in _BENCH_PERMS:
        assert group_from_spec(spec).table == _retired_closure(_generators(spec)), spec
    for G in corpus:
        _same_as_retired(G)


def test_subgroup_and_quotient_tables_match_the_retired_reindexing():
    for G in _groups_to_64():
        t = G.table
        spans = [_span(t, generating_set(G)[:k]) for k in (1, 2)]
        for members in ({0}, set(range(G.order)), *spans):
            els = sorted(members)
            idx = {m: i for i, m in enumerate(els)}
            retired = tuple(tuple(map(idx.__getitem__, map(t[a].__getitem__, els)))
                            for a in els)
            assert subgroup(G, members).table == retired, G
        central = [x for x in G.involutions() if all(row[x] == t[x][g] for g, row in enumerate(t))]
        for members in ({0}, set(range(G.order)), *({0, x} for x in central)):
            Q, coset_of = quotient_with_map(G, members)
            reps = [coset_of.index(c) for c in range(Q.order)]
            retired = tuple(tuple([coset_of[t[reps[a]][reps[b]]] for b in range(Q.order)])
                            for a in range(Q.order))
            assert Q.table == retired, G


_RANK_11 = ["catalog:elem_abelian_2:11",
            "perms:" + ",".join(f"({2 * i} {2 * i + 1})" for i in range(11))]


@pytest.mark.parametrize("spec", _RANK_11, ids=["catalog", "perms"])
def test_rank_11_builds_match_the_retired_kernel(spec):
    G = group_from_spec(spec)
    assert G.order == 2048 and len(generating_set(G)) == 11
    if spec.startswith("perms:"):
        assert G.table == _retired_closure(_generators(spec))
    _same_as_retired(G)


def _refusal(check, table):
    try:
        check(table)
    except GroupError as exc:
        return str(exc)
    return None


def _b_major_failure(table, S):
    """The first failing (a, b) of a scan b by b, then a in S: the order
    Group's fast pass meets failures in, before it names the first in
    the retired order."""
    return next(((a, b) for b in range(len(table)) for a in S
                 if table[table[a][b]] != _old_compose(table[a], table[b])), None)


def _corrupted(rng, table, kind):
    t = [list(row) for row in table]
    n = len(t)
    r, i, j = rng.randrange(1, n), *rng.sample(range(1, n), 2)
    if kind == "swapped entry":
        t[r][i], t[r][j] = t[r][j], t[r][i]
    elif kind == "non-permutation row":
        t[r][i] = t[r][j]
    elif rng.randrange(2):  # broken identity: row 0 or column 0
        t[0][i], t[0][j] = t[0][j], t[0][i]
    else:
        t[r][0], t[r][i] = t[r][i], t[r][0]
    return tuple(map(tuple, t))


@pytest.mark.parametrize("kind", ["swapped entry", "non-permutation row", "broken identity"])
def test_a_corrupted_table_is_refused_with_the_retired_text(kind):
    rng = random.Random(5505)
    groups = [G for G in _groups_to_64() if G.order >= 6]
    reordered = 0
    for _ in range(300):
        G = rng.choice(groups)
        t = _corrupted(rng, G.table, kind)
        text = _refusal(_retired_check, t)
        assert text is not None and _refusal(Group, t) == text, (G, text)
        if text.startswith("associativity"):
            first = _b_major_failure(t, _retired_generating_set(t)[1])
            reordered += text != "associativity fails at a={}, b={}".format(*first)
    # the fast pass meets some failure before the one the retired scan
    # named first, and still names that one
    assert reordered > 0 or kind != "swapped entry"
