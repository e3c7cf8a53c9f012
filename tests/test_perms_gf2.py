"""Unit tests for the permutation and GF(2) linear-algebra primitives."""
import math
import random

import pytest

from limited_child import run_limited
from traceforms import gf2
from traceforms.groups import GroupError, closure
from traceforms.perms import (
    compose,
    cycles,
    from_cycles,
    identity,
    is_perm,
    parse_cycle_string,
    signature,
)


def _inverse(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _order(p):
    return math.lcm(1, *(len(c) for c in cycles(p)))


def _reduce_vector(pivots, v):
    """Residue of v modulo the row space of the echelon pivots: its bits
    sit in columns without a pivot, and zero means v is in the span."""
    residue = 0
    while v:
        c = v.bit_length() - 1
        if c in pivots:
            v ^= pivots[c]
        else:
            residue |= 1 << c
            v ^= 1 << c
    return residue


def _in_span(pivots, v):
    return _reduce_vector(pivots, v) == 0


def _rank(rows):
    return len(gf2.row_space_pivots(rows))


def test_compose_right_factor_acts_first():
    # p after q: x -> p(q(x))
    p = from_cycles(3, [(0, 1)])
    q = from_cycles(3, [(1, 2)])
    pq = compose(p, q)
    assert pq == (1, 2, 0)  # 0->0->1, 1->2->2, 2->1->0
    assert compose(q, p) != pq
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_compose_matches_the_retired_map():
    # compose reads p at q by one itemgetter call; the retired kernel was
    # tuple(map(p.__getitem__, q)).  itemgetter() raises and
    # itemgetter(x) gives a bare item, so degrees 0 and 1 are pinned too.
    rng = random.Random(5501)
    cases = [((), ()), ((0,), (0,)), ((0, 1), (1, 0)), ((1, 0), (1, 0)), ([1, 0], (0, 1))]
    for _ in range(200):
        n = rng.randint(0, 64)
        cases.append((tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))))
    for p, q in cases:
        got = compose(p, q)
        assert type(got) is tuple and got == tuple(map(p.__getitem__, q)), (p, q)


@pytest.mark.parametrize("call, error", [
    ("perms.cycles((0, 0))", "ValueError: not a permutation: (0, 0)"),
    ("perms.signature([2, 0, 0])", "ValueError: not a permutation: [2, 0, 0]"),
    ("clifford.transposition_factors((1, 1, 0))",
     "CliffordError: not a permutation: (1, 1, 0)"),
], ids=["cycles", "signature", "transposition_factors"])
def test_cycles_refuses_a_non_permutation_without_a_hang(call, error):
    # the walk from a point whose loop misses it appended to the cycle
    # until memory ran out, so run each in a limited child
    code = ("from traceforms import clifford, perms\n"
            f"try:\n    {call}\nexcept ValueError as e:\n"
            "    print(f'{type(e).__name__}: {e}')")
    proc, elapsed = run_limited(["-c", code], timeout=10)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == error + "\n"
    assert elapsed < 2, elapsed


def test_inverse_and_order_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 9)
        p = list(range(n))
        rng.shuffle(p)
        p = tuple(p)
        assert is_perm(p)
        assert compose(p, _inverse(p)) == identity(n)
        assert compose(_inverse(p), p) == identity(n)
        k = _order(p)
        acc = identity(n)
        for _ in range(k):
            acc = compose(p, acc)
        assert acc == identity(n)
        assert all(compose_power(p, j, n) != identity(n) for j in range(1, k))


def compose_power(p, k, n):
    acc = identity(n)
    for _ in range(k):
        acc = compose(p, acc)
    return acc


def test_cycle_round_trip_and_canonical_form():
    p = from_cycles(6, [(0, 3), (1, 4, 5)])
    assert cycles(p) == [(0, 3), (1, 4, 5)]
    assert parse_cycle_string("(0 3)(1 4 5)") == p
    assert parse_cycle_string("(0, 3)(1, 4, 5)") == p
    # the degree is 1 + the largest point, so the identity is a fixed point
    assert parse_cycle_string("(3)") == identity(4)


def test_cycle_validation():
    with pytest.raises(ValueError):
        from_cycles(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_cycles(3, [(0, 5)])
    with pytest.raises(ValueError):
        from_cycles(4, [(0, 1), (1, 2)])  # overlapping cycles
    with pytest.raises(ValueError, match="^point 0 appears in two cycles$"):
        from_cycles(3, [(0, 1), (0, 1)])  # their product is the identity, not (0 1)
    with pytest.raises(ValueError):
        parse_cycle_string("0 1 2")
    with pytest.raises(ValueError, match=r"^empty permutation: write the identity as a "
                                          r"fixed point, such as \(0\)$"):
        parse_cycle_string("()")


def test_a_permutation_has_int_images():
    # a float tuple sorted like range(n) passed, and a str image raised
    # TypeError from sorted; closure checks its generators with perms.door
    # and quotes a refused one shortened.  A bool is not an int image.
    assert is_perm((1, 0)) and is_perm(())
    assert not is_perm((1.0, 0.0)) and not is_perm((0, "a")) and not is_perm([1, 0])
    assert not is_perm((True, False)) and not is_perm((0, True))
    with pytest.raises(GroupError, match=r"^not a permutation: \(1\.0, 0\.0\)$"):
        closure([(1.0, 0.0)])
    # within DEGREE_CAP, so the images are read; 10,000 points are refused
    # by their count first (test_closure_bounds_the_degree_before_it_composes)
    with pytest.raises(GroupError, match=r"^not a permutation: \(0, 0, 0, 0, 0, 0, \.\.\.\)$"):
        closure([(0, 0) * 1000])
    with pytest.raises(GroupError, match=r"^degree 10000 exceeds DEGREE_CAP = 2048$"):
        closure([(0, 0) * 5000])


@pytest.mark.parametrize("text", ["(0 1_0)", "(0 ٣)", "(0 1.0)", "(0 True)", "(0 1e1)"])
def test_a_cycle_point_is_ascii_digits(text):
    # int() read "1_0" as 10 and "٣" as 3
    with pytest.raises(ValueError, match="malformed cycle string"):
        parse_cycle_string(text)
    assert parse_cycle_string("(0 +2 )") == (2, 1, 0)


@pytest.mark.parametrize("n, cycs", [(3, [(0, 1.0)]), (3, [(True, 2)]), (3, [(0, "1")]),
                                     (True, []), (2.0, [])])
def test_from_cycles_takes_int_points_and_degree(n, cycs):
    # a float point raised TypeError, (True, 2) was refused as an overlap,
    # and degree True built the identity on one point
    with pytest.raises(ValueError, match="non-int point|DEGREE_CAP"):
        from_cycles(n, cycs)


def test_degree_is_bounded_before_allocating():
    for bad in (lambda: parse_cycle_string("(0 2048)"),
                lambda: parse_cycle_string("(2048)"),
                lambda: from_cycles(10 ** 9, [(0, 1)])):
        with pytest.raises(ValueError, match="DEGREE_CAP = 2048"):
            bad()
    assert len(parse_cycle_string("(0 2047)")) == 2048


def test_signature_multiplicative():
    rng = random.Random(11)
    assert signature(from_cycles(5, [(1, 3)])) == -1
    assert signature(identity(5)) == 1
    for _ in range(50):
        n = rng.randint(2, 8)
        p = list(range(n))
        q = list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        p, q = tuple(p), tuple(q)
        assert signature(compose(p, q)) == signature(p) * signature(q)


def test_echelon_and_span():
    pivots = {}
    assert gf2.echelon_insert(pivots, 0b110) is not None
    assert gf2.echelon_insert(pivots, 0b011) is not None
    assert gf2.echelon_insert(pivots, 0b101) is None  # sum of the first two
    assert _in_span(pivots, 0b101)
    assert not _in_span(pivots, 0b111)
    assert _rank([0b110, 0b011, 0b101]) == 2
    assert _rank([]) == 0
    assert _reduce_vector(pivots, 0b101) == 0


def test_reduce_vector_is_canonical_coset_form():
    rng = random.Random(23)
    rows = [rng.getrandbits(12) for _ in range(6)]
    pivots = gf2.row_space_pivots(rows)
    for _ in range(100):
        v = rng.getrandbits(12)
        r = _reduce_vector(pivots, v)
        # residue differs from v by a span element, and is span-free
        assert _in_span(pivots, r ^ v)
        assert _reduce_vector(pivots, r) == r
        # canonical on cosets: shifting by a random span element fixes it
        shift = 0
        for row in pivots.values():
            if rng.getrandbits(1):
                shift ^= row
        assert _reduce_vector(pivots, v ^ shift) == r


def test_nullspace_orthogonality_and_dimension():
    rng = random.Random(31)
    for _ in range(30):
        ncols = rng.randint(1, 11)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 7))]
        basis = gf2.nullspace(rows, ncols)
        assert len(basis) == ncols - _rank(rows)
        for x in basis:
            for r in rows:
                assert bin(r & x).count("1") % 2 == 0
        assert _rank(basis) == len(basis)


def _nullspace_rref(rows, ncols):
    """Reference: reduce the echelon form fully, then read each basis
    vector off a free column."""
    pivots = gf2.row_space_pivots(rows)
    for c in sorted(pivots):
        for c2 in pivots:
            if c2 != c and (pivots[c2] >> c) & 1:
                pivots[c2] ^= pivots[c]
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = 1 << j
        for c, row in pivots.items():
            if (row >> j) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def test_nullspace_matches_rref_reference():
    rng = random.Random(47)
    cases = [([], 5), ([0, 0], 3), ([0b1], 1), ([0b111, 0b111, 0b111], 3)]
    for _ in range(300):
        ncols = rng.randint(1, 40)
        width = rng.randint(0, ncols)  # ncols may exceed every row's width
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 2 * ncols))]
        rows += [0] * rng.randint(0, 2)
        if rows:
            rows += rng.choices(rows, k=rng.randint(0, 3))
        rng.shuffle(rows)
        cases.append((rows, ncols))
    for ncols in (1, 8, 33):  # full rank: the nullspace is empty
        rows = [(1 << i) | rng.getrandbits(i) for i in range(ncols)]
        rng.shuffle(rows)
        cases.append((rows, ncols))
    for rows, ncols in cases:
        assert gf2.nullspace(rows, ncols) == _nullspace_rref(rows, ncols), (rows, ncols)
    assert gf2.nullspace(cases[-1][0], cases[-1][1]) == []


def test_reduced_basis_is_nullspace_of_orthogonal_complement():
    """For a random subspace V, the lowest-bit reduced echelon basis of V
    (from any spanning set, in any order) is nullspace's basis of the
    equations V^perp, since V = (V^perp)^perp."""
    rng = random.Random(53)
    for _ in range(300):
        ncols = rng.randint(1, 40)
        span = [rng.getrandbits(ncols) for _ in range(rng.randint(0, ncols))]
        want = gf2.nullspace(gf2.nullspace(span, ncols), ncols)
        # a unit-triangular change of the spanning set keeps its span
        mixed = list(span)
        for i in range(len(mixed)):
            for j in range(i):
                if rng.getrandbits(1):
                    mixed[i] ^= span[j]
        mixed += [0, *rng.choices(span or [0], k=2)]
        rng.shuffle(mixed)
        assert gf2.reduced_basis(mixed) == want, (span, ncols)
    assert gf2.reduced_basis([]) == []
    rows = [rng.getrandbits(30) for _ in range(12)]
    assert gf2.reduced_basis(gf2.nullspace(rows, 30)) == gf2.nullspace(rows, 30)


def test_transpose_matches_bitwise_reference():
    rng = random.Random(59)
    for _ in range(200):
        ncols = rng.randint(1, 70)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 50))]
        want = [sum(((r >> j) & 1) << i for i, r in enumerate(rows))
                for j in range(ncols)]
        assert gf2.transpose(rows, ncols) == want
        assert gf2.transpose(gf2.transpose(rows, ncols), len(rows)) == rows
