import collections
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from clifford_oracle import (
    PRIME,
    CliffordElt,
    QSqrt2,
    as_element,
    check_pin,
    epsilon,
    fold_cocycle_bits,
    fold_product_sign,
    fold_sign_bit,
    fold_square_sign,
    pfaffian,
    pfaffian_product_sign,
    pfaffian_sign,
    times_lift,
    twisted_action,
)
from traceforms import cli, clifford
from traceforms.clifford import (
    FOLD_TERMS_CAP,
    CliffordError,
    SignMismatchError,
    _check_fold,
    _factors,
    _fold_factors,
    _word_sign,
    involution_square_sign,
    pin_cocycle,
    pin_lift,
    pin_product_sign,
    transposition_factors,
)
from traceforms.cohomology import CohomologyError, cochains_from_columns, h2, s_map
from traceforms.groups import catalog, generating_set, group_from_spec
from traceforms import perms

from limited_child import run_limited


# -- the Q(sqrt 2) oracle itself (tests/clifford_oracle.py) ------------------

def test_qsqrt2_field_arithmetic():
    a = QSqrt2(Fraction(1, 2), Fraction(-3))
    b = QSqrt2(2, Fraction(1, 3))
    assert a + b == QSqrt2(Fraction(5, 2), Fraction(-8, 3))
    assert a * b == QSqrt2(Fraction(1, 2) * 2 + 2 * Fraction(-3) * Fraction(1, 3),
                           Fraction(1, 2) * Fraction(1, 3) + Fraction(-3) * 2)
    # (1+√2)(−1+√2) = 1
    assert QSqrt2(1, 1) * QSqrt2(-1, 1) == QSqrt2(1)
    assert QSqrt2(1, 1).inverse() == QSqrt2(-1, 1)
    x = QSqrt2(Fraction(3, 7), Fraction(-2, 5))
    assert x * x.inverse() == QSqrt2(1)
    with pytest.raises(ZeroDivisionError):
        QSqrt2(0).inverse()


def test_basis_products_and_anticommutation():
    e1 = CliffordElt.basis_vector(3, 0)
    e2 = CliffordElt.basis_vector(3, 1)
    assert e1 * e1 == CliffordElt.scalar(3, 1)
    assert e1 * e2 == -(e2 * e1)
    e12 = e1 * e2
    assert e12 * e12 == CliffordElt.scalar(3, -1)


def test_associativity_random_sparse_triples():
    rng = random.Random(2024)
    n = 8
    def rand_elt():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mask = rng.getrandbits(n)
            terms[mask] = QSqrt2(Fraction(rng.randint(-3, 3)),
                                 Fraction(rng.randint(-3, 3), 2))
        return CliffordElt(n, terms)
    for _ in range(200):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert (x * y) * z == x * (y * z)


def test_reversal_and_grade_involution():
    rng = random.Random(31)
    n = 6
    def rand_elt():
        return CliffordElt(n, {rng.getrandbits(n): QSqrt2(rng.randint(-4, 4))
                               for _ in range(3)})
    for _ in range(50):
        x, y = rand_elt(), rand_elt()
        assert (x * y).reversal() == y.reversal() * x.reversal()
        assert (x * y).grade_involution() == \
            x.grade_involution() * y.grade_involution()


def test_epsilon_factors_square_to_one():
    n = 5
    for i in range(n):
        for j in range(i + 1, n):
            f = epsilon(i, j, n)
            assert f * f == CliffordElt.scalar(n, 1)


def test_transposition_factors_cycle_order():
    # cycle (0 1 2) = (0 2)(0 1) applied right-to-left
    p = perms.from_cycles(3, [(0, 1, 2)])
    facs = transposition_factors(p)
    assert facs == [(0, 2), (0, 1)]


def test_pin_lift_implements_permutation_action():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 8)
        p = list(range(n))
        rng.shuffle(p)
        p = tuple(p)
        assert twisted_action(as_element(pin_lift(p), n)) == p


def test_pin_lift_identity_and_transposition():
    assert pin_lift(tuple(range(4))) == (0, {0: 1})
    assert pin_lift(()) == (0, {0: 1})
    t = perms.from_cycles(2, [(0, 1)])
    assert pin_lift(t) == (1, {0b01: 1, 0b10: -1})
    x = as_element(pin_lift(t), 2)
    assert x in (epsilon(0, 1, 2), -epsilon(0, 1, 2))
    assert twisted_action(x) == t
    # on more coordinates than the degree of p: padded with fixed points
    assert pin_lift(t, 4) == pin_lift(t)
    assert twisted_action(as_element(pin_lift(t, 4), 4)) == (1, 0, 2, 3)


@pytest.mark.parametrize("p, n, match", [
    ((1, 0, 2), 2, "permutation degree exceeds rank"),
    (tuple(range(25)), None, "rank 25 exceeds CLIFFORD_RANK_CAP = 24"),
    ((1, 0), 25, "rank 25 exceeds CLIFFORD_RANK_CAP = 24"),
])
def test_lift_entry_checks(p, n, match):
    with pytest.raises(CliffordError, match=match):
        pin_lift(p, n)
    with pytest.raises(CliffordError, match=match):
        pin_product_sign(p, p, n)


@pytest.mark.parametrize("call", [
    "pin_lift((0, 0))",
    "pin_lift((1, 1, 0))",
    "pin_product_sign((0, 0), (0, 1))",
])
def test_a_repeated_image_is_refused_without_a_hang(call):
    # perms.cycles walks a repeated image forever: each of these ran until
    # killed before the door checked the images, so run them in a child
    code = ("from traceforms.clifford import *\n"
            f"try:\n    {call}\nexcept CliffordError as e:\n    print(e)")
    proc, elapsed = run_limited(["-c", code], timeout=10)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.startswith("not a permutation: (")
    assert elapsed < 2, elapsed


@pytest.mark.parametrize("call, match", [
    (lambda: pin_lift((2, 0, 1, 5)), r"not a permutation: \(2, 0, 1, 5\)"),
    (lambda: pin_lift((1.0, 0.0)), r"not a permutation: \(1\.0, 0\.0\)"),
    (lambda: pin_lift("10"), "not a permutation: '10'"),
    (lambda: pin_lift(None), "not a permutation: None"),
    (lambda: pin_product_sign((0, 1), (0, 2)), r"not a permutation: \(0, 2\)"),
    (lambda: pin_lift((1, 0), 3.0), "rank is not an int: 3.0"),
    (lambda: pin_product_sign((1, 0), (0, 1), "3"), "rank is not an int: '3'"),
    (lambda: involution_square_sign(12.0), "rank is not an int: 12.0"),
    (lambda: involution_square_sign(None), "rank is not an int: None"),
    # the quoted value is shortened; the length is bounded before a point is read
    (lambda: pin_lift(tuple(range(24)) * 2, 24), "permutation degree exceeds rank"),
    (lambda: pin_lift((0, 0) * 12), r"not a permutation: \(0, 0, 0, 0, 0, 0, \.\.\.\)$"),
    (lambda: pin_lift(list(range(10 ** 6))), "rank 1000000 exceeds CLIFFORD_RANK_CAP = 24"),
])
def test_the_door_refuses_what_is_not_a_permutation_or_an_int_rank(call, match):
    with pytest.raises(CliffordError, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: pin_lift((True, False)), r"not a permutation: \(True, False\)"),
    (lambda: pin_product_sign((0, 1), [False, True]), r"not a permutation: \[False, True\]"),
    (lambda: pin_lift((1, 0), True), "rank is not an int: True"),
    (lambda: involution_square_sign(True), "rank is not an int: True"),
])
def test_a_bool_is_no_image_and_no_rank(call, match):
    # pin_lift((True, False)) answered as the swap of two points
    with pytest.raises(CliffordError, match=match):
        call()


def test_a_list_is_a_permutation_too():
    assert pin_lift([1, 0]) == pin_lift((1, 0))
    assert pin_product_sign([1, 2, 0], [1, 0]) == pin_product_sign((1, 2, 0), (1, 0, 2))


def test_pin_product_sign_matches_cocycle_rows():
    G = catalog("dihedral", 8)
    rows_of = G.table
    c = pin_cocycle(G)
    for g in range(G.order):
        for h in range(G.order):
            bit = pin_product_sign(rows_of[g], rows_of[h])
            assert bit == c.value(g, h)


def test_involution_square_sign_table():
    plus = {2, 8, 10, 16, 24}
    for n in range(2, 25, 2):
        s = involution_square_sign(n)
        assert s == (1 if n % 8 in (0, 2) else -1)
        assert (s == 1) == (n in plus or n % 8 in (0, 2))
    with pytest.raises(CliffordError):
        involution_square_sign(3)
    with pytest.raises(CliffordError, match="CLIFFORD_RANK_CAP = 24"):
        involution_square_sign(26)


def test_pin_cocycle_splitness_small_groups():
    for key, param, split in [("dihedral", 8, True), ("cyclic", 8, True),
                              ("elem_abelian_2", 3, True),
                              ("cyclic", 4, False)]:
        G = catalog(key, param) if param else catalog(key)
        c = pin_cocycle(G)
        c.validate()
        assert (h2(G).coords(c) == 0) == split, (key, param)


def test_pin_cocycle_caps():
    # order 24, the rank cap, answers, and order 25 is refused
    G = catalog("sym", 4)
    c = pin_cocycle(G)
    assert c.group is G and s_map(c) == (0,) * 9
    with pytest.raises(CliffordError, match="CLIFFORD_RANK_CAP = 24"):
        pin_cocycle(catalog("cyclic", 25))


# every catalog group of order <= 24, and perms: groups up to that order,
# three of them of odd order and so with no involution
SPECS_UP_TO_24 = (
    [f"catalog:cyclic:{k}" for k in range(1, 25)]
    + [f"catalog:dihedral:{k}" for k in range(2, 25, 2)]
    + [f"catalog:elem_abelian_2:{k}" for k in range(5)]
    + [f"catalog:{name}:{k}" for name in ("sym", "alt") for k in range(5)]
    + ["catalog:quaternion8", "catalog:z4xz2", "catalog:quat_cover"]
    + ["perms:(0 1 2 3),(0 2)",  # D8
       "perms:(0 1 2 3)(4 5 6 7),(0 4 2 6)(1 7 3 5)",  # Q8
       "perms:(0 1),(2 3),(4 5)",  # C2^3
       "perms:(0 1 2 3),(4 5)",  # C4xC2
       "perms:(0 1 2),(0 1)(2 3)",  # A4
       "perms:(0 1 2 3)(4 5 6)",  # C12
       "perms:(0 1 2 3 4),(1 4)(2 3)",  # D10
       "perms:(0 1 2 3),(0 2),(4 5)",  # C2xD8
       "perms:(0 1 2 3 4 5 6 7),(1 7)(2 6)(3 5)",  # D16
       "perms:(0 1 2 3),(4 5),(6 7)",  # C4xC2^2
       "perms:(0 1 2 3 4),(1 2 4 3)",  # the Frobenius group of order 20
       "perms:(0 1 2),(0 1),(3 4 5)",  # S3xC3
       "perms:(0 1 2 3),(0 1)",  # S4
       "perms:(0 1 2 3 4)(5 6 7)",  # C15
       "perms:(0 1 2 3 4 5 6),(1 2 4)(3 6 5)",  # C7:C3, order 21
       "perms:(0 1 2),(3 4 5)"])  # C3^2


@pytest.mark.parametrize("spec", SPECS_UP_TO_24)
def test_regular_squares_are_the_one_involution_sign(capsys, spec):
    # a translation by an involution has no fixed point, so each squares
    # to involution_square_sign(|G|); the table's diagonal says the same,
    # and so does pin-cocycle with and without --involutions-only
    G = group_from_spec(spec)
    assert G.order <= 24
    ts = G.involutions()
    b = int(involution_square_sign(G.order) < 0) if ts else 0
    assert s_map(pin_cocycle(G)) == (b,) * len(ts)
    printed = []
    for extra in ([], ["--involutions-only"]):
        assert cli.main(["pin-cocycle", "--group", spec, *extra]) == 0
        data = json.loads(capsys.readouterr().out)
        printed.append((data["diagonal_signs"], data["s_vector"]))
    assert printed[0] == printed[1]
    assert printed[0] == ({str(t): (-1) ** b for t in ts}, [b] * len(ts))


@pytest.mark.parametrize("spec, signs", [
    ("catalog:elem_abelian_2:4", 1), ("catalog:dihedral:24", 1), ("catalog:sym:4", 1),
    ("catalog:cyclic:2", 1), ("catalog:cyclic:1", 0), ("catalog:cyclic:15", 0),
    ("perms:(0 1 2 3 4 5 6),(1 2 4)(3 6 5)", 0)])
def test_involutions_only_decides_one_word_sign(monkeypatch, capsys, spec, signs):
    # one sign for all 15 involutions of C2^4, 13 of D24 and 9 of S4, and
    # none for a group of odd order
    calls = [0]

    def counted(word):
        calls[0] += 1
        return _word_sign(word)
    monkeypatch.setattr(clifford, "_word_sign", counted)
    assert cli.main(["pin-cocycle", "--involutions-only", "--group", spec]) == 0
    capsys.readouterr()
    assert calls[0] == signs


def _cycle(n, shift=1):
    return tuple((i + shift) % n for i in range(n))


def _cocycle_identity_holds(p, q, r):
    """c(p, q) + c(pq, r) = c(q, r) + c(p, qr) mod 2, by pin_product_sign."""
    pq, qr = perms.compose(p, q), perms.compose(q, r)
    return (pin_product_sign(p, q) ^ pin_product_sign(pq, r)
            == pin_product_sign(q, r) ^ pin_product_sign(p, qr))


def test_fold_size_cap_names_the_limit():
    """A lift whose fold's 2^min(k, n) bound exceeds FOLD_TERMS_CAP is
    refused before any folding: an 18-cycle's (k = 17).  Signs take no
    fold, so the cap does not guard them: the product of two 17-cycles
    (k = 32 on rank 17, once refused) gets a sign, and the signs of a
    triple satisfy the cocycle identity."""
    assert FOLD_TERMS_CAP == 1 << 16
    t0 = time.perf_counter()
    with pytest.raises(CliffordError, match="FOLD_TERMS_CAP = 65536"):
        pin_lift(_cycle(18))
    assert pin_product_sign(_cycle(17), _cycle(17, 3)) in (0, 1)
    assert _cocycle_identity_holds(_cycle(17), _cycle(17, 3), _cycle(17, 5))
    assert time.perf_counter() - t0 < 1
    assert pin_lift((1, 0), 24)[0] == 1  # rank 24, but one factor


def test_fold_size_cap_admits_rank_12_products():
    """Degree <= 12, the largest the pin-sign verbs and benchmark use:
    2^min(k, 12) <= 4096 terms whatever k is."""
    assert 1 << 12 <= FOLD_TERMS_CAP
    assert pin_product_sign(_cycle(12), _cycle(12, 5)) in (0, 1)
    assert pin_product_sign(_cycle(11) + (11,), _cycle(12)) in (0, 1)
    assert pin_lift(_cycle(12))[0] == 11


# -- the Q(sqrt 2) route as an oracle for the integer sign rule --------------
# Lifts are multiplied out factor by factor in CliffordElt (times_lift),
# without the integer fold kernel, and a product is matched against
# +-(lift of product).

CATALOG_UP_TO_8 = ([("cyclic", k) for k in range(1, 9)]
                   + [("dihedral", k) for k in (2, 4, 6, 8)]
                   + [("elem_abelian_2", k) for k in range(4)]
                   + [("sym", k) for k in range(4)]
                   + [("alt", k) for k in range(4)]
                   + [("quaternion8", None), ("Z4xZ2", None)])


def _algebra_sign(z, w):
    if z == w:
        return 0
    if z == -w:
        return 1
    raise AssertionError("product of lifts is not +-(lift of product)")


def test_algebra_lift_is_pin_lift():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        p = list(range(n))
        rng.shuffle(p)
        p = tuple(p)
        assert times_lift(CliffordElt.scalar(n, 1), p) == \
            as_element(pin_lift(p), n)


def test_pin_cocycle_matches_algebra_oracle():
    for key, param in CATALOG_UP_TO_8:
        G = catalog(key, param)
        assert G.order <= 8
        n = G.order
        rows_of = G.table
        lifts = [times_lift(CliffordElt.scalar(n, 1), r) for r in rows_of]
        bits = sum(_algebra_sign(times_lift(lifts[g], rows_of[h]),
                                 lifts[G.table[g][h]]) << (g * n + h)
                   for g in range(n) for h in range(n))
        assert pin_cocycle(G).bits == bits, (key, param)


def test_pin_product_sign_matches_algebra_oracle():
    rng = random.Random(808)
    for _ in range(40):
        n = rng.randint(1, 8)
        p, q = list(range(n)), list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        p, q = tuple(p), tuple(q)
        one = CliffordElt.scalar(n, 1)
        z = times_lift(times_lift(one, p), q)
        w = times_lift(one, perms.compose(p, q))
        assert pin_product_sign(p, q) == _algebra_sign(z, w), (p, q)


W = {0b011: 1, 0b110: -3}


def test_sign_rule_accepts_signed_powers_of_two():
    assert fold_sign_bit({0b011: 1, 0b110: -3}, W, 0) == 0
    assert fold_sign_bit({0b011: -4, 0b110: 12}, W, 4) == 1
    assert _word_sign([(0, 1)] * 2) == 0
    assert _word_sign([(0, 1), (2, 3)] * 2) == 1


@pytest.mark.parametrize("z, w, gap", [
    ({0b011: 2, 0b110: -6}, W, 3),  # odd gap (z = 2 w)
    (W, {0b011: 2, 0b110: -6}, -2),  # negative gap (w = 2 z)
    ({0b011: 2, 0b101: -6}, W, 2),  # different supports
    ({0b011: 2, 0b110: 6}, W, 2),  # mixed signs
    ({0b011: 3, 0b110: -9}, W, 2),  # ratio 3
    ({0b011: 4, 0b110: -12}, W, 2),  # ratio 4, not 2^(gap/2)
])
def test_sign_rule_rejects_non_proportional_folds(z, w, gap):
    with pytest.raises(SignMismatchError):
        fold_sign_bit(z, w, gap)


def test_square_of_non_involution_lift_is_rejected():
    # the lift of a 3-cycle does not square to +-1
    with pytest.raises(CliffordError):
        _word_sign([(0, 2), (0, 1)] * 2)


# -- the integer lift check against the Q(sqrt 2) oracle ---------------------

def _lift_cases():
    """Every permutation of degree <= 5, and seeded ones of degree 6 to 8."""
    for d in range(6):
        yield from itertools.permutations(range(d))
    rng = random.Random(66)
    for d, count in ((6, 24), (7, 6), (8, 3)):
        for _ in range(count):
            p = list(range(d))
            rng.shuffle(p)
            yield tuple(p)


def test_integer_lift_check_matches_algebra_oracle():
    cases = 0
    for p in _lift_cases():
        cases += 1
        factors = transposition_factors(p)
        k = len(factors)
        z = _fold_factors({0: 1}, factors)
        assert pin_lift(p) == (k, z)  # pin_lift runs the integer check on z
        x = as_element((k, z), len(p))
        one = CliffordElt.scalar(len(p), 1)
        assert x == times_lift(one, p)  # the product of the epsilon factors
        assert check_pin(x) == p
        # a wrong permutation: p followed by a transposition
        for a, b in itertools.combinations(range(len(p)), 2):
            q = perms.compose(perms.from_cycles(len(p), [(a, b)]), p)
            with pytest.raises(CliffordError):
                _check_fold(z, factors, q)
        # a corrupted fold: one coefficient negated, or scaled by 3
        if len(z) > 1:
            m = min(z)
            for bad in ({**z, m: -z[m]}, {**z, m: 3 * z[m]}):
                with pytest.raises(CliffordError):
                    _check_fold(bad, factors, p)
                try:
                    oracle = check_pin(as_element((k, bad), len(p)))
                except CliffordError:
                    oracle = None
                assert oracle != p
    assert cases == 1 + 1 + 2 + 6 + 24 + 120 + 33


def test_integer_lift_check_rejects_what_the_oracle_rejects():
    # In rank 3 the pseudoscalar w = e0 e1 e2 is central, odd, and
    # reversal(1 + w)(1 + w) = 2: so 1 + w has norm 2^1 and conjugates
    # every e_a to itself; it is no lift because it mixes parities (and
    # no product of vectors is a multiple of it, so the norm test, which
    # folds reversal(z) by the factors, would reject it too).  2z and 3z
    # conjugate like z but have the wrong norm.
    cases = [({0b000: 1, 0b111: 1}, [(0, 1)], (0, 1, 2))]
    for p in ((1, 2, 0), (1, 0, 3, 2), (0, 2, 1)):
        factors = transposition_factors(p)
        z = _fold_factors({0: 1}, factors)
        cases += [({m: f * c for m, c in z.items()}, factors, p)
                  for f in (2, 3)]
    for z, factors, p in cases:
        with pytest.raises(CliffordError):
            _check_fold(z, factors, p)
        with pytest.raises(CliffordError):
            check_pin(as_element((len(factors), z), len(p)))


def test_pin_lift_checks_rank_10_quickly():
    p = tuple(range(1, 10)) + (0,)
    t0 = time.perf_counter()
    k, z = pin_lift(p)
    assert time.perf_counter() - t0 < 5
    assert k == 9 and len(z) == 2 ** 9  # nine factors, no cancellation


def test_pin_lift_checks_rank_16_and_24():
    t0 = time.perf_counter()
    k, z = pin_lift(tuple(range(1, 16)) + (0,))  # a 16-cycle
    assert k == 15 and len(z) == 2 ** 15
    # twelve disjoint transpositions: z = (e0 - e1)(e2 - e3)...(e22 - e23)
    k, z = pin_lift(perms.from_cycles(24, [(2 * i, 2 * i + 1)
                                           for i in range(12)]))
    assert k == 12 and len(z) == 2 ** 12
    assert set(z.values()) == {1, -1}
    assert time.perf_counter() - t0 < 10


def test_pin_lift_check_runs_at_every_rank(monkeypatch):
    # factors of another permutation: the check must notice at any rank
    monkeypatch.setattr(clifford, "transposition_factors",
                        lambda p: transposition_factors(p)[1:])
    for n in (2, 7, 10, 11, 16):
        with pytest.raises(CliffordError, match="does not act"):
            pin_lift(tuple(range(1, n)) + (0,))


def _mutated_fold(mutation):
    """_fold_factors with a wrong sign rule: the count of generators
    above e_t starts one too low, or e_j loses its sign -1."""
    def fold(state, factors):
        for i, j in factors:
            new: dict[int, int] = {}
            if mutation == "above":
                steps = ((i, 1 << i, 0), (j, 1 << j, 1))
            else:
                steps = ((i + 1, 1 << i, 0), (j + 1, 1 << j, 0))
            for mask, c in state.items():
                for above, bit, neg in steps:
                    s = -c if ((mask >> above).bit_count() ^ neg) & 1 else c
                    new[mask ^ bit] = new.get(mask ^ bit, 0) + s
            state = {m: c for m, c in new.items() if c}
        return state
    return fold


@pytest.mark.parametrize("mutation", ["above", "e_j sign"])
def test_mutated_fold_kernel_is_caught(monkeypatch, mutation):
    # The norm test folds with the same kernel as the lift, so a wrong
    # kernel can pass it (with "e_j sign" every lift does); the action
    # test, with sign rules of its own, must then reject the lift.  What
    # pin_lift still returns must be a true lift, by the oracle.
    monkeypatch.setattr(clifford, "_fold_factors", _mutated_fold(mutation))
    for p in ((1, 2, 0), (1, 2, 3, 0), (2, 0, 1, 4, 3)):
        with pytest.raises(CliffordError):
            pin_lift(p)
    for d in range(6):
        for p in itertools.permutations(range(d)):
            try:
                lift = pin_lift(p)
            except CliffordError:
                continue
            assert check_pin(as_element(lift, d)) == p


# -- the full sign table against the retired all-pairs loop ------------------

# every catalog group of order <= 12, and the benchmark's permutation
# classes of that size, as `perms:` specs
SPECS_UP_TO_12 = (
    [f"catalog:cyclic:{k}" for k in range(1, 13)]
    + [f"catalog:dihedral:{k}" for k in range(2, 13, 2)]
    + [f"catalog:elem_abelian_2:{k}" for k in range(4)]
    + [f"catalog:sym:{k}" for k in range(4)]
    + [f"catalog:alt:{k}" for k in range(5)]
    + ["catalog:quaternion8", "catalog:z4xz2"]
    + ["perms:(0 1 2 3),(0 2)",  # D8
       "perms:(0 1 2 3)(4 5 6 7),(0 4 2 6)(1 7 3 5)",  # Q8
       "perms:(0 1 2 3 4 5 6 7)",  # C8
       "perms:(0 1),(2 3),(4 5)",  # C2^3
       "perms:(0 1 2 3),(4 5)",  # C4xC2
       "perms:(0 1 2 3 4),(1 4)(2 3)",  # D10
       "perms:(0 1 2 3 4 5),(1 5)(2 4)",  # D12
       "perms:(0 1 2),(0 1)(2 3)",  # A4
       "perms:(0 1 2 3)(4 5 6)",  # C12
       "perms:(0 1 2 3)",  # C4
       "perms:(0 1),(2 3)",  # C2^2
       "perms:(0 1 2 3 4 5)",  # C6
       "perms:(0 1 2),(0 1)",  # S3
       "perms:(0 1 2 3 4 5 6 7 8 9)"])  # C10


def _all_pairs_bits(G):
    """The retired loop: one fold per pair (g, h); bit g·n + h is c(g, h)."""
    n = G.order
    factor_lists = [transposition_factors(G.table[g]) for g in range(n)]
    k = [len(fl) for fl in factor_lists]
    folds = [_fold_factors({0: 1}, fl) for fl in factor_lists]
    bits = 0
    for g in range(n):
        for h in range(1, n):
            gh = G.table[g][h]
            z = _fold_factors(folds[g], factor_lists[h])
            bits |= fold_sign_bit(z, folds[gh], k[g] + k[h] - k[gh]) << (g * n + h)
    return bits


def test_pin_cocycle_matches_all_pairs_oracle():
    for spec in SPECS_UP_TO_12:
        G = group_from_spec(spec)
        assert G.order <= 12
        n = G.order
        bits = _all_pairs_bits(G)
        c = pin_cocycle(G)
        assert c.bits == bits, spec
        squares = tuple((bits >> (g * n + g)) & 1 for g in G.involutions())
        assert s_map(c) == squares, spec


def test_pin_cocycle_folds_only_generator_columns(monkeypatch):
    # one word sign per generator column entry c(x, s), x != e, and no fold
    calls = [0]

    def counted(word):
        calls[0] += 1
        return _word_sign(word)
    monkeypatch.setattr(clifford, "_word_sign", counted)
    monkeypatch.setattr(clifford, "_fold_factors", _no_fold)
    for spec in ("catalog:dihedral:10", "catalog:alt:4", "catalog:cyclic:12",
                 "catalog:elem_abelian_2:3", "catalog:cyclic:1"):
        G = group_from_spec(spec)
        n, d = G.order, len(generating_set(G))
        calls[0] = 0
        pin_cocycle(G)
        assert calls[0] == (n - 1) * d, spec


@pytest.mark.parametrize("spec", ["catalog:dihedral:10", "catalog:alt:4"])
def test_flipped_generator_column_sign_is_caught(monkeypatch, spec):
    # With two or more generators the columns over-determine the table, so
    # one wrong sign makes it fail the cocycle identity.  (For a cyclic
    # group every column is consistent: there only the word sign guards.)
    G = group_from_spec(spec)
    n, d = G.order, len(generating_set(G))
    assert d == 2
    for target in range((n - 1) * d):
        calls = [0]

        def flipped(word):
            calls[0] += 1
            return _word_sign(word) ^ (calls[0] == target + 1)
        monkeypatch.setattr(clifford, "_word_sign", flipped)
        with pytest.raises(CohomologyError):
            pin_cocycle(G)


# -- signs by peeling the factor word ----------------------------------------

def _no_fold(state, factors):
    raise AssertionError("a sign was computed by folding")


def test_signs_take_no_fold(monkeypatch):
    monkeypatch.setattr(clifford, "_fold_factors", _no_fold)
    assert pin_cocycle(catalog("alt", 4)).group is catalog("alt", 4)
    assert involution_square_sign(12) == -1
    assert pin_product_sign(_cycle(24), _cycle(24, 7)) in (0, 1)
    assert involution_square_sign(24) == 1


def _pfaffian_by_expansion(a):
    """Pf(a) expanded along the first row (exact integers)."""
    if not a:
        return 1
    total = 0
    for j in range(1, len(a)):
        if a[0][j]:
            rest = [r for r in range(1, len(a)) if r != j]
            minor = [[a[x][y] for y in rest] for x in rest]
            total += (-1) ** (j - 1) * a[0][j] * _pfaffian_by_expansion(minor)
    return total


def test_pfaffian_matches_expansion():
    rng = random.Random(1950)
    for trial in range(300):
        size = 2 * rng.randint(0, 4)
        density = rng.choice((0.2, 0.5, 1.0))  # sparse ones need pivoting
        a = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < density:
                    a[i][j] = rng.randint(-2, 2)
                    a[j][i] = -a[i][j]
        exact = _pfaffian_by_expansion(a)
        assert pfaffian([row[:] for row in a]) == exact % PRIME, (trial, a)
    # Pf of [[0, x], [-x, 0]] is x mod P: -3, and 2^61 = 1
    assert pfaffian([[0, -3], [3, 0]]) == PRIME - 3
    assert pfaffian([[0, 1 << 61], [-(1 << 61), 0]]) == 1
    # the residue rule: +-2^(K/2) is a sign, any other residue raises
    assert pfaffian_sign([(0, 1), (0, 1)]) == 0
    assert pfaffian_sign([(0, 1), (1, 0)]) == 1
    for bad in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (2, 3)]):
        with pytest.raises(SignMismatchError):
            pfaffian_sign(bad)


def test_word_sign_is_the_scalar_of_the_product():
    # (e0 - e1)^2 = 2; (e0 - e1)(e1 - e2)(e1 - e2)(e0 - e1) = 4
    assert _word_sign([(0, 1), (0, 1)]) == 0
    assert _word_sign([(0, 1), (1, 0)]) == 1  # (e0 - e1)(e1 - e0) = -2
    assert _word_sign([(0, 1), (1, 2), (1, 2), (0, 1)]) == 0
    assert _word_sign([]) == 0
    for bad in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (2, 3)]):
        with pytest.raises(SignMismatchError):  # odd, or not a scalar
            _word_sign(bad)


def test_word_sign_matches_the_algebra_on_every_short_word():
    # every word of up to four vectors e_i - e_j on three coordinates,
    # multiplied out in the Q(sqrt 2) algebra: a scalar +-2^(K/2) gives
    # the sign, and anything else must raise
    vectors = [(i, j) for i in range(3) for j in range(3) if i != j]
    e = [CliffordElt.basis_vector(3, k) for k in range(3)]
    signs = collections.Counter()
    for size in range(5):
        for word in itertools.product(vectors, repeat=size):
            x = CliffordElt.scalar(3, 1)
            for i, j in word:
                x = x * (e[i] + -e[j])
            scalar = CliffordElt.scalar(3, 2 ** (size // 2))
            if x in (scalar, -scalar):
                signs[x == -scalar] += 1
                assert _word_sign(list(word)) == (x == -scalar), word
            else:
                signs[None] += 1
                with pytest.raises(SignMismatchError):
                    _word_sign(list(word))
    assert signs[0] and signs[1] and signs[None]


def test_word_with_wrong_image_raises(monkeypatch):
    # factor lists of another permutation, past _factors' compose-back
    # check, make words whose image is not the identity, at all three call
    # sites: at the products, one transposition short; at the square,
    # where an involution one transposition short still squares to a
    # sign, the first transposition swapped for (0 2), so no involution
    G = catalog("dihedral", 8)
    rows_of = G.table
    monkeypatch.setattr(clifford, "_factors", lambda p: transposition_factors(p)[1:])
    for call in (lambda: pin_cocycle(G),
                 lambda: pin_product_sign(rows_of[1], rows_of[2])):
        with pytest.raises(SignMismatchError):
            call()
    monkeypatch.setattr(clifford, "_word_sign", lambda word: _word_sign([(0, 2)] + word[1:]))
    with pytest.raises(SignMismatchError):
        involution_square_sign(8)


# -- the word sign against the Pfaffian oracle -------------------------------

def _agree(word):
    """The bit that the word sign and the Pfaffian residue rule both give
    for word, or None when both raise SignMismatchError."""
    try:
        bit = pfaffian_sign(list(word))
    except SignMismatchError:
        with pytest.raises(SignMismatchError):
            _word_sign(list(word))
        return None
    assert _word_sign(list(word)) == bit, word
    return bit


def test_word_sign_matches_pfaffian_on_generator_columns(monkeypatch):
    # every catalog group of order <= 12, D24 and C24, and D32 with the
    # rank cap lifted in this test only; the columns also fill out the table
    monkeypatch.setattr(clifford, "CLIFFORD_RANK_CAP", 32)
    specs = [s for s in SPECS_UP_TO_12 if s.startswith("catalog:")] + [
        "catalog:dihedral:24", "catalog:cyclic:24", "catalog:dihedral:32"]
    for spec in specs:
        G = group_from_spec(spec)
        n, t = G.order, G.table
        fl = [transposition_factors(t[g]) for g in range(n)]
        columns = {s: [0] + [_agree(fl[x] + fl[s] + fl[t[x][s]][::-1])
                             for x in range(1, n)]
                   for s in generating_set(G)}
        assert pin_cocycle(G).bits == cochains_from_columns(G, columns, 1)[0], spec


def test_word_sign_matches_pfaffian_on_product_triples():
    # 2,000 seeded triples (p, q, r) of degree 2 to 24, shuffles and
    # products of few transpositions in turn, each giving the four
    # products of the cocycle identity
    rng = random.Random(2024)
    for trial in range(2000):
        d = rng.randint(2, 24)
        if trial % 2:
            p, q, r = (_random_perm(rng, d, rng.randint(0, 10)) for _ in range(3))
        else:
            p, q, r = (tuple(rng.sample(range(d), d)) for _ in range(3))
        pairs = ((p, q), (perms.compose(p, q), r), (q, r), (p, perms.compose(q, r)))
        bits = [pin_product_sign(a, b) for a, b in pairs]
        assert bits == [pfaffian_product_sign(a, b) for a, b in pairs], (p, q, r)
        assert bits[0] ^ bits[1] == bits[2] ^ bits[3]


def test_word_sign_matches_pfaffian_on_involution_squares():
    for n in range(2, 25, 2):
        factors = [(2 * i, 2 * i + 1) for i in range(n // 2)]
        assert involution_square_sign(n) == (-1) ** pfaffian_sign(factors * 2), n


def test_word_sign_matches_pfaffian_on_random_words():
    # 2,000 seeded words on 2 to 8 coordinates: random ones, which mostly
    # raise, and in turn a random word followed by its reversal with some
    # factors negated, which never raises; both routes raise on the same
    rng = random.Random(1984)
    raised = 0
    for trial in range(2000):
        d = rng.randint(2, 8)
        word = [tuple(rng.sample(range(d), 2)) for _ in range(rng.randint(0, 12))]
        if trial % 2:
            word += [(j, i) if rng.random() < 0.5 else (i, j) for i, j in reversed(word)]
        raised += _agree(word) is None
    assert 800 < raised < 1000


def test_pin_cocycle_at_order_64_within_bound(monkeypatch):
    # the rank cap lifted to 64 in this test only (the Pfaffians took
    # 3.1 s for D64 and 6.0 s for C64)
    monkeypatch.setattr(clifford, "CLIFFORD_RANK_CAP", 64)
    for spec in ("catalog:dihedral:64", "catalog:cyclic:64"):
        G = group_from_spec(spec)
        t0 = time.perf_counter()
        assert pin_cocycle(G).group is G
        assert time.perf_counter() - t0 < 1.5, spec


def test_factor_lists_compose_back(monkeypatch):
    for d in range(6):
        for p in itertools.permutations(range(d)):
            assert _factors(p) == transposition_factors(p)
    G = catalog("dihedral", 8)
    rows_of = G.table
    calls = (lambda: pin_cocycle(G),
             lambda: pin_product_sign(rows_of[1], rows_of[3]))
    # factors of another permutation: one too few, or one too many
    for wrong in (lambda p: transposition_factors(p)[1:],
                  lambda p: [(0, 1)] + transposition_factors(p)):
        monkeypatch.setattr(clifford, "transposition_factors", wrong)
        for call in calls:
            with pytest.raises(CliffordError, match="do not compose"):
                call()


def test_pin_cocycle_matches_fold_oracle_at_order_16():
    for spec in ("catalog:dihedral:16", "catalog:quat_cover", "catalog:cyclic:16"):
        G = group_from_spec(spec)
        assert G.order == 16
        assert pin_cocycle(G).bits == fold_cocycle_bits(G), spec


def _random_perm(rng, d, swaps):
    """The product of `swaps` random transpositions of degree d."""
    p = tuple(range(d))
    for _ in range(swaps):
        a, b = rng.sample(range(d), 2)
        p = perms.compose(perms.from_cycles(d, [(a, b)]), p)
    return p


def test_pin_product_sign_matches_fold_oracle():
    # pairs of degree <= 24, compared wherever the oracle's folds are
    # within FOLD_TERMS_CAP: products of few transpositions, and shuffles
    rng = random.Random(24)
    compared = 0
    for trial in range(400):
        if trial % 2:
            d = rng.randint(2, 24)
            p = _random_perm(rng, d, rng.randint(0, 10))
            q = _random_perm(rng, d, rng.randint(0, 10))
        else:
            d = rng.randint(1, 12)
            p, q = (tuple(rng.sample(range(d), d)) for _ in range(2))
        k = len(transposition_factors(p)) + len(transposition_factors(q))
        if 1 << min(k, d) <= FOLD_TERMS_CAP:
            compared += 1
            assert pin_product_sign(p, q) == fold_product_sign(p, q), (p, q)
    assert 300 <= compared < 400
    for d in range(2, 25):
        factors = [(2 * i, 2 * i + 1) for i in range(d // 2)]
        assert (-1) ** _word_sign(factors * 2) == fold_square_sign(factors), d
