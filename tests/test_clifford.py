import random
from fractions import Fraction

import pytest

from traceforms.clifford import (
    CliffordElt,
    CliffordError,
    QSqrt2,
    SignMismatchError,
    _sign_bit,
    _square_sign,
    epsilon,
    involution_square_sign,
    pin_cocycle,
    pin_lift,
    pin_product_sign,
    transposition_factors,
    twisted_action,
)
from traceforms.cohomology import h2, s_map
from traceforms.groups import catalog, left_regular
from traceforms import perms


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
        assert twisted_action(pin_lift(p)) == p


def test_pin_lift_identity_and_transposition():
    assert pin_lift(tuple(range(4))) == CliffordElt.scalar(4, 1)
    t = perms.from_cycles(2, [(0, 1)])
    x = pin_lift(t)
    assert x in (epsilon(0, 1, 2), -epsilon(0, 1, 2))
    assert twisted_action(x) == t


def test_pin_product_sign_matches_cocycle_rows():
    G = catalog("dihedral", 8)
    rows_of = left_regular(G)
    res = pin_cocycle(G)
    for g in range(G.order):
        for h in range(G.order):
            bit = pin_product_sign(rows_of[g], rows_of[h])
            assert bit == res.cocycle.value(g, h)


def test_involution_square_sign_table():
    plus = {2, 8, 10, 16, 24}
    for n in range(2, 25, 2):
        s = involution_square_sign(n)
        assert s == (1 if n % 8 in (0, 2) else -1)
        assert (s == 1) == (n in plus or n % 8 in (0, 2))
    with pytest.raises(CliffordError):
        involution_square_sign(3)
    with pytest.raises(CliffordError):
        involution_square_sign(26)


def test_pin_cocycle_splitness_small_groups():
    for key, param, split in [("dihedral", 8, True), ("cyclic", 8, True),
                              ("elem_abelian_2", 3, True),
                              ("cyclic", 4, False)]:
        G = catalog(key, param) if param else catalog(key)
        res = pin_cocycle(G)
        res.cocycle.validate()
        assert h2(G).is_coboundary(res.cocycle) == split, (key, param)


def test_pin_cocycle_involutions_only_agrees_with_full():
    for key, param in [("cyclic", 4), ("dihedral", 8), ("quaternion8", None)]:
        G = catalog(key, param) if param is not None else catalog(key)
        full = pin_cocycle(G)
        only = pin_cocycle(G, involutions_only=True)
        assert full.square_signs == only.square_signs
        assert full.s_vector == only.s_vector
        assert s_map(full.cocycle) == full.s_vector


def test_pin_cocycle_caps():
    with pytest.raises(CliffordError):
        pin_cocycle(catalog("sym", 4))  # order 24 > full cap
    # involutions-only mode admits order 24
    res = pin_cocycle(catalog("sym", 4), involutions_only=True)
    assert set(res.square_signs.values()) == {1}


# -- the Q(sqrt 2) route as an oracle for the integer sign rule --------------
# Lifts are multiplied out factor by factor in CliffordElt, without the
# integer fold kernel, and a product is matched against +-(lift of product).

CATALOG_UP_TO_8 = ([("cyclic", k) for k in range(1, 9)]
                   + [("dihedral", k) for k in (2, 4, 6, 8)]
                   + [("elem_abelian_2", k) for k in range(4)]
                   + [("sym", k) for k in range(4)]
                   + [("alt", k) for k in range(4)]
                   + [("quaternion8", None), ("Z4xZ2", None)])


def _times_lift(x, p):
    """x * lift(p), multiplying by p's epsilon factors in the algebra."""
    for i, j in transposition_factors(p):
        x = x * epsilon(i, j, x.n)
    return x


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
        assert _times_lift(CliffordElt.scalar(n, 1), p) == pin_lift(p)


def test_pin_cocycle_matches_algebra_oracle():
    for key, param in CATALOG_UP_TO_8:
        G = catalog(key, param)
        assert G.order <= 8
        n = G.order
        rows_of = left_regular(G)
        lifts = [_times_lift(CliffordElt.scalar(n, 1), r) for r in rows_of]
        rows = tuple(
            sum(_algebra_sign(_times_lift(lifts[g], rows_of[h]),
                              lifts[G.table[g][h]]) << h for h in range(n))
            for g in range(n))
        assert pin_cocycle(G).cocycle.rows == rows, (key, param)


def test_pin_product_sign_matches_algebra_oracle():
    rng = random.Random(808)
    for _ in range(40):
        n = rng.randint(1, 8)
        p, q = list(range(n)), list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        p, q = tuple(p), tuple(q)
        one = CliffordElt.scalar(n, 1)
        z = _times_lift(_times_lift(one, p), q)
        w = _times_lift(one, perms.compose(p, q))
        assert pin_product_sign(p, q) == _algebra_sign(z, w), (p, q)


W = {0b011: 1, 0b110: -3}


def test_sign_rule_accepts_signed_powers_of_two():
    assert _sign_bit({0b011: 1, 0b110: -3}, W, 0) == 0
    assert _sign_bit({0b011: -4, 0b110: 12}, W, 4) == 1
    assert _square_sign([(0, 1)]) == 1
    assert _square_sign([(0, 1), (2, 3)]) == -1


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
        _sign_bit(z, w, gap)


def test_square_of_non_involution_lift_is_rejected():
    # the lift of a 3-cycle does not square to +-1
    with pytest.raises(CliffordError):
        _square_sign([(0, 2), (0, 1)])
