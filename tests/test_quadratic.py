import math
import random
from fractions import Fraction

import pytest
import sympy

from traceforms import quadratic
from traceforms.oracles import hilbert_symbol_oracle
from traceforms.quadratic import (
    INF,
    QForm,
    QuadraticError,
    TruncatedSW,
    cup,
    diagonalize,
    direct_sum,
    factorint,
    hilbert_symbol,
    is_isometric_q,
    is_probable_prime,
    place_sort_key,
    repeat,
    scale,
    signature,
    squarefree_part,
    sw_direct_sum,
    sw_repeat,
    sw_scale,
    sw_total,
    tensor,
    validate_gram,
    w1,
    w2,
)


def test_factorint_basics():
    assert factorint(1) == {}
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(2**20) == {2: 20}
    n = 1_000_003 * 999_983
    assert factorint(n) == {999_983: 1, 1_000_003: 1}
    with pytest.raises(QuadraticError):
        factorint(0)


def test_factorint_rho_semiprime_and_certification_guard():
    a, b = 1_000_000_000_039, 1_000_000_000_061
    assert factorint(a * b) == {a: 1, b: 1}
    with pytest.raises(QuadraticError):
        factorint(2**89 - 1)  # prime above the proven Miller-Rabin bound


_BASE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_factorint_matches_sympy_beyond_the_base_primes():
    # trial division stops at 37; every larger prime comes from
    # Miller-Rabin and Pollard rho
    rng = random.Random(71)

    def prime():  # a prime in (37, 10**6]
        return sympy.prevprime(rng.randint(42, 10**6 + 1))

    cases = [561, 1105, 41041, 825265]  # Carmichael numbers
    cases += [prime() ** rng.randint(1, 5) for _ in range(40)]
    cases += [prime() * prime() for _ in range(40)]
    cases += [prime() * prime() * prime() for _ in range(40)]
    cases += [math.prod(rng.choice(_BASE_PRIMES) ** rng.randint(1, 6)
                        for _ in range(rng.randint(1, 5))) for _ in range(40)]
    cases += [prime() ** 2 * rng.choice(_BASE_PRIMES) * prime()
              for _ in range(20)]
    for n in cases:
        assert factorint(n) == sympy.factorint(n), n
    with pytest.raises(QuadraticError):
        factorint(2**89 - 1)


def test_is_probable_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 97, 101, 3511, 1_000_003}
    for n in range(-2, 110):
        assert is_probable_prime(n) == (n in primes or (
            n > 1 and all(n % d for d in range(2, n))))


def test_squarefree_part():
    assert squarefree_part(18) == 2
    assert squarefree_part(-18) == -2
    assert squarefree_part(1) == 1
    assert squarefree_part(Fraction(4, 5)) == 5
    assert squarefree_part(Fraction(-3, 49)) == -3
    with pytest.raises(QuadraticError):
        squarefree_part(0)


def test_hilbert_symbol_hand_values():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(2, 3, 5) == 1
    assert hilbert_symbol(5, 5, 5) == 1   # (5,5)_5 = (5,-1)_5 = 1
    assert hilbert_symbol(3, 3, 3) == -1  # (3,-1)_3 = -1
    assert hilbert_symbol(1, 7, 7) == 1


def test_hilbert_symbol_input_validation():
    with pytest.raises(QuadraticError):
        hilbert_symbol(0, 3, 2)
    with pytest.raises(QuadraticError):
        hilbert_symbol(1, 1, 6)  # not a prime or inf


def test_hilbert_matches_bruteforce_oracle_grid():
    places = [INF, 2, 3, 5, 7, 11, 13]
    for a in range(-12, 13):
        if a == 0:
            continue
        for b in range(-12, 13):
            if b == 0:
                continue
            for v in places:
                assert hilbert_symbol(a, b, v) == \
                    hilbert_symbol_oracle(a, b, v), (a, b, v)


def test_hilbert_bilinearity_in_square_classes():
    rng = random.Random(17)
    for _ in range(200):
        a = rng.choice([x for x in range(-20, 21) if x])
        b = rng.choice([x for x in range(-20, 21) if x])
        c = rng.choice([x for x in range(-20, 21) if x])
        v = rng.choice([INF, 2, 3, 5, 7, 11])
        assert hilbert_symbol(a * c * c, b, v) == hilbert_symbol(a, b, v)
        assert hilbert_symbol(a, b, v) * hilbert_symbol(c, b, v) == \
            hilbert_symbol(a * c, b, v)


def test_cup_hand_values():
    assert cup(1, 7) == frozenset()
    assert cup(2, 2) == frozenset()
    assert cup(-1, -1) == {2, INF}
    assert cup(-1, -2) == {2, INF}
    assert cup(3, 3) == {2, 3}
    assert cup(6, 2) == {2, 3}
    assert cup(2, 3) == {2, 3}


def test_cup_symmetry_and_reciprocity():
    rng = random.Random(23)
    for _ in range(300):
        a = rng.randint(-300, 300) or 5
        b = rng.randint(-300, 300) or -7
        s = cup(a, b)
        assert s == cup(b, a)
        assert len(s) % 2 == 0  # product formula


def test_place_sort_key_orders_inf_last():
    places = sorted([INF, 7, 2, 3], key=place_sort_key)
    assert places == [2, 3, 7, INF]


def test_qform_validation_and_invariants():
    q = QForm((Fraction(1), Fraction(2), Fraction(-3), Fraction(4, 5)))
    assert q.rank == 4
    assert signature(q) == (3, 1)
    assert w1(q) == -30
    with pytest.raises(QuadraticError):
        QForm((Fraction(0),))


def test_w2_hand_values():
    assert w2(QForm((Fraction(1), Fraction(1)))) == frozenset()
    assert w2(QForm((Fraction(-1), Fraction(-1)))) == {2, INF}
    assert w2(QForm((Fraction(2), Fraction(6)))) == {2, 3}
    # <1,-1> is hyperbolic: trivial invariant
    assert w2(QForm((Fraction(1), Fraction(-1)))) == frozenset()


def test_sw_algebra_identities_random():
    rng = random.Random(41)
    pool = [x for x in range(-9, 10) if x]
    def rand_form(maxr):
        return QForm(tuple(Fraction(rng.choice(pool))
                           for _ in range(rng.randint(1, maxr))))
    for _ in range(150):
        q1, q2 = rand_form(5), rand_form(5)
        assert sw_total(direct_sum(q1, q2)) == \
            sw_direct_sum(sw_total(q1), sw_total(q2))
        a = rng.choice(pool)
        assert sw_total(scale(a, q1)) == sw_scale(a, sw_total(q1))
        m = rng.randint(1, 4)
        assert sw_total(repeat(q1, m)) == sw_repeat(sw_total(q1), m)


def test_tensor_of_diagonal_forms():
    q1 = QForm((Fraction(1), Fraction(2)))
    q2 = QForm((Fraction(3), Fraction(5)))
    t = tensor(q1, q2)
    assert t.rank == 4
    assert sorted(t.entries) == [Fraction(3), Fraction(5),
                                 Fraction(6), Fraction(10)]


def test_truncated_sw_validation():
    with pytest.raises(QuadraticError):
        TruncatedSW(2, 12, frozenset())  # disc not squarefree
    s = TruncatedSW(2, 6, frozenset({2, 3}))
    assert s.rank == 2 and s.disc == 6


def test_diagonalize_known_grams():
    two = Fraction(2)
    q = diagonalize([[two, Fraction(0)], [Fraction(0), Fraction(6)]])
    assert sorted(squarefree_part(e) for e in q.entries) == [2, 6]
    # hyperbolic plane: [[0,1],[1,0]] ~ <1,-1> up to squares
    h = diagonalize([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert signature(h) == (1, 1)
    assert w1(h) == -1
    with pytest.raises(QuadraticError):
        diagonalize([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


def test_diagonalize_invariance_under_pivot_choice():
    rng = random.Random(59)
    for _ in range(60):
        n = 5
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
        try:
            q1 = diagonalize(m)
        except QuadraticError:
            continue
        q2 = diagonalize(m, rng=random.Random(rng.randint(0, 10**9)))
        assert signature(q1) == signature(q2)
        assert w1(q1) == w1(q2)
        assert w2(q1) == w2(q2)


def test_validate_gram_rejects_nonsymmetric():
    with pytest.raises(QuadraticError):
        validate_gram([[Fraction(1), Fraction(2)],
                       [Fraction(3), Fraction(4)]])
    with pytest.raises(QuadraticError):
        validate_gram([[Fraction(1), Fraction(2)]])


def test_isometry_classification():
    one = QForm((Fraction(1), Fraction(1)))
    two = QForm((Fraction(2), Fraction(2)))
    three = QForm((Fraction(3), Fraction(3)))
    assert is_isometric_q(one, two)       # (1,1)_v = (2,2)_v at all v
    assert not is_isometric_q(one, three)  # w2 differs at 2 and 3
    assert is_isometric_q(QForm((Fraction(1), Fraction(-1))),
                          QForm((Fraction(2), Fraction(-2))))
    assert not is_isometric_q(one, QForm((Fraction(1),)))  # rank
    assert not is_isometric_q(one, QForm((Fraction(-1), Fraction(-1))))


def test_isometry_is_scaling_invariant_on_squares():
    rng = random.Random(67)
    pool = [x for x in range(-9, 10) if x]
    for _ in range(50):
        q = QForm(tuple(Fraction(rng.choice(pool)) for _ in range(4)))
        c = rng.choice([x for x in pool if x > 0])
        scaled = QForm(tuple(e * c * c for e in q.entries))
        assert is_isometric_q(q, scaled)


def _random_form(rng):
    return QForm(tuple(
        Fraction(rng.choice((1, -1)) * rng.randint(1, 10**9), rng.randint(1, 10**6))
        for _ in range(rng.randint(1, 8))))


def test_w2_matches_pairwise_cup_oracle():
    # the pairwise route through the public cup, which w2 no longer takes
    rng = random.Random(83)
    for _ in range(60):
        q = _random_form(rng)
        expected: frozenset = frozenset()
        for i, a in enumerate(q.entries):
            for b in q.entries[i + 1:]:
                expected ^= cup(a, b)
        assert w2(q) == expected, q


def test_w2_factors_each_entry_once(monkeypatch):
    calls = []
    real = quadratic.factorint

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(quadratic, "factorint", counting)
    quadratic._cup_cached.cache_clear()
    rng = random.Random(89)
    for _ in range(10):
        q = _random_form(rng)
        calls.clear()
        w2(q)
        assert len(calls) <= 2 * q.rank, (q, len(calls))

