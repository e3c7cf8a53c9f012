import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
import sympy

from traceforms import oracles, quadratic
from traceforms.galois import MonicPoly, trace_gram
from traceforms.oracles import hilbert_symbol_oracle
from traceforms.quadratic import (
    INF,
    FormClass,
    QForm,
    QuadraticError,
    cup,
    diagonalize,
    direct_sum,
    factorint,
    form_class,
    hilbert_symbol,
    is_probable_prime,
    place_sort_key,
    repeat,
    scale,
    signature,
    square_class,
    squarefree_part,
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
    # two 12-digit primes: rho runs to Brent cycle length 2^20
    cases.append(722_771_259_823 * 689_060_197_487)
    for n in cases:
        assert factorint(n) == sympy.factorint(n), n
    with pytest.raises(QuadraticError):
        factorint(2**89 - 1)


def test_rho_budget_names_the_limit(monkeypatch):
    monkeypatch.setattr(quadratic, "RHO_BUDGET", 64)
    with pytest.raises(QuadraticError, match="RHO_BUDGET = 64"):
        factorint(1_000_003 * 999_983)


def test_miller_rabin_rounds_are_paid_from_the_budget(monkeypatch):
    # a prime takes no rho step, but each of its 13 rounds on 20 bits costs
    # 20 steps, paid before it runs; a round on 4,300 digits (7 s) costs
    # more than the whole budget
    monkeypatch.setattr(quadratic, "RHO_BUDGET", 39)
    with pytest.raises(QuadraticError, match="cannot factor 1000003 within RHO_BUDGET = 39"):
        factorint(1_000_003)
    assert is_probable_prime(1_000_003)  # no budget outside factorint
    monkeypatch.undo()
    t0 = time.perf_counter()
    with pytest.raises(QuadraticError, match=r"cannot factor \d+\.\.\.\d+ within RHO_BUDGET"):
        factorint(int("1" * 4300))
    assert time.perf_counter() - t0 < 1


def test_is_probable_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 97, 101, 3511, 1_000_003}
    for n in range(-2, 110):
        assert is_probable_prime(n) == (n in primes or (
            n > 1 and all(n % d for d in range(2, n))))


def test_is_probable_prime_needs_no_miller_rabin_below_43_squared(monkeypatch):
    # the bases are every prime below 43, so trial division by them proves
    # every n < 43^2 = 1849 prime or not; Miller-Rabin starts at 1849 = 43^2
    assert quadratic._MR_BASES == tuple(sympy.primerange(43))
    powers = []

    def counting(*args):
        powers.append(args)
        return pow(*args)

    monkeypatch.setattr(quadratic, "pow", counting, raising=False)
    for n in range(-2, 43 * 43):
        assert is_probable_prime(n) == sympy.isprime(n), n
    assert powers == []
    assert not is_probable_prime(43 * 43) and powers
    for n in range(43 * 43 + 1, 2000):
        assert is_probable_prime(n) == sympy.isprime(n), n


# psi_t, the least composite that is a strong pseudoprime to each of the
# first t prime bases, for t = 1..13 (Sorenson and Webster, Math. Comp.
# 86, 2017); a Miller-Rabin test with the first t prime bases passes
# psi_t as prime
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)


def test_is_probable_prime_refuses_every_psi_below_its_bound():
    # with the twelve bases 2..37, psi_12 passed as a prime, and
    # factorint(psi_12) was {psi_12: 1}
    for psi in _PSI[:12]:
        assert not sympy.isprime(psi)
        assert not is_probable_prime(psi), psi
    assert factorint(_PSI[11]) == {399165290221: 1, 798330580441: 1}
    assert quadratic._MR_PROVEN_BOUND == _PSI[12]
    with pytest.raises(QuadraticError, match="cannot certify primality"):
        is_probable_prime(_PSI[12])


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


_SLOW_TO_FACTOR = (2**61 - 1) * (2**67 - 1) * 1_000_003


@pytest.mark.parametrize("symbol", [hilbert_symbol, hilbert_symbol_oracle],
                         ids=["closed-form", "oracle"])
@pytest.mark.parametrize("v", [4, True, 2**89 - 1],
                         ids=["composite", "bool", "uncertified-prime"])
def test_symbols_refuse_what_is_not_a_proven_place(symbol, v, monkeypatch):
    # 2^89 - 1 is prime, but above the range where the fixed Miller-Rabin
    # bases prove it; the closed form used to answer 1 there, and the
    # oracle ran out of memory tabulating the squares mod v^3.  Both
    # factored a before checking v: 1.3 s for this a, and a product of
    # two 25-digit primes raised the rho budget's error instead
    def no_table(m):
        raise AssertionError(f"the oracle tabulates squares mod {m}")

    def no_factoring(n):
        raise AssertionError(f"factored {n} before checking the place")

    monkeypatch.setattr(oracles, "_squares_mod", no_table)
    monkeypatch.setattr(quadratic, "factorint", no_factoring)
    with pytest.raises(QuadraticError, match=str(v)):
        symbol(_SLOW_TO_FACTOR, 5, v)


@pytest.mark.parametrize("symbol", [hilbert_symbol, hilbert_symbol_oracle],
                         ids=["closed-form", "oracle"])
def test_place_above_the_proven_bound_is_refused_before_any_round(symbol):
    # the Mersenne prime 2^9941 - 1 has 2,993 digits: the symbol ran 13
    # Miller-Rabin rounds for 32.7 s and then quoted every digit
    start = time.perf_counter()
    with pytest.raises(QuadraticError, match="cannot certify primality") as info:
        symbol(3, 5, 2**9941 - 1)
    assert time.perf_counter() - start < 1
    assert len(str(info.value)) < 200 and "..." in str(info.value)
    # a small factor still settles a place above the bound
    start = time.perf_counter()
    with pytest.raises(QuadraticError, match="not a place") as info:
        symbol(1, 1, 2**100)
    assert time.perf_counter() - start < 1
    assert len(str(info.value)) < 200


def test_is_probable_prime_refuses_to_certify_above_the_proven_bound():
    with pytest.raises(QuadraticError, match="cannot certify primality"):
        is_probable_prime(2**89 - 1)
    assert not is_probable_prime(2**89 + 1)  # divisible by 3
    assert not is_probable_prime((2**61 - 1) * (2**89 - 1))


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


@pytest.mark.parametrize("make", [
    lambda: QForm((Fraction(1, 10), 0.1)),
    lambda: QForm((True,)),
    lambda: diagonalize([[0.1]]),
    lambda: diagonalize([["1", 0.5], [0.5, "1"]]),
    lambda: scale(0.1, QForm((1,))),
], ids=["qform-float", "qform-bool", "gram-float", "gram-mixed", "scale-float"])
def test_forms_refuse_floats_and_bools(make):
    # Fraction(0.1) is 3602879701896397/2^55: <0.1> had disc class
    # 7205759403792794 instead of 10
    with pytest.raises(QuadraticError, match="not an exact rational"):
        make()


# Every function that takes a value: each reads it the same way.
_VALUE_DOORS = {
    "QForm": lambda x: QForm((x, 2)),
    "scale": lambda x: scale(x, QForm((1, -2, 5))),
    "sw_scale": lambda x: form_class(QForm((1, -2, 5))).scale(x),  # the Whitney rule
    "squarefree_part": squarefree_part,
    "square_class": square_class,
    "cup": lambda x: cup(x, -1),
    "hilbert_symbol": lambda x: hilbert_symbol(x, -1, 3),
    "diagonalize": lambda x: diagonalize([[x]]),
}


@pytest.mark.parametrize("door", _VALUE_DOORS.values(), ids=_VALUE_DOORS)
@pytest.mark.parametrize("x", [0.5, True, None, "1/0", "1e100000", "1e-100000", "0x10"],
                         ids=["float", "bool", "none", "zero-denominator",
                              "exponent", "negative-exponent", "hex"])
def test_every_value_door_refuses_inexact_values(door, x):
    # the Whitney scale rule at 0.5 and True, cup(True, -1) and
    # squarefree_part(True) used to answer; QForm((None, 2)) raised TypeError,
    # "1/0" ZeroDivisionError and "0x10" a bare ValueError, and "1e100000"
    # reached factorint as a 100,001-digit integer
    start = time.perf_counter()
    with pytest.raises(QuadraticError) as exc:
        door(x)
    assert time.perf_counter() - start < 1
    if x == "1/0":
        assert str(exc.value) == "zero denominator in '1/0'"
    elif isinstance(x, str) and "e" in x:
        limit = sys.int_info.default_max_str_digits
        assert f"sys.int_info.default_max_str_digits = {limit}" in str(exc.value)


@pytest.mark.parametrize("door", _VALUE_DOORS.values(), ids=_VALUE_DOORS)
def test_every_value_door_reads_ints_strings_and_fractions_alike(door):
    assert door(3) == door("3") == door(Fraction(3))


def test_forms_read_strings_and_fractions_exactly():
    for x in ("1/10", "0.1", Fraction(1, 10)):
        assert QForm((x,)).entries == (Fraction(1, 10),)
        assert w1(QForm((x,))) == 10
        assert diagonalize([[x]]).entries == (Fraction(1, 10),)


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
        assert form_class(direct_sum(q1, q2)) == form_class(q1).direct_sum(form_class(q2))
        a = rng.choice(pool)
        assert form_class(scale(a, q1)) == form_class(q1).scale(a)
        m = rng.randint(1, 4)
        assert form_class(repeat(q1, m)) == form_class(q1).repeat(m)


def _tensor(q1, q2):
    return QForm(tuple(a * b for a in q1.entries for b in q2.entries))


def test_tensor_of_diagonal_forms():
    q1 = QForm((Fraction(1), Fraction(2)))
    q2 = QForm((Fraction(3), Fraction(5)))
    t = _tensor(q1, q2)
    assert t.rank == 4
    assert sorted(t.entries) == [Fraction(3), Fraction(5),
                                 Fraction(6), Fraction(10)]


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


def _fraction_diagonalize(gram, rng=None) -> QForm:
    """The retired Fraction elimination, kept as an oracle: simultaneous
    symmetric row/column operations on the whole matrix."""
    m = [list(r) for r in validate_gram(gram)]
    n = len(m)
    diag = []
    for k in range(n):
        cands = [i for i in range(k, n) if m[i][i] != 0]
        if not cands:
            pairs = [(i, j) for i in range(k, n) for j in range(k, n)
                     if i != j and m[i][j] != 0]
            if not pairs:
                raise QuadraticError("Gram matrix is degenerate")
            i, j = rng.choice(pairs) if rng is not None else pairs[0]
            for t in range(n):
                m[i][t] += m[j][t]
            for t in range(n):
                m[t][i] += m[t][j]
            cands = [i]
        piv = rng.choice(cands) if rng is not None else cands[0]
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for t in range(n):
                m[t][k], m[t][piv] = m[t][piv], m[t][k]
        d = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / d
            if f:
                for t in range(n):
                    m[i][t] -= f * m[k][t]
                for t in range(n):
                    m[t][i] -= f * m[t][k]
        diag.append(d)
    return QForm(tuple(diag))


def _random_gram(rng, kind):
    n = rng.randint(1, 7)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "integer":
                x = Fraction(rng.randint(-6, 6))
            elif kind == "rational":
                x = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
            elif i == j or rng.random() < 0.5:  # sparse, zero diagonal
                x = Fraction(0)
            else:
                x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            m[i][j] = m[j][i] = x
    return m


def _outcome(fn, m, rng):
    try:
        return fn(m, rng=rng).entries
    except QuadraticError as e:
        return str(e)


def test_diagonalize_matches_fraction_oracle():
    # For a fixed pivot sequence the diagonal is unique, so the
    # fraction-free elimination must give the same entries, and raise
    # the same error on the same degenerate inputs.
    rng = random.Random(97)
    grams = [_random_gram(rng, kind) for _ in range(700)
             for kind in ("integer", "rational", "sparse")]
    grams += [[[Fraction(0)] * 3] * 3, [[Fraction(1, 2)] * 2] * 2]
    grams += [trace_gram(MonicPoly(cs)) for cs in (
        (1, 0, -40, 0, 352, 0, -960, 0, 576),
        (1, -2, 0, 0, 1, 0, 2, 0, -1, 1, -2, 0, -1, -1, 0, -2, -1))]
    seen = {"ok": 0, "degenerate": 0}
    for m in grams:
        seed = rng.getrandbits(32)
        for pick in (None, seed):
            rngs = [None if pick is None else random.Random(pick)
                    for _ in range(2)]
            got = _outcome(diagonalize, m, rngs[0])
            assert got == _outcome(_fraction_diagonalize, m, rngs[1]), (m, pick)
            seen["degenerate" if isinstance(got, str) else "ok"] += 1
    assert len(grams) >= 2000 and min(seen.values()) > 100, seen


def test_validate_gram_rejects_nonsymmetric():
    with pytest.raises(QuadraticError):
        validate_gram([[Fraction(1), Fraction(2)],
                       [Fraction(3), Fraction(4)]])
    with pytest.raises(QuadraticError):
        validate_gram([[Fraction(1), Fraction(2)]])


@pytest.mark.parametrize("make, message", [
    (lambda: diagonalize([[0.5] + [0] * 128] + [[0] * 129] * 128),
     "Gram rank 129 exceeds GRAM_RANK_CAP = 128"),
    (lambda: QForm((0.5,) + (1,) * 128), "form rank 129 exceeds GRAM_RANK_CAP = 128"),
], ids=["gram", "entries"])
def test_rank_is_refused_before_an_entry_is_read(make, message):
    # the first entry is a float, which reading it would refuse first
    with pytest.raises(QuadraticError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("gram", [5, None, "ab", [[1, 2], 3], {"a": [1]}, [1, 2],
                                  [(1,), "1"]])
def test_a_gram_that_is_no_list_of_rows_is_refused(gram):
    # diagonalize(5) and diagonalize([[1, 2], 3]) raised TypeError from len
    with pytest.raises(QuadraticError) as exc:
        diagonalize(gram)
    assert str(exc.value) == "Gram matrix must be a list of rows"
    assert diagonalize(((1, 0), [0, "-1"])).entries == (1, -1)


def test_gram_entry_bits_are_refused_before_elimination():
    # the bound was the command line's alone: this matrix took 16.9 s here
    rng = random.Random(96)
    gram = [[0] * 96 for _ in range(96)]
    for i in range(96):
        for j in range(i, 96):
            gram[i][j] = gram[j][i] = rng.randrange(-(1 << 133) + 1, 1 << 133)
    gram[0][0] = (1 << 133) - 1  # 40 digits
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(QuadraticError) as exc:
            diagonalize(gram)
        times.append(time.perf_counter() - start)
    assert str(exc.value) == "Gram rank 96 x 133 entry bits exceeds GRAM_BITS_CAP = 2048"
    assert min(times) < 0.1, times


def test_form_class_accepts_the_class_of_every_form():
    # random forms of rank 0-8, their sums, scalings and repeats: each
    # class is accepted, built again from its fields, and equal to the
    # class of the form built the long way
    rng = random.Random(28)

    def entry():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 40), rng.choice((1, 1, 2, 9, 15)))

    forms = [QForm(tuple(entry() for _ in range(rng.randint(0, 8)))) for _ in range(80)]
    for q1, q2 in zip(forms, forms[1:]):
        c1, c2 = form_class(q1), form_class(q2)
        a, m = entry(), rng.randint(1, 4)
        for c, q in [(c1, q1), (c1.direct_sum(c2), direct_sum(q1, q2)),
                     (c1.scale(a), scale(a, q1)), (c1.repeat(m), repeat(q1, m))]:
            assert c == form_class(q), q
            assert FormClass(c.rank, c.signature, c.disc, set(c.places)) == c


_SMALL_DISCS = (-10, -7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10)
_SMALL_PLACES = (INF, 2, 3, 5, 7)


def test_form_class_accepts_a_binary_tuple_exactly_when_a_form_has_it():
    # every binary form is <a, a*d> up to isometry; with a up to 210 =
    # 2*3*5*7 in size it reaches each class of these discs whose places
    # lie among these, and the constructor accepts exactly those (a
    # class it refused would have raised in form_class)
    reached = {form_class(QForm((a, a * d)))
               for d in _SMALL_DISCS for a in range(-210, 211)
               if a and squarefree_part(a) == a}
    for d in _SMALL_DISCS:
        for sig in ((2, 0), (1, 1), (0, 2)):
            for k in range(len(_SMALL_PLACES) + 1):
                for places in itertools.combinations(_SMALL_PLACES, k):
                    try:
                        c = FormClass(2, sig, d, frozenset(places))
                    except QuadraticError:
                        c = None
                    assert (c in reached) == (c is not None), (sig, d, places)


@pytest.mark.parametrize("rank, sig, disc, places, rule", [
    (3, (1, 1), 1, (), "r + s = rank"),
    (2.5, (1.5, 1), 1, (), "r + s = rank"),
    (3, (3, 0, 0), 1, (), "r + s = rank"),
    (2, (2, 0), -1, (), "sign(disc) = (-1)^s"),
    (2, (0, 2), 1, (), "inf in places iff s(s-1)/2 is odd"),
    (3, (3, 0), 1, (3,), "an even number of places"),
    (0, (0, 0), 5, (), "disc 1 at rank 0"),
    (1, (1, 0), 6, (2, 3), "no places at rank <= 1"),
    (2, (2, 0), 1, (5, 13), "no place where -disc is a square at rank 2"),
    (2, (2, 0), 7, (2, 3), "no place where -disc is a square at rank 2"),
], ids=["rank", "non-integer", "not-a-pair", "sign", "inf", "reciprocity", "rank-0", "rank-1",
        "rank-2-odd", "rank-2-at-2"])
def test_form_class_refuses_a_tuple_no_form_has(rank, sig, disc, places, rule):
    with pytest.raises(QuadraticError, match=re.escape(f": {rule} fails")):
        FormClass(rank, sig, disc, frozenset(places))


@pytest.mark.parametrize("disc, places, message", [
    (12, (), "disc must be a squarefree integer"),
    (6, (4, 3), "not a place: 4"),
    (6, (True, 3), "not a place: True"),
], ids=["disc", "place", "bool-place"])
def test_form_class_refuses_a_bad_disc_or_place(disc, places, message):
    with pytest.raises(QuadraticError) as exc:
        FormClass(2, (2, 0), disc, frozenset(places))
    assert str(exc.value) == message
    assert FormClass(2, (2, 0), 6, frozenset({2, 3})).disc == 6  # <2, 3>


def test_isometry_classification():
    one = QForm((Fraction(1), Fraction(1)))
    two = QForm((Fraction(2), Fraction(2)))
    three = QForm((Fraction(3), Fraction(3)))
    assert form_class(one) == form_class(two)  # (1,1)_v = (2,2)_v at all v
    assert form_class(one) != form_class(three)  # w2 differs at 2 and 3
    assert form_class(QForm((Fraction(1), Fraction(-1)))) == \
        form_class(QForm((Fraction(2), Fraction(-2))))
    assert form_class(one) != form_class(QForm((Fraction(1),)))  # rank
    assert form_class(one) != form_class(QForm((Fraction(-1), Fraction(-1))))


def test_isometry_is_scaling_invariant_on_squares():
    rng = random.Random(67)
    pool = [x for x in range(-9, 10) if x]
    for _ in range(50):
        q = QForm(tuple(Fraction(rng.choice(pool)) for _ in range(4)))
        c = rng.choice([x for x in pool if x > 0])
        scaled = QForm(tuple(e * c * c for e in q.entries))
        assert form_class(q) == form_class(scaled)


def _random_form(rng):
    return QForm(tuple(
        Fraction(rng.choice((1, -1)) * rng.randint(1, 10**9), rng.randint(1, 10**6))
        for _ in range(rng.randint(1, 8))))


def test_w2_matches_pairwise_cup_oracle():
    # the pairwise route through the public cup, n(n-1)/2 cups where w2
    # takes n - 1 cups of an entry with the product of those before it
    rng = random.Random(83)
    small = [x for x in range(-30, 31) if x]
    forms = [_random_form(rng) for _ in range(60)]
    forms += [QForm(tuple(rng.choice(small) for _ in range(rng.randint(1, 16))))
              for _ in range(300)]
    for q in forms:
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
        # w1 and w2 each factored every entry again, and so did each
        # side of an isometry check; a form's class adds only its disc
        w1(q)
        w2(q)
        assert form_class(q) == form_class(q)
        parts = sum(n > 1 for a in q.entries for n in (abs(a.numerator), a.denominator))
        assert len(calls) <= parts + 1, (q, len(calls))


def test_sw_rules_factor_only_a_and_the_disc_they_build(monkeypatch):
    # the Whitney rules (direct_sum, repeat and scale of a class) gave the
    # discs of the classes they were given to cup, which factored them
    # again, and the class they built factored its disc once more; the
    # class of that disc is now the product of classes already held, so
    # only a is factored
    s1 = form_class(QForm((3, -5, 7)))
    s2 = form_class(QForm((2, 11)))
    calls = []
    real = quadratic.factorint

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(quadratic, "factorint", counting)
    for rule, a in [(lambda: s1.direct_sum(s2), 1),
                    (lambda: s1.repeat(2), 1),
                    (lambda: s1.repeat(3), 1),
                    (lambda: s1.scale(Fraction(6, 35)), Fraction(6, 35)),
                    (lambda: s2.scale(10), 10)]:
        calls.clear()
        out = rule()
        expected = [n for n in (a.numerator, a.denominator) if n > 1]
        assert sorted(calls) == sorted(expected), (out, calls)


def test_built_forms_take_the_classes_of_their_parts(monkeypatch):
    # direct_sum, repeat and scale built a QForm of bare entries, which
    # factored again every entry whose class its parts already held
    q1, q2 = QForm((3, Fraction(-5, 2), 7)), QForm((2, 11))
    builds = [(lambda: direct_sum(q1, q2, q1), 1),
              (lambda: repeat(q2, 3), 1),
              (lambda: scale(Fraction(6, 35), q1), Fraction(6, 35))]
    references = [form_class(QForm(build().entries)) for build, _ in builds]
    form_class(q1), form_class(q2)
    calls = []
    real = quadratic.factorint

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(quadratic, "factorint", counting)
    for (build, a), reference in zip(builds, references):
        calls.clear()
        assert form_class(build()) == reference
        assert sorted(calls) == sorted(n for n in (a.numerator, a.denominator) if n > 1)


_DEGREE16 = (1, -2, 0, 0, 1, 0, 2, 0, -1, 1, -2, 0, -1, -1, 0, -2, -1)


def test_cup_factors_each_argument_once_on_the_degree16_trace_form(monkeypatch):
    # cup used to factor each argument, then the squarefree product of its
    # numerator and denominator again: on pair (13, 14) of this trace form
    # that second pass raised after 4.9 s (a 33-digit number out of reach
    # of RHO_BUDGET), and 28 more of the 120 pairs raised too
    q = diagonalize(trace_gram(MonicPoly(_DEGREE16)))
    assert q.rank == 16
    calls = []
    real = quadratic.factorint

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(quadratic, "factorint", counting)
    quadratic._cup_cached.cache_clear()
    a, b = q.entries[13], q.entries[14]
    pair = cup(a, b)
    assert len(calls) <= 4, calls  # a numerator and a denominator each
    places = {INF, 2} | {p for x in (a, b) for n in (abs(x.numerator), x.denominator)
                         for p in sympy.primefactors(n)}
    assert pair == {v for v in places if hilbert_symbol(a, b, v) == -1}
    t0 = time.perf_counter()
    total: frozenset = frozenset()
    for i, a in enumerate(q.entries):
        for b in q.entries[i + 1:]:
            total ^= cup(a, b)
    elapsed = time.perf_counter() - t0
    assert total == w2(q)
    assert elapsed < 5, elapsed  # 0.1 s on a 2-core Xeon


# A square class goes through every door that takes a value.
_CLASS_PARTNERS = (-1, 2, -3, 13)
_PLACES_TO_13 = (INF, 2, 3, 5, 7, 11, 13)


def test_class_doors_answer_as_on_the_value():
    s_odd, s_even = form_class(QForm((3, -5, 7))), form_class(QForm((2, 11)))
    for x in range(-30, 31):
        if not x:
            continue
        c = square_class(x)
        assert square_class(c) is c
        assert c == (squarefree_part(x), frozenset(sympy.primefactors(squarefree_part(x))))
        for s in (s_odd, s_even):
            assert s.scale(c) == s.scale(x)
        sig = (3, 0) if x > 0 else (2, 1)
        built = FormClass(3, sig, c, frozenset({2, 3}))
        assert built == FormClass(3, sig, c.d, frozenset({2, 3}))
        assert built.disc == c.d and type(built.disc) is int
        for y in _CLASS_PARTNERS:
            assert cup(c, y) == cup(x, square_class(y)) == cup(x, y)
            for v in _PLACES_TO_13:
                assert hilbert_symbol(c, y, v) == hilbert_symbol(x, y, v), (x, y, v)
                assert hilbert_symbol(y, c, v) == hilbert_symbol(y, x, v), (x, y, v)


def test_class_doors_factor_nothing(monkeypatch):
    classes = [square_class(x) for x in (-30, -7, 6, 22, Fraction(-15, 49))]
    s_odd, s_even = form_class(QForm((3, -5, 7))), form_class(QForm((2, 11)))

    def no_factoring(n):
        raise AssertionError(f"factored {n} of a class")

    monkeypatch.setattr(quadratic, "factorint", no_factoring)
    quadratic._cup_cached.cache_clear()
    for c in classes:
        for d in classes:
            cup(c, d)
            for v in _PLACES_TO_13:
                hilbert_symbol(c, d, v)
        for s in (s_odd, s_even):
            s.scale(c).direct_sum(s)
            s.scale(c).repeat(3)
        FormClass(4, (3, 1) if c.d < 0 else (4, 0), c, frozenset())


@pytest.mark.parametrize("door", [
    lambda c: square_class(c),
    lambda c: hilbert_symbol(c, 5, 5),
    lambda c: cup(c, 5),
    lambda c: hilbert_symbol_oracle(c, 5, 5),
    lambda c: form_class(QForm((1, -2, 5))).scale(c),
    lambda c: FormClass(2, (2, 0), c, frozenset()),
], ids=["square_class", "hilbert_symbol", "cup", "oracle", "sw_scale", "FormClass"])
def test_a_plain_tuple_is_not_a_class(door):
    # (6, {5}) has the wrong primes for 6: read as a class it would send
    # cup(6, 2) to look for its places at 5 instead of at 3
    assert cup(6, 2) == {2, 3}
    with pytest.raises(QuadraticError, match="not an exact rational"):
        door((6, frozenset({5})))
