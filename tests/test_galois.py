import random
from fractions import Fraction

import pytest
import sympy
from sympy.abc import x as _x

from traceforms.galois import (
    EtaleAlg,
    GaloisError,
    MonicPoly,
    algebra_disc,
    classify_2group_trace_form,
    disc_square_prediction,
    power_sums,
    predicted_2group_form,
    trace_form,
    trace_gram,
    two_cyclic_sylow_orders,
    verify_main,
    verify_two_cyclic_sylow,
    verify_w1,
)
from traceforms import galois
from traceforms.groups import catalog, group_from_spec, sylow2
from traceforms.quadratic import (
    QForm,
    cup,
    form_class,
    signature,
    squarefree_part,
    w1,
    w2,
)


def test_power_sums_examples():
    assert power_sums(MonicPoly((1, -1)), 4) == (1, 1, 1, 1)
    assert power_sums(MonicPoly((1, 0, -3)), 5) == (2, 0, 6, 0, 18)
    assert power_sums(MonicPoly((1, 0, -1, -1)), 4) == (3, 0, 2, 3)
    # (x-1)(x-2): p_k = 1 + 2^k
    assert power_sums(MonicPoly((1, -3, 2)), 4) == (2, 3, 5, 9)


def test_power_sums_match_companion_matrix_traces():
    rng = random.Random(101)
    done = 0
    while done < 30:
        d = rng.randint(2, 5)
        coeffs = [1] + [rng.randint(-6, 6) for _ in range(d)]
        if sympy.discriminant(sympy.Poly(coeffs, _x).as_expr(), _x) == 0:
            continue
        ours = power_sums(MonicPoly(tuple(coeffs)), d + 3)
        comp = sympy.Matrix.zeros(d)
        for i in range(1, d):
            comp[i, i - 1] = 1
        for i in range(d):
            comp[i, d - 1] = -coeffs[d - i]
        power = sympy.eye(d)
        for k, pk in enumerate(ours):
            assert power.trace() == pk, (coeffs, k)
            power = power * comp
        done += 1


def test_monic_poly_validation():
    with pytest.raises(GaloisError):
        MonicPoly((2, 0, -1))          # not monic
    with pytest.raises(GaloisError):
        MonicPoly((1, 0, -2, 0, 1))    # (x²-1)² is inseparable
    with pytest.raises(GaloisError):
        MonicPoly((1,))                # degree 0


@pytest.mark.parametrize("make", [
    lambda: MonicPoly((1, 0, -3.0)),
    lambda: MonicPoly((True, 0, -3)),
    lambda: EtaleAlg(((MonicPoly((1, 0, -3)), 2.5),)),
    lambda: EtaleAlg(((MonicPoly((1, 0, -3)), 2.0),)),
    lambda: EtaleAlg(((MonicPoly((1, 0, -3)), True),)),
    lambda: EtaleAlg(((MonicPoly((1, 0, -3)), Fraction(5, 2)),)),
    lambda: EtaleAlg(((MonicPoly((1, 0, -3)), None),)),
    lambda: EtaleAlg(((MonicPoly((1, 0, -3)), "1/0"),)),
    lambda: EtaleAlg(((MonicPoly((1, 0, -3)), object()),)),
], ids=["float-coeff", "bool-coeff", "float-mult",
        "integral-float-mult", "bool-mult", "fraction-mult", "none-mult",
        "zero-denominator-mult", "object-mult"])
def test_constructors_refuse_floats_and_bools(make):
    # int() made 2.5 a multiplicity of 2 (degree 4) and True one of 1;
    # None and object() raised TypeError, "1/0" ZeroDivisionError
    with pytest.raises(GaloisError, match="must be integers|must be an integer"):
        make()


def test_multiplicity_given_exactly_is_accepted():
    f = MonicPoly((1, 0, -3))
    for m in (2, "2", " +2 "):
        A = EtaleAlg(((f, m),))
        assert A.factors == ((f, 2),) and A.degree == 4
    # the integer rule: an int or integer text; Fraction(2) and "4/2" are
    # refused alike as coefficients (test_coefficients_and_...)
    for m in (Fraction(2), "4/2", "2.0", "1_0", "٢"):
        with pytest.raises(GaloisError, match="must be an integer"):
            EtaleAlg(((f, m),))


def _read_or_none(make):
    try:
        return make()
    except GaloisError as exc:
        assert "must be an integer, got " in str(exc)
        return None


@pytest.mark.parametrize("x", [
    3, "3", "3.0", "6/2", Fraction(3), " 3 ",
    3.0, True, None, Fraction(7, 2), "1/0", "x", "1e100000", object(),
], ids=["int", "str", "str-decimal", "str-fraction", "fraction", "str-spaced",
        "float", "bool", "none", "half", "zero-denominator", "text", "long-exponent",
        "object"])
def test_coefficients_and_multiplicities_read_integers_alike(x):
    # one reader for both: MonicPoly used to refuse text and Fractions
    # that EtaleAlg took as multiplicities
    coeffs = _read_or_none(lambda: MonicPoly((1, "0", x)).coeffs)
    mult = _read_or_none(lambda: EtaleAlg(((MonicPoly((1, 0, 7)), x),)).factors[0][1])
    assert (coeffs, mult) in {((1, 0, 3), 3), (None, None)}


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _separability_cases(rng, count):
    """Seeded monic integer polynomials of degree 1-40: plain ones, ones
    with a planted square factor g·h², and ones whose derivative has
    content d (every middle coefficient a multiple of d, or (x + c)^d)."""
    def rand_monic(d):
        return [1] + [rng.randint(-9, 9) for _ in range(d)]
    cases = []
    while len(cases) < count:
        d = rng.randint(1, 40)
        kind = len(cases) % 3
        if kind == 1 and d >= 2:
            e = rng.randint(1, min(3, d // 2))
            h = rand_monic(e)
            cs = _poly_mul(rand_monic(d - 2 * e), _poly_mul(h, h))
        elif kind == 2 and d >= 2 and rng.random() < 0.2:
            cs = [1]
            for _ in range(d):
                cs = _poly_mul(cs, [1, rng.randint(-3, 3)])
        elif kind == 2 and d >= 2:
            cs = [1] + [d * rng.randint(-3, 3) for _ in range(d - 1)]
            cs.append(rng.randint(-9, 9))
        else:
            cs = rand_monic(d)
        cases.append(cs)
    return cases


def test_separability_matches_sympy_discriminant():
    rng = random.Random(2024)
    inseparable = 0
    for cs in _separability_cases(rng, 600):
        if sympy.discriminant(sympy.Poly(cs, _x)) == 0:
            inseparable += 1
            with pytest.raises(GaloisError,
                               match="^polynomial has repeated roots$"):
                MonicPoly(tuple(cs))
        else:
            assert MonicPoly(tuple(cs)).coeffs == tuple(cs)
    assert 200 <= inseparable <= 400, inseparable


def test_poly_gcd_degree_matches_sympy_gcd():
    # the check's own contract: degree of gcd over Q, not only "is it 0"
    rng = random.Random(2025)
    for _ in range(150):
        g = [rng.randint(-5, 5) or 1 for _ in range(rng.randint(1, 6))]
        a = _poly_mul(g, [rng.randint(-5, 5) or 1 for _ in range(rng.randint(1, 8))])
        b = _poly_mul(g, [rng.randint(-5, 5) or 1 for _ in range(rng.randint(1, 8))])
        expected = sympy.gcd(sympy.Poly(a, _x), sympy.Poly(b, _x)).degree()
        assert galois._poly_gcd_degree(a, b) == expected, (a, b)


def test_algebra_degree_cap():
    cap = galois.ALGEBRA_DEGREE_CAP
    top = MonicPoly((1,) + (0,) * (cap - 1) + (-2,))  # x^cap - 2
    EtaleAlg(((top, 1),))
    EtaleAlg(((MonicPoly((1, 0, -3)), cap // 2),))
    msg = f"ALGEBRA_DEGREE_CAP = {cap}"
    with pytest.raises(GaloisError, match=f"polynomial degree {cap + 1} exceeds {msg}"):
        MonicPoly((1,) + (0,) * cap + (-2,))
    with pytest.raises(GaloisError, match=f"algebra degree {cap + 2} exceeds {msg}"):
        EtaleAlg(((MonicPoly((1, 0, -3)), cap // 2 + 1),))


def test_algebra_is_bounded_before_a_polynomial_is_built(monkeypatch):
    """EtaleAlg takes a factor as a MonicPoly or a coefficient list, and
    reads every multiplicity and bounds every degree before it builds a
    polynomial, whose separability test is the costly step."""
    assert repr(EtaleAlg([([1, 0, "-7"], "2")])) == repr(EtaleAlg(((MonicPoly((1, 0, -7)), 2),)))
    cap = galois.ALGEBRA_DEGREE_CAP
    tests = []
    monkeypatch.setattr(galois, "_poly_gcd_degree", lambda a, b: tests.append(a) or 0)
    big = [1] + [0] * (cap - 1) + [-2]  # degree cap
    refused = [
        ([(big, 1)] * 3, f"algebra degree {3 * cap} exceeds ALGEBRA_DEGREE_CAP = {cap}"),
        ([(big, 1), (big + [0], 1)],
         f"polynomial degree {cap + 1} exceeds ALGEBRA_DEGREE_CAP = {cap}"),
        ([(big + [0.5], 1), (big, 1)],  # past the cap before a coefficient is read
         f"polynomial degree {cap + 1} exceeds ALGEBRA_DEGREE_CAP = {cap}"),
        ([(big, 1), ([1, 0.5], 2.5)], "multiplicity must be an integer, got 2.5"),
        ([(big, 1), ([1, 0.5], 0)], "multiplicities must be positive"),
        ([(big, 1), ((1, 0, -7), 1)], "factors must be monic polynomials"),
    ]
    for factors, message in refused:
        with pytest.raises(GaloisError) as exc:
            EtaleAlg(factors)
        assert str(exc.value) == message
    assert tests == []
    # a list too short for degree 1 does not lower the sum, and is refused
    with pytest.raises(GaloisError, match="^polynomial must have degree at least 1$"):
        EtaleAlg([([], 10 ** 100), ([1, 0, -7], 1)])


def test_degree_bits_cap():
    cap = galois.DEGREE_BITS_CAP
    d = galois.ALGEBRA_DEGREE_CAP
    bits = cap // d
    c = (1 << bits) - 1
    assert MonicPoly((1,) + (0,) * (d - 1) + (-c,)).degree == d
    assert MonicPoly((1, -(1 << (cap - 1)))).degree == 1
    msg = f"polynomial degree {d} times coefficient bits {bits + 1} exceeds " \
          f"DEGREE_BITS_CAP = {cap}"
    with pytest.raises(GaloisError, match=msg):
        MonicPoly((1,) + (0,) * (d - 1) + (-(c + 1),))
    with pytest.raises(GaloisError, match="DEGREE_BITS_CAP"):
        MonicPoly((1, -(1 << cap)))


def test_trace_gram_examples():
    assert trace_gram(MonicPoly((1, -1))) == ((1,),)
    g = trace_gram(MonicPoly((1, 0, -5)))
    assert g == ((2, 0), (0, 10))
    q = trace_form(EtaleAlg.field(MonicPoly((1, 0, -4, 0, 2))))
    assert signature(q) == (4, 0)  # totally real quartic


def test_trace_gram_disc_class_matches_sympy_discriminant():
    rng = random.Random(4242)
    done = 0
    while done < 50:
        d = rng.choice([3, 4])
        coeffs = [1] + [rng.randint(-8, 8) for _ in range(d)]
        disc = sympy.discriminant(sympy.Poly(coeffs, _x).as_expr(), _x)
        if disc == 0:
            continue
        A = EtaleAlg.field(MonicPoly(tuple(coeffs)))
        ours = algebra_disc(A)
        assert ours == squarefree_part(int(disc)), coeffs
        assert ours == w1(trace_form(A))
        done += 1


def test_det_fraction_free_matches_sympy():
    rng = random.Random(4243)
    mats = [trace_gram(MonicPoly((1, 0, -40, 0, 352, 0, -960, 0, 576)))]
    while len(mats) < 60:
        n = rng.randint(1, 6)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-7, 7) * (i != j or rng.random() < 0.7)
        if sympy.Matrix(m).det() != 0:
            mats.append(m)
    for m in mats:
        assert galois._det_fraction_free(m) == sympy.Matrix(m).det(), m


def test_split_algebra_has_unit_trace_form():
    A = EtaleAlg(((MonicPoly((1, -1)), 5),))
    q = trace_form(A)
    assert q.rank == 5
    assert all(e == Fraction(1) for e in q.entries)
    assert algebra_disc(A) == 1 and signature(q) == (A.degree, 0)


def test_complex_pair_analog():
    q = trace_form(EtaleAlg.field(MonicPoly((1, 0, 1))))
    assert form_class(q) == form_class(QForm((Fraction(1), Fraction(-1))))
    assert algebra_disc(EtaleAlg.field(MonicPoly((1, 0, 1)))) == -1


def test_quadratic_field_disc_classes():
    for d in (2, 3, 5, -1, -2, -3, 6, 10):
        A = EtaleAlg.field(MonicPoly((1, 0, -d)))
        assert algebra_disc(A) == squarefree_part(d)
        assert (signature(trace_form(A)) == (A.degree, 0)) == (d > 0)


def test_signature_dichotomy_on_catalog_algebras():
    from traceforms import fixtures
    for fx in fixtures.ALL_FIXTURES:
        q = trace_form(fx.algebra)
        pos, neg = signature(q)
        n = q.rank
        assert (pos, neg) in ((n, 0), (n // 2, n // 2)), fx.name


def _tensor(q1, q2):
    return QForm(tuple(a * b for a in q1.entries for b in q2.entries))


def test_tensor_identity_on_biquadratic_composita():
    # field case: Q(sqrt a, sqrt b) with distinct square classes
    for a, b, poly in [
        (2, 3, (1, 0, -10, 0, 1)),      # sqrt2+sqrt3
        (2, 5, (1, 0, -14, 0, 9)),      # sqrt2+sqrt5
        (3, 5, (1, 0, -16, 0, 4)),      # sqrt3+sqrt5
    ]:
        q = trace_form(EtaleAlg.field(MonicPoly(poly)))
        qa = trace_form(EtaleAlg.field(MonicPoly((1, 0, -a))))
        qb = trace_form(EtaleAlg.field(MonicPoly((1, 0, -b))))
        assert form_class(q) == form_class(_tensor(qa, qb)), (a, b)
    # degenerate case: Q(sqrt2) x Q(sqrt2) realizes Q(sqrt2) tensor itself
    q2 = trace_form(EtaleAlg.field(MonicPoly((1, 0, -2))))
    qq = trace_form(EtaleAlg(((MonicPoly((1, 0, -2)), 2),)))
    assert form_class(qq) == form_class(_tensor(q2, q2))


def test_unit_form_for_multiquadratic_octic():
    from traceforms import fixtures
    fx = fixtures.MULTIQUADRATIC_REAL
    q = trace_form(fx.algebra)
    assert form_class(q) == form_class(QForm(tuple(Fraction(1) for _ in range(8))))


def test_disc_square_prediction_branches():
    # regular rep of (Z/2)^2 is even: square disc predicted and observed
    G = catalog("elem_abelian_2", 2)
    A = EtaleAlg.field(MonicPoly((1, 0, -10, 0, 1)))
    assert disc_square_prediction(A, G)
    assert algebra_disc(A) == 1
    # cyclic C2: odd regular rep, nonsquare disc
    G2 = catalog("cyclic", 2)
    A2 = EtaleAlg.field(MonicPoly((1, 0, -3)))
    assert not disc_square_prediction(A2, G2)
    assert algebra_disc(A2) != 1
    # even power of a field: square disc though sylow is cyclic
    G3 = catalog("cyclic", 4)
    A3 = EtaleAlg(((MonicPoly((1, 0, -3)), 2),))
    assert disc_square_prediction(A3, G3)
    assert algebra_disc(A3) == 1


def test_verify_w1_examples():
    from traceforms import fixtures
    fx = fixtures.MULTIQUADRATIC_REAL
    rep = verify_w1(fx.algebra, fx.group)
    assert rep["status"] == "pass" and rep["disc_class"] == 1
    # real C4 quartic: nontrivial disc, cyclic sylow, predicate false
    G = catalog("cyclic", 4)
    A = EtaleAlg.field(MonicPoly((1, 0, -4, 0, 2)))
    rep = verify_w1(A, G)
    assert rep["status"] == "pass"
    assert rep["disc_class"] == 2 and not rep["predicted_square"]
    # quadratic field: w1 = d
    G2 = catalog("cyclic", 2)
    for d in (3, -1, 6):
        A2 = EtaleAlg.field(MonicPoly((1, 0, -d)))
        assert verify_w1(A2, G2)["disc_class"] == d


def test_verify_main_gates_and_degree_2():
    # degree 4 is neither 0 nor 2 mod 8: skipped
    G = catalog("cyclic", 4)
    A = EtaleAlg.field(MonicPoly((1, 0, -4, 0, 2)))
    assert verify_main(A, G)["status"] == "skipped"
    # quaternion group is not 2-reduced: skipped
    GQ = catalog("quaternion8")
    # (degree-8 stand-in algebra: the real multiquadratic octic)
    from traceforms import fixtures
    A8 = fixtures.MULTIQUADRATIC_REAL.algebra
    assert verify_main(A8, GQ)["status"] == "skipped"
    # degree 2 is admitted and the identity holds for quadratic fields
    G2 = catalog("cyclic", 2)
    for d in (2, 3, -1, -5, 7):
        A2 = EtaleAlg.field(MonicPoly((1, 0, -d)))
        assert verify_main(A2, G2)["status"] == "pass", d


def test_verify_main_takes_disc_from_the_form(monkeypatch):
    # disc is w1 of the form verify_main already diagonalized
    from traceforms import fixtures
    from traceforms.verify import _MAIN_FIXTURES
    real = galois.algebra_disc
    calls = []
    monkeypatch.setattr(galois, "algebra_disc",
                        lambda A: calls.append(A) or real(A))
    for name in _MAIN_FIXTURES:
        A, G = fixtures.BY_NAME[name].algebra, fixtures.BY_NAME[name].group
        lhs, rhs = w2(trace_form(A)), cup(2, real(A))
        assert verify_main(A, G) == {
            "status": "pass" if lhs == rhs else "fail",
            "w2_places": lhs, "cup_2_disc": rhs}, name
    assert calls == []


def test_verify_main_on_all_octic_fixtures():
    from traceforms import fixtures
    for fx in fixtures.OCTIC_FIXTURES:
        rep = verify_main(fx.algebra, fx.group)
        assert rep["status"] == "pass", fx.name


def _counting_factorint(monkeypatch) -> list:
    from traceforms import quadratic
    calls, real = [], quadratic.factorint
    monkeypatch.setattr(quadratic, "factorint", lambda n: calls.append(n) or real(n))
    return calls


def _entry_parts(q: QForm) -> list[int]:
    return [n for a in q.entries for n in (abs(a.numerator), a.denominator) if n > 1]


def test_verify_main_factors_each_entry_and_two_once(monkeypatch):
    # cup(2, w1(q)) handed the disc class of q on as a bare int, which was
    # factored again: once more on each cyclic octic, whose disc class is 2
    from traceforms import fixtures
    calls = _counting_factorint(monkeypatch)
    for fx in fixtures.OCTIC_FIXTURES:
        parts = _entry_parts(trace_form(fx.algebra))
        calls.clear()
        verify_main(fx.algebra, fx.group)
        assert sorted(calls) == sorted(parts + [2]), fx.name


def test_copies_of_a_field_factor_one_copy(monkeypatch):
    # the trace form of F^m is m copies of F's, and takes their classes:
    # the class of four copies of the cyclotomic quartic made 16 calls
    from traceforms import fixtures, quadratic
    f = fixtures.CYCLOTOMIC8.poly
    parts = _entry_parts(trace_form(EtaleAlg.field(f)))
    calls = _counting_factorint(monkeypatch)
    quadratic.form_class(trace_form(EtaleAlg(((f, 4),))))
    assert sorted(calls) == sorted(parts) == [2, 4, 4, 8]


def test_classification_cases_and_models():
    case, m1 = predicted_2group_form(8, real=True, cyclic=False, d=1)
    assert case == "i" and all(e == Fraction(1) for e in m1.entries)
    case, m3 = predicted_2group_form(8, real=True, cyclic=True, d=2)
    assert case == "iii" and m3.entries[:2] == (Fraction(2), Fraction(4))
    case, m2 = predicted_2group_form(8, real=False, cyclic=False, d=1)
    assert case == "ii" and signature(m2) == (4, 4)
    case, m4 = predicted_2group_form(8, real=False, cyclic=True, d=2)
    assert case == "iv" and signature(m4) == (4, 4)
    # case iv leading sign alternates with the parity of n/2 - 1
    _, m4b = predicted_2group_form(4, real=False, cyclic=True, d=-1)
    assert m4b.entries[2] == Fraction(-2)   # n/2-1 = 1 is odd
    _, m4c = predicted_2group_form(2, real=False, cyclic=True, d=-1)
    assert m4c.entries == (Fraction(2), Fraction(-2))  # n/2-1 = 0 is even


def test_classify_rejects_wrong_degree_and_groups():
    # degree 4 is not 0/2 mod 8, and Q8 is not 2-reduced: classify refuses
    # each with the reason verify_main skips it for
    from traceforms import fixtures
    for A, G, reason in [
            (EtaleAlg.field(MonicPoly((1, 0, -4, 0, 2))), catalog("cyclic", 4),
             "degree 4 is not 0 or 2 mod 8"),
            (fixtures.MULTIQUADRATIC_REAL.algebra, catalog("quaternion8"),
             "group fails the trivial-kernel condition")]:
        assert verify_main(A, G) == {"status": "skipped", "reason": reason}
        with pytest.raises(GaloisError) as info:
            classify_2group_trace_form(A, G)
        assert str(info.value) == reason


def test_classify_degree_one_and_two():
    # trivial group: unit form, case i
    G1 = catalog("cyclic", 1)
    A1 = EtaleAlg.field(MonicPoly((1, -1)))
    r = classify_2group_trace_form(A1, G1)
    assert r["case"] == "i" and r["isometric"]
    # quadratic real: case iii shape <2, 2d>
    G2 = catalog("cyclic", 2)
    r = classify_2group_trace_form(
        EtaleAlg.field(MonicPoly((1, 0, -3))), G2)
    assert r["case"] == "iii" and r["isometric"]
    # quadratic imaginary: case iv
    r = classify_2group_trace_form(
        EtaleAlg.field(MonicPoly((1, 0, 1))), G2)
    assert r["case"] == "iv" and r["isometric"]


def test_two_cyclic_sylow_reports():
    from traceforms import fixtures
    fx = fixtures.COMPOSITUM_C2XC4
    rep = verify_two_cyclic_sylow(fx.algebra, fx.group, 3, 2)
    assert rep["status"] == "pass"
    assert rep["w2_places"] == frozenset({2, 3})
    # d2 = 1 degenerate: both formulas give the empty set
    A = EtaleAlg(((MonicPoly((1, -1)), 8),))
    rep = verify_two_cyclic_sylow(A, catalog("z4xz2"), 1, 1)
    assert rep["status"] == "pass" and rep["w2_places"] == frozenset()
    # premise gate: biquadratic sylow (2,2) is outside r2 >= 2
    bq = fixtures.BIQUADRATIC_REAL
    rep = verify_two_cyclic_sylow(bq.algebra, bq.group, 1, 1)
    assert rep["status"] == "skipped"


def test_check_galois_rejects_degree_mismatch_and_products():
    G = catalog("cyclic", 4)
    with pytest.raises(GaloisError, match="algebra degree 2 != group order 4"):
        galois._check_galois(EtaleAlg.field(MonicPoly((1, 0, -3))), G)
    with pytest.raises(GaloisError, match="power of a single field"):
        galois._check_galois(EtaleAlg(((MonicPoly((1, 0, -3)), 1),
                                       (MonicPoly((1, 0, -5)), 1))), G)
    # a power F^m of one field passes, and is a field only when m = 1
    assert galois._check_galois(EtaleAlg.field(MonicPoly((1, 0, -4, 0, 2))), G)
    assert not galois._check_galois(EtaleAlg(((MonicPoly((1, 0, -3)), 2),)), G)


def _quartic_product():
    return EtaleAlg(tuple((MonicPoly((1, 0, -d)), 1) for d in (2, 3, 5, 7)))


def test_product_of_several_fields_is_not_galois():
    # Q(sqrt2) x Q(sqrt3) x Q(sqrt5) x Q(sqrt7) has degree 8 = |C2^3| but
    # is not a power of one field: no theorem check applies to it
    A, G = _quartic_product(), catalog("elem_abelian_2", 3)
    for check in (verify_main, verify_w1, classify_2group_trace_form):
        with pytest.raises(GaloisError, match="power of a single field"):
            check(A, G)
    with pytest.raises(GaloisError, match="power of a single field"):
        verify_two_cyclic_sylow(A, catalog("z4xz2"), 3, 2)


def test_two_cyclic_sylow_skips_groups_outside_the_premise():
    # the multiquadratic octic's group C2^3 is not a product of two cyclic
    # groups, so the formula has no premise there
    from traceforms import fixtures
    fx = fixtures.MULTIQUADRATIC_REAL
    rep = verify_two_cyclic_sylow(fx.algebra, fx.group, 3, 2)
    assert rep["status"] == "skipped"


def _two_cyclic_orders_oracle(G):
    """(2^r1, 2^r2) by brute force: a Sylow 2-subgroup P of order 2^k is
    Z/a x Z/b (2 <= a <= b) exactly when P is abelian and some x of
    order b and y of order a have <x> and <y> meeting in e and
    generating P."""
    P = sylow2(G)
    n, t = P.order, P.table
    if any(t[a][b] != t[b][a] for a in range(n) for b in range(n)):
        return None
    powers = {}
    for x in range(n):
        acc, seen = 0, [0]
        while True:
            acc = t[acc][x]
            if acc == 0:
                break
            seen.append(acc)
        powers[x] = frozenset(seen)
    best = None
    for x in range(n):
        for y in range(n):
            a, b = len(powers[y]), len(powers[x])
            if not 2 <= a <= b or a * b != n or powers[x] & powers[y] != {0}:
                continue
            if len({t[p][q] for p in powers[x] for q in powers[y]}) == n:
                best = (a, b)
    return best


def test_two_cyclic_sylow_orders_match_brute_force():
    two_groups = [catalog(name, param) for name, param in (
        ("cyclic", 1), ("cyclic", 2), ("cyclic", 4), ("cyclic", 8),
        ("cyclic", 16), ("elem_abelian_2", 1), ("elem_abelian_2", 2),
        ("elem_abelian_2", 3), ("elem_abelian_2", 4), ("dihedral", 2),
        ("dihedral", 4), ("dihedral", 8), ("dihedral", 16),
        ("quaternion8", None), ("z4xz2", None), ("quat_cover", None))]
    for G in two_groups:
        assert two_cyclic_sylow_orders(G) == _two_cyclic_orders_oracle(G), G
    for spec, want in (("perms:(0 1 2 3),(4 5 6 7)", (4, 4)),       # C4 x C4
                       ("perms:(0 1),(2 3 4 5 6 7 8 9)", (2, 8)),   # C2 x C8
                       ("perms:(0 1 2 3 4 5),(6 7)", (2, 2))):      # C6 x C2
        G = group_from_spec(spec)
        assert two_cyclic_sylow_orders(G) == _two_cyclic_orders_oracle(G) == want
    assert two_cyclic_sylow_orders(catalog("z4xz2")) == (2, 4)
