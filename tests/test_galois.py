import random
from fractions import Fraction

import pytest
import sympy
from sympy.abc import x as _x

from traceforms.galois import (
    EtaleAlg,
    GaloisDescriptor,
    GaloisError,
    MonicPoly,
    algebra_disc,
    classify_2group_trace_form,
    disc_square_prediction,
    is_totally_real,
    power_sums,
    predicted_2group_form,
    trace_form,
    trace_gram,
    verify_main,
    verify_two_cyclic_sylow,
    verify_w1,
)
from traceforms import galois
from traceforms.groups import catalog
from traceforms.quadratic import (
    QForm,
    cup,
    is_isometric_q,
    signature,
    squarefree_part,
    tensor,
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
    MonicPoly((1, 0, -2)).__str__()


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
    assert algebra_disc(A) == 1 and is_totally_real(A)


def test_complex_pair_analog():
    q = trace_form(EtaleAlg.field(MonicPoly((1, 0, 1))))
    assert is_isometric_q(q, QForm((Fraction(1), Fraction(-1))))
    assert algebra_disc(EtaleAlg.field(MonicPoly((1, 0, 1)))) == -1


def test_quadratic_field_disc_classes():
    for d in (2, 3, 5, -1, -2, -3, 6, 10):
        A = EtaleAlg.field(MonicPoly((1, 0, -d)))
        assert algebra_disc(A) == squarefree_part(d)
        assert is_totally_real(A) == (d > 0)


def test_signature_dichotomy_on_catalog_algebras():
    from traceforms import fixtures
    for fx in fixtures.ALL_FIXTURES:
        q = trace_form(fx.algebra)
        pos, neg = signature(q)
        n = q.rank
        assert (pos, neg) in ((n, 0), (n // 2, n // 2)), fx.name


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
        assert is_isometric_q(q, tensor(qa, qb)), (a, b)
    # degenerate case: Q(sqrt2) x Q(sqrt2) realizes Q(sqrt2) tensor itself
    q2 = trace_form(EtaleAlg.field(MonicPoly((1, 0, -2))))
    qq = trace_form(EtaleAlg(((MonicPoly((1, 0, -2)), 2),)))
    assert is_isometric_q(qq, tensor(q2, q2))


def test_unit_form_for_multiquadratic_octic():
    from traceforms import fixtures
    fx = fixtures.MULTIQUADRATIC_REAL
    q = trace_form(fx.algebra)
    assert is_isometric_q(q, QForm(tuple(Fraction(1) for _ in range(8))))


def test_disc_square_prediction_branches():
    # regular rep of (Z/2)^2 is even: square disc predicted and observed
    D = GaloisDescriptor(catalog("elem_abelian_2", 2))
    A = EtaleAlg.field(MonicPoly((1, 0, -10, 0, 1)))
    assert disc_square_prediction(D, A)
    assert algebra_disc(A) == 1
    # cyclic C2: odd regular rep, nonsquare disc
    D2 = GaloisDescriptor(catalog("cyclic", 2))
    A2 = EtaleAlg.field(MonicPoly((1, 0, -3)))
    assert not disc_square_prediction(D2, A2)
    assert algebra_disc(A2) != 1
    # product with even multiplicities: square disc though sylow is cyclic
    D3 = GaloisDescriptor(catalog("cyclic", 2), field=False)
    A3 = EtaleAlg(((MonicPoly((1, 0, -3)), 2),))
    assert disc_square_prediction(D3, A3)
    assert algebra_disc(A3) == 1


def test_verify_w1_examples():
    from traceforms import fixtures
    fx = fixtures.MULTIQUADRATIC_REAL
    rep = verify_w1(fx.algebra, fx.descriptor)
    assert rep["status"] == "pass" and rep["disc_class"] == 1
    # real C4 quartic: nontrivial disc, cyclic sylow, predicate false
    D = GaloisDescriptor(catalog("cyclic", 4))
    A = EtaleAlg.field(MonicPoly((1, 0, -4, 0, 2)))
    rep = verify_w1(A, D)
    assert rep["status"] == "pass"
    assert rep["disc_class"] == 2 and not rep["predicted_square"]
    # quadratic field: w1 = d
    D2 = GaloisDescriptor(catalog("cyclic", 2))
    for d in (3, -1, 6):
        A2 = EtaleAlg.field(MonicPoly((1, 0, -d)))
        assert verify_w1(A2, D2)["disc_class"] == d


def test_verify_main_gates_and_degree_2():
    # degree 4 is neither 0 nor 2 mod 8: skipped
    D = GaloisDescriptor(catalog("cyclic", 4))
    A = EtaleAlg.field(MonicPoly((1, 0, -4, 0, 2)))
    assert verify_main(A, D)["status"] == "skipped"
    # quaternion group is not 2-reduced: skipped
    DQ = GaloisDescriptor(catalog("quaternion8"))
    # (degree-8 stand-in algebra: the real multiquadratic octic)
    from traceforms import fixtures
    A8 = fixtures.MULTIQUADRATIC_REAL.algebra
    assert verify_main(A8, DQ)["status"] == "skipped"
    # degree 2 is admitted and the identity holds for quadratic fields
    D2 = GaloisDescriptor(catalog("cyclic", 2))
    for d in (2, 3, -1, -5, 7):
        A2 = EtaleAlg.field(MonicPoly((1, 0, -d)))
        assert verify_main(A2, D2)["status"] == "pass", d


def test_verify_main_takes_disc_from_the_form(monkeypatch):
    # disc is w1 of the form verify_main already diagonalized
    from traceforms import fixtures
    from traceforms.verify import _MAIN_FIXTURES
    real = galois.algebra_disc
    calls = []
    monkeypatch.setattr(galois, "algebra_disc",
                        lambda A: calls.append(A) or real(A))
    for name in _MAIN_FIXTURES:
        A, D = fixtures.BY_NAME[name].algebra, fixtures.BY_NAME[name].descriptor
        lhs, rhs = w2(trace_form(A)), cup(2, real(A))
        assert verify_main(A, D) == {
            "status": "pass" if lhs == rhs else "fail",
            "w2_places": lhs, "cup_2_disc": rhs}, name
    assert calls == []


def test_verify_main_on_all_octic_fixtures():
    from traceforms import fixtures
    for fx in fixtures.OCTIC_FIXTURES:
        rep = verify_main(fx.algebra, fx.descriptor)
        assert rep["status"] == "pass", fx.name


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
    D = GaloisDescriptor(catalog("cyclic", 4))
    A = EtaleAlg.field(MonicPoly((1, 0, -4, 0, 2)))
    with pytest.raises(GaloisError):
        classify_2group_trace_form(A, D)  # degree 4 not 0/2 mod 8
    from traceforms import fixtures
    DQ = GaloisDescriptor(catalog("quaternion8"))
    with pytest.raises(GaloisError):
        classify_2group_trace_form(fixtures.MULTIQUADRATIC_REAL.algebra, DQ)


def test_classify_degree_one_and_two():
    # trivial group: unit form, case i
    D1 = GaloisDescriptor(catalog("cyclic", 1))
    A1 = EtaleAlg.field(MonicPoly((1, -1)))
    r = classify_2group_trace_form(A1, D1)
    assert r["case"] == "i" and r["isometric"]
    # quadratic real: case iii shape <2, 2d>
    D2 = GaloisDescriptor(catalog("cyclic", 2))
    r = classify_2group_trace_form(
        EtaleAlg.field(MonicPoly((1, 0, -3))), D2)
    assert r["case"] == "iii" and r["isometric"]
    # quadratic imaginary: case iv
    r = classify_2group_trace_form(
        EtaleAlg.field(MonicPoly((1, 0, 1))), D2)
    assert r["case"] == "iv" and r["isometric"]


def test_two_cyclic_sylow_reports():
    from traceforms import fixtures
    fx = fixtures.COMPOSITUM_C2XC4
    rep = verify_two_cyclic_sylow(fx.algebra, 3, 2, True,
                                  sylow_orders=(2, 4))
    assert rep["status"] == "pass"
    assert rep["w2_places"] == frozenset({2, 3})
    # d2 = 1 degenerate: both formulas give the empty set
    A = EtaleAlg(((MonicPoly((1, -1)), 8),))
    rep = verify_two_cyclic_sylow(A, 1, 1, True, sylow_orders=(2, 4))
    assert rep["status"] == "pass" and rep["w2_places"] == frozenset()
    # premise gate: biquadratic sylow (2,2) is outside r2 >= 2
    rep = verify_two_cyclic_sylow(A, 1, 1, True, sylow_orders=(2, 2))
    assert rep["status"] == "skipped"


def test_descriptor_degree_check():
    D = GaloisDescriptor(catalog("cyclic", 4))
    with pytest.raises(GaloisError):
        D.check_degree(EtaleAlg.field(MonicPoly((1, 0, -3))))
    with pytest.raises(GaloisError):
        # field flag contradicts a product algebra
        GaloisDescriptor(catalog("cyclic", 4), field=True).check_degree(
            EtaleAlg(((MonicPoly((1, 0, -3)), 2),)))
