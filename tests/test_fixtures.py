"""Re-derivations of the frozen fixture polynomials from their defining
constructions, plus independent validation of the attached arithmetic
metadata (irreducibility, real/imaginary signature, square class of the
discriminant, Galois group where third-party support exists)."""
import pytest
import sympy
from sympy.abc import x, y

from traceforms import fixtures
from traceforms.galois import algebra_disc, is_totally_real, trace_form
from traceforms.quadratic import signature, squarefree_part


def _poly_of(fx):
    return sympy.Poly(list(fx.poly.coeffs), x)


def _resultant(f, g):
    return sympy.Poly(sympy.resultant(f, g, y), x)


def test_multiquadratic_real_derivation():
    # sqrt2 + sqrt3, then + sqrt5
    quartic = _resultant(y**2 - 2, (x - y)**2 - 3)
    assert quartic == sympy.Poly(x**4 - 10 * x**2 + 1, x)
    octic = _resultant(quartic.as_expr().subs(x, y), (x - y)**2 - 5)
    assert octic == _poly_of(fixtures.MULTIQUADRATIC_REAL)


def test_multiquadratic_imaginary_derivation():
    # sqrt2 + sqrt3 + i
    quartic = _resultant(y**2 - 2, (x - y)**2 - 3)
    octic = _resultant(quartic.as_expr().subs(x, y), (x - y)**2 + 1)
    assert octic == _poly_of(fixtures.MULTIQUADRATIC_IMAGINARY)


def test_biquadratic_real_derivation():
    quartic = _resultant(y**2 - 2, (x - y)**2 - 3)
    assert quartic == _poly_of(fixtures.BIQUADRATIC_REAL)


def test_cyclic8_real_derivation():
    """zeta32 + 1/zeta32 satisfies y² - x y + 1 = 0 with y a primitive
    32nd root of unity; the degree-16 resultant is the square of the
    octic minimal polynomial."""
    res = _resultant(y**16 + 1, y**2 - x * y + 1)
    target = _poly_of(fixtures.CYCLIC8_REAL)
    assert res == target * target
    # Chebyshev cross-check: the roots are 2 cos(k pi/16) for odd k, and
    # with x = 2 cos t we get 2*T8(x/2) = 2 cos(8t) = 0 there, so the
    # monic octic 2*T8(x/2) IS the fixture polynomial.
    assert sympy.Poly(2 * sympy.chebyshevt(8, x / 2), x) == target


def test_cyclic8_imaginary_derivation():
    """zeta32 - 1/zeta32 satisfies y² - x y - 1 = 0."""
    res = _resultant(y**16 + 1, y**2 - x * y - 1)
    target = _poly_of(fixtures.CYCLIC8_IMAGINARY)
    assert res == target * target


def test_dihedral8_imaginary_derivation():
    # 2^(1/4) + i over the splitting field of x^4 - 2
    octic = _resultant(y**4 - 2, (x - y)**2 + 1)
    assert octic == _poly_of(fixtures.DIHEDRAL8_IMAGINARY)


def test_compositum_derivation():
    # sqrt3 + sqrt(2 + sqrt2): compositum of Q(sqrt3) and the real C4 field
    octic = _resultant(y**4 - 4 * y**2 + 2, (x - y)**2 - 3)
    assert octic == _poly_of(fixtures.COMPOSITUM_C2XC4)


def test_c4_real_is_eisenstein_and_cyclic():
    f = _poly_of(fixtures.C4_REAL)
    assert f == sympy.Poly(x**4 - 4 * x**2 + 2, x)
    # Eisenstein at 2
    assert all(c % 2 == 0 for c in list(f.all_coeffs())[1:])
    assert f.all_coeffs()[-1] % 4 != 0


def test_all_fixture_polys_irreducible():
    for fx in fixtures.ALL_FIXTURES:
        assert _poly_of(fx).is_irreducible, fx.name


def test_fixture_real_root_counts_match_flags():
    for fx in fixtures.ALL_FIXTURES:
        f = _poly_of(fx)
        nreal = sympy.polys.polytools.count_roots(f)
        if fx.real:
            assert nreal == f.degree(), fx.name
        else:
            assert nreal == 0, fx.name
        assert is_totally_real(fx.algebra) == fx.real, fx.name


def test_fixture_degrees_match_group_orders():
    for fx in fixtures.ALL_FIXTURES:
        assert fx.poly.degree == fx.group.order, fx.name


def test_fixture_disc_classes():
    for fx in fixtures.ALL_FIXTURES:
        f = _poly_of(fx)
        disc = int(sympy.discriminant(f.as_expr(), x))
        assert squarefree_part(disc) == fx.disc_class, fx.name
        assert algebra_disc(fx.algebra) == fx.disc_class, fx.name


def test_fixture_signatures():
    for fx in fixtures.ALL_FIXTURES:
        q = trace_form(fx.algebra)
        n = q.rank
        assert signature(q) == ((n, 0) if fx.real else (n // 2, n // 2)), fx.name


def test_quartic_galois_groups_via_sympy():
    from sympy.polys.numberfields.galoisgroups import galois_group
    expectations = {
        "c4_real": (4, True),          # (order, cyclic)
        "cyclotomic8": (4, False),
        "biquadratic_real": (4, False),
        "quad_real_5": (2, True),
        "quad_imag_3": (2, True),
    }
    for name, (order, cyclic) in expectations.items():
        fx = fixtures.BY_NAME[name]
        G, _ = galois_group(_poly_of(fx))
        assert G.order() == order, name
        assert G.is_cyclic == cyclic, name
        assert fx.group.order == order, name


def test_eisenstein_witnesses_for_octics():
    """The two conductor-32 octics are Eisenstein at 2 (hence irreducible
    by an elementary criterion, independently of the factorization
    engine)."""
    for name in ("cyclic8_real", "cyclic8_imaginary"):
        coeffs = fixtures.BY_NAME[name].poly.coeffs
        assert coeffs[0] == 1
        assert all(c % 2 == 0 for c in coeffs[1:])
        assert coeffs[-1] % 4 != 0


def test_cyclotomic8_shift_is_eisenstein():
    f = sympy.Poly(x**4 + 1, x)
    g = sympy.Poly(f.as_expr().subs(x, x + 1), x)
    coeffs = g.all_coeffs()
    assert all(c % 2 == 0 for c in coeffs[1:])
    assert coeffs[-1] % 4 != 0


def test_imaginary_c8_fixture_validation():
    """The Open-Question fixture: the imaginary octic must be cyclic of
    degree 8.  Its root zeta32 - 1/zeta32 = zeta32(1 - zeta32^-2) lies in
    Q(zeta32), fixed exactly by the subgroup {1, 15} of (Z/32)* (15 sends
    zeta to zeta^15, mapping the root to zeta^15 - zeta^-15 = the same
    value), and (Z/32)*/{1,15} is cyclic of order 8 generated by 3."""
    # Group-theory side: (Z/32)* / {1,15} is cyclic of order 8
    units = [u for u in range(1, 32) if u % 2]
    assert len(units) == 16
    H = {1, 15}
    # cosets under multiplication mod 32
    cosets = []
    seen = set()
    for u in units:
        if u in seen:
            continue
        c = frozenset((u * h) % 32 for h in H)
        cosets.append(c)
        seen |= c
    assert len(cosets) == 8
    # the class of 3 generates: compute its order in the quotient
    k, acc = 0, 1
    while True:
        acc = (acc * 3) % 32
        k += 1
        if acc in H:
            break
    assert k == 8
    # Analytic side: zeta^15 - zeta^-15 equals zeta - zeta^-1 numerically
    import cmath
    z = cmath.exp(2j * cmath.pi / 32)
    root = z - 1 / z
    image = z**15 - z**-15
    assert abs(root - image) < 1e-12
    # and the fixture polynomial annihilates the root
    fx = fixtures.CYCLIC8_IMAGINARY
    val = sum(c * root**(fx.poly.degree - i)
              for i, c in enumerate(fx.poly.coeffs))
    assert abs(val) < 1e-9


def test_fixture_case_labels_agree_with_classifier():
    from traceforms.galois import classify_2group_trace_form
    for fx in fixtures.ALL_FIXTURES:
        if fx.case is None:
            continue
        r = classify_2group_trace_form(fx.algebra, fx.group)
        assert r["case"] == fx.case, fx.name
        assert r["isometric"], fx.name
