"""The package's record classes are plain `__slots__` classes.  Each keeps
the repr, the validation and its errors that it had as a dataclass; the
value classes that are compared, `QForm`, `FormClass` and `Group`,
compare and hash by their fields (a group by its table alone).  A count
of copies is read by the package's integer rule."""
from fractions import Fraction

import pytest

from traceforms import cohomology, fixtures, galois, groups, quadratic, verify

C2 = groups.catalog("cyclic", 2)
ZERO = cohomology.Cocycle2(C2, 0)
POLY = galois.MonicPoly((1, 0, -7))

_REPRS = [
    (lambda: quadratic.QForm((1, "-2/3")), "<1, -2/3>"),
    (lambda: quadratic.FormClass(3, (2, 1), -105, frozenset({3, 5})),
     "FormClass(rank=3, signature=(2, 1), disc=-105, places=frozenset({3, 5}))"),
    (lambda: POLY, "MonicPoly(coeffs=(1, 0, -7))"),
    (lambda: galois.EtaleAlg(((POLY, 2),)),
     "EtaleAlg(factors=((MonicPoly(coeffs=(1, 0, -7)), 2),))"),
    (lambda: ZERO, "Cocycle2(group=<Group cyclic2 of order 2>, bits=0)"),
    (lambda: fixtures.QUAD_REAL_5,
     "FieldFixture(name='quad_real_5', poly=MonicPoly(coeffs=(1, 0, -5)), "
     "catalog=('cyclic', 2), real=True, disc_class=5, case=None)"),
    (lambda: verify.VerificationReport("h2-s4", {"group": "sym:4"}, {"dim": 2},
                                       {"dim": 2}, "pass"),
     "VerificationReport(statement='h2-s4', inputs={'group': 'sym:4'}, "
     "computed={'dim': 2}, expected={'dim': 2}, verdict='pass', notes='', "
     "runtime=0.0)"),
]


@pytest.mark.parametrize("make, text", _REPRS,
                         ids=[type(make()).__name__ for make, _ in _REPRS])
def test_repr_is_the_dataclass_repr(make, text):
    obj = make()
    assert repr(obj) == text
    assert not hasattr(obj, "__dict__")


# (build, an equal build, an unequal build)
_VALUES = [
    (lambda: quadratic.QForm((1, "-2/3")),
     lambda: quadratic.QForm(entries=(Fraction(1), Fraction(-2, 3))),
     lambda: quadratic.QForm((1, "2/3"))),
    (lambda: quadratic.FormClass(3, (2, 1), -105, frozenset({3, 5})),
     lambda: quadratic.FormClass(3, [2, 1], quadratic.square_class(-105), {5, 3}),
     lambda: quadratic.FormClass(3, (2, 1), -105, frozenset())),
    (lambda: groups.catalog("cyclic", 4),
     lambda: groups.group_from_spec("perms:(0 1 2 3)"),
     lambda: groups.catalog("elem_abelian_2", 2)),
]


@pytest.mark.parametrize("make, same, other", _VALUES, ids=["QForm", "FormClass", "Group"])
def test_value_classes_compare_and_hash_by_fields(make, same, other):
    a, b, c = make(), same(), other()
    assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c and a != object()


_ERRORS = [
    (lambda: quadratic.QForm((0, 1)), quadratic.QuadraticError,
     "diagonal entries must be nonzero"),
    (lambda: quadratic.QForm((0.5,)), quadratic.QuadraticError,
     "0.5 is not an exact rational; pass an int, a Fraction or a string"),
    (lambda: quadratic.FormClass(1, (1, 0), 4, frozenset()), quadratic.QuadraticError,
     "disc must be a squarefree integer"),
    (lambda: quadratic.FormClass(1, (1, 0), 0.5, frozenset()), quadratic.QuadraticError,
     "0.5 is not an exact rational; pass an int, a Fraction or a string"),
    # the old TruncatedSW(3, -105, {3}) fixture: one place breaks reciprocity
    (lambda: quadratic.FormClass(3, (2, 1), -105, {3}), quadratic.QuadraticError,
     "no form over Q has rank 3, signature (2, 1), disc -105 and places frozenset({3}): "
     "an even number of places fails"),
    # repeat(q, True) gave one copy, repeat(q, 2.5) a bare TypeError and
    # the class rule a rank of 7.5
    (lambda: quadratic.repeat(quadratic.QForm((1, -2, 5)), True), quadratic.QuadraticError,
     "need at least one copy, got True"),
    (lambda: quadratic.repeat(quadratic.QForm((1, -2, 5)), 2.5), quadratic.QuadraticError,
     "need at least one copy, got 2.5"),
    (lambda: quadratic.repeat(quadratic.QForm((1, -2, 5)), 0), quadratic.QuadraticError,
     "need at least one copy, got 0"),
    (lambda: quadratic.form_class(quadratic.QForm((1, -2, 5))).repeat(2.5),
     quadratic.QuadraticError, "need at least one copy, got 2.5"),
    (lambda: quadratic.form_class(quadratic.QForm((1, -2, 5))).repeat("2"),
     quadratic.QuadraticError, "need at least one copy, got '2'"),
    (lambda: galois.MonicPoly((1, True)), galois.GaloisError,
     "coefficient must be an integer, got True"),
    (lambda: galois.MonicPoly((1,)), galois.GaloisError,
     "polynomial must have degree at least 1"),
    (lambda: galois.MonicPoly((1,) + (None,) * 129), galois.GaloisError,
     "polynomial degree 129 exceeds ALGEBRA_DEGREE_CAP = 128"),
    (lambda: galois.MonicPoly((2, 1)), galois.GaloisError, "polynomial must be monic"),
    (lambda: galois.MonicPoly((1, 0, 0)), galois.GaloisError,
     "polynomial has repeated roots"),
    (lambda: galois.EtaleAlg(()), galois.GaloisError, "algebra needs at least one factor"),
    (lambda: galois.EtaleAlg(((POLY, 1.0),)), galois.GaloisError,
     "multiplicity must be an integer, got 1.0"),
    (lambda: galois.EtaleAlg(((POLY, 0),)), galois.GaloisError,
     "multiplicities must be positive"),
    (lambda: galois.EtaleAlg((((1, 0, -7), 1),)), galois.GaloisError,
     "factors must be monic polynomials"),
    (lambda: cohomology.Cocycle2(C2, 1 << 4), cohomology.CohomologyError,
     "cocycle bits out of range"),
    (lambda: cohomology.Cocycle2(C2, -1), cohomology.CohomologyError,
     "cocycle bits out of range"),
    (lambda: cohomology.Cocycle2(C2, 1), cohomology.CohomologyError,
     "cocycle is not normalized"),
]


@pytest.mark.parametrize("make, error, message", _ERRORS,
                         ids=[m for _, _, m in _ERRORS])
def test_validation_raises_as_before(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message
