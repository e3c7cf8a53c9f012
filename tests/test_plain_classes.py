"""The package's record classes are plain `__slots__` classes, and
`FieldFixture` and `VerificationReport` are NamedTuples.  Each keeps the
repr, the validation and its errors that it had as a dataclass; the
value classes that are compared, `QForm`, `FormClass` and `Group`,
compare and hash by their fields (a group by its table alone).  A count
of copies is read by the package's integer rule, and each door that
takes a Group refuses anything else with its layer's error.  Each
validation row names itself by an explicit id."""
from fractions import Fraction

import pytest

from traceforms import clifford, cohomology, fixtures, galois, groups, quadratic, verify

C2 = groups.catalog("cyclic", 2)
C4 = groups.catalog("cyclic", 4)
ZERO = cohomology.Cocycle2(C2, 0)
POLY = galois.MonicPoly((1, 0, -7))
QUARTIC = galois.EtaleAlg(((galois.MonicPoly((1, 0, 0, 0, 1)), 1),))

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
    ("diagonal entries must be nonzero",
     lambda: quadratic.QForm((0, 1)), quadratic.QuadraticError,
     "diagonal entries must be nonzero"),
    ("0.5 is not an exact rational; pass an int, a Fraction or a string0",
     lambda: quadratic.QForm((0.5,)), quadratic.QuadraticError,
     "0.5 is not an exact rational; pass an int, a Fraction or a string"),
    # "12" was the form <1, 2>, read one digit at a time; 5 was a bare
    # TypeError from len()
    ("entries must be a list or tuple, got '12'",
     lambda: quadratic.QForm("12"), quadratic.QuadraticError,
     "entries must be a list or tuple, got '12'"),
    ("entries must be a list or tuple, got 5",
     lambda: quadratic.QForm(5), quadratic.QuadraticError,
     "entries must be a list or tuple, got 5"),
    # held classes were trusted: these gave <1, 2> disc 15 and places
    # {3, 5}, and disc 3
    ("classes must be a tuple of the square class of each entry0",
     lambda: quadratic.QForm((1, 2), (quadratic.square_class(3), quadratic.square_class(5))),
     quadratic.QuadraticError, "classes must be a tuple of the square class of each entry"),
    ("classes must be a tuple of the square class of each entry1",
     lambda: quadratic.QForm((1, 2), (quadratic.square_class(3),)),
     quadratic.QuadraticError, "classes must be a tuple of the square class of each entry"),
    ("disc must be a squarefree integer",
     lambda: quadratic.FormClass(1, (1, 0), 4, frozenset()), quadratic.QuadraticError,
     "disc must be a squarefree integer"),
    ("0.5 is not an exact rational; pass an int, a Fraction or a string1",
     lambda: quadratic.FormClass(1, (1, 0), 0.5, frozenset()), quadratic.QuadraticError,
     "0.5 is not an exact rational; pass an int, a Fraction or a string"),
    # a bare int for the places or the signature was a TypeError from Python
    ("places must be a set of places, got 3",
     lambda: quadratic.FormClass(2, (1, 1), -1, 3), quadratic.QuadraticError,
     "places must be a set of places, got 3"),
    ("signature must be a pair (r, s), got 5",
     lambda: quadratic.FormClass(2, 5, -1, ()), quadratic.QuadraticError,
     "signature must be a pair (r, s), got 5"),
    # the old TruncatedSW(3, -105, {3}) fixture: one place breaks reciprocity
    ("no form over Q has rank 3, signature (2, 1), disc -105 and places frozenset({3}): an even number of places fails",
     lambda: quadratic.FormClass(3, (2, 1), -105, {3}), quadratic.QuadraticError,
     "no form over Q has rank 3, signature (2, 1), disc -105 and places frozenset({3}): "
     "an even number of places fails"),
    # repeat(q, True) gave one copy, repeat(q, 2.5) a bare TypeError and
    # the class rule a rank of 7.5
    ("need at least one copy, got True",
     lambda: quadratic.repeat(quadratic.QForm((1, -2, 5)), True), quadratic.QuadraticError,
     "need at least one copy, got True"),
    ("need at least one copy, got 2.5_0",
     lambda: quadratic.repeat(quadratic.QForm((1, -2, 5)), 2.5), quadratic.QuadraticError,
     "need at least one copy, got 2.5"),
    ("need at least one copy, got 0",
     lambda: quadratic.repeat(quadratic.QForm((1, -2, 5)), 0), quadratic.QuadraticError,
     "need at least one copy, got 0"),
    ("need at least one copy, got 2.5_1",
     lambda: quadratic.form_class(quadratic.QForm((1, -2, 5))).repeat(2.5),
     quadratic.QuadraticError, "need at least one copy, got 2.5"),
    ("need at least one copy, got '2'",
     lambda: quadratic.form_class(quadratic.QForm((1, -2, 5))).repeat("2"),
     quadratic.QuadraticError, "need at least one copy, got '2'"),
    ("coefficient must be an integer, got True",
     lambda: galois.MonicPoly((1, True)), galois.GaloisError,
     "coefficient must be an integer, got True"),
    ("polynomial must have degree at least 1",
     lambda: galois.MonicPoly((1,)), galois.GaloisError,
     "polynomial must have degree at least 1"),
    ("polynomial degree 129 exceeds ALGEBRA_DEGREE_CAP = 128",
     lambda: galois.MonicPoly((1,) + (None,) * 129), galois.GaloisError,
     "polynomial degree 129 exceeds ALGEBRA_DEGREE_CAP = 128"),
    ("polynomial must be monic",
     lambda: galois.MonicPoly((2, 1)), galois.GaloisError, "polynomial must be monic"),
    ("polynomial has repeated roots",
     lambda: galois.MonicPoly((1, 0, 0)), galois.GaloisError,
     "polynomial has repeated roots"),
    ("algebra needs at least one factor",
     lambda: galois.EtaleAlg(()), galois.GaloisError, "algebra needs at least one factor"),
    ("multiplicity must be an integer, got 1.0",
     lambda: galois.EtaleAlg(((POLY, 1.0),)), galois.GaloisError,
     "multiplicity must be an integer, got 1.0"),
    ("multiplicities must be positive",
     lambda: galois.EtaleAlg(((POLY, 0),)), galois.GaloisError,
     "multiplicities must be positive"),
    # a tuple of coefficients is a polynomial, as a list is; text is not
    ("factors must be monic polynomials",
     lambda: galois.EtaleAlg((("x^2 - 7", 1),)), galois.GaloisError,
     "factors must be monic polynomials"),
    # a bare coefficient list, not a pair, was a ValueError from unpacking
    ("a factor must be a pair (polynomial, multiplicity), got [1, 0, -2]",
     lambda: galois.EtaleAlg([[1, 0, -2]]), galois.GaloisError,
     "a factor must be a pair (polynomial, multiplicity), got [1, 0, -2]"),
    # a string has a length: "12" was read one digit at a time, as x + 2;
    # 5 and None were a bare TypeError from len() or tuple()
    ("coefficients must be a list or tuple, got '12'",
     lambda: galois.MonicPoly("12"), galois.GaloisError,
     "coefficients must be a list or tuple, got '12'"),
    ("coefficients must be a list or tuple, got 5",
     lambda: galois.MonicPoly(5), galois.GaloisError,
     "coefficients must be a list or tuple, got 5"),
    ("factors must be a list or tuple, got 5",
     lambda: galois.EtaleAlg(5), galois.GaloisError,
     "factors must be a list or tuple, got 5"),
    ("factors must be a list or tuple, got None",
     lambda: galois.EtaleAlg(None), galois.GaloisError,
     "factors must be a list or tuple, got None"),
    # 2 * 2.5 built the model <2, 5, ...>, and a degree of True was 1
    ("disc must be an integer, got 2.5",
     lambda: galois.predicted_2group_form(8, True, True, 2.5), galois.GaloisError,
     "disc must be an integer, got 2.5"),
    ("degree must be an integer, got True",
     lambda: galois.predicted_2group_form(True, True, True, 1), galois.GaloisError,
     "degree must be an integer, got True"),
    # -1 was read from the end (inv(-1) was 1, the inverse of element 3),
    # and element_order(9) was a bare IndexError
    ("element must be an index in 0..3, got -1",
     lambda: C4.inv(-1), groups.GroupError, "element must be an index in 0..3, got -1"),
    ("element must be an index in 0..3, got True0",
     lambda: C4.inv(True), groups.GroupError, "element must be an index in 0..3, got True"),
    ("element must be an index in 0..3, got 1.0",
     lambda: C4.inv(1.0), groups.GroupError, "element must be an index in 0..3, got 1.0"),
    ("element must be an index in 0..3, got 9",
     lambda: C4.element_order(9), groups.GroupError,
     "element must be an index in 0..3, got 9"),
    ("element must be an index in 0..3, got True1",
     lambda: C4.element_order(True), groups.GroupError,
     "element must be an index in 0..3, got True"),
    # C4.conj(0, -1) was 3 and C2.conj(0, -1) was 1, read from the end;
    # conj("a", 1) was a bare TypeError and conj(5, 1) a bare IndexError
    ("element must be an index in 0..1, got -1",
     lambda: C2.conj(0, -1), groups.GroupError, "element must be an index in 0..1, got -1"),
    ("element must be an index in 0..3, got 'a'",
     lambda: C4.conj("a", 1), groups.GroupError, "element must be an index in 0..3, got 'a'"),
    ("element must be an index in 0..3, got 5",
     lambda: C4.conj(5, 1), groups.GroupError, "element must be an index in 0..3, got 5"),
    ("empty table",
     lambda: groups.Group([]), groups.GroupError, "empty table"),
    ("table is not square",
     lambda: groups.Group([[0, 1]]), groups.GroupError, "table is not square"),
    ("element 0 is not a two-sided identity",
     lambda: groups.Group([[1, 0], [0, 1]]), groups.GroupError,
     "element 0 is not a two-sided identity"),
    ("need at least one generator",
     lambda: groups.closure([]), groups.GroupError, "need at least one generator"),
    ("cannot scale a form by zero",
     lambda: quadratic.scale(0, quadratic.QForm([1])), quadratic.QuadraticError,
     "cannot scale a form by zero"),
    # power_sums(f, -1) was (2,), as for counts 0 and 1
    ("count must be non-negative, got -1",
     lambda: galois.power_sums(POLY, -1), galois.GaloisError, "count must be non-negative, got -1"),
    ("count must be an integer, got 2.0",
     lambda: galois.power_sums(POLY, 2.0), galois.GaloisError,
     "count must be an integer, got 2.0"),
    ("vector is not in the cocycle space",
     lambda: cohomology.h2(C4).coords(cohomology.Cocycle2(C4, 1 << 5)),
     cohomology.CohomologyError, "vector is not in the cocycle space"),
    ("cocycle bits out of range0",
     lambda: cohomology.Cocycle2(C2, 1 << 4), cohomology.CohomologyError,
     "cocycle bits out of range"),
    # each was a bare AttributeError: 'int' object has no attribute 'group'
    ("cocycle must be a Cocycle2, got 5",
     lambda: cohomology.h2(C4).coords(5), cohomology.CohomologyError,
     "cocycle must be a Cocycle2, got 5"),
    ("cocycle must be a Cocycle2, got 0",
     lambda: ZERO.add(0), cohomology.CohomologyError, "cocycle must be a Cocycle2, got 0"),
    ("cocycle must be a Cocycle2, got 3",
     lambda: cohomology.s_map(3), cohomology.CohomologyError,
     "cocycle must be a Cocycle2, got 3"),
    ("cocycle bits out of range1",
     lambda: cohomology.Cocycle2(C2, -1), cohomology.CohomologyError,
     "cocycle bits out of range"),
    ("cocycle is not normalized",
     lambda: cohomology.Cocycle2(C2, 1), cohomology.CohomologyError,
     "cocycle is not normalized"),
    # each door that takes a Group raised a bare AttributeError ('int'
    # object has no attribute 'order', '_gens', 'table', ...) on anything else
    ("door: generating_set", lambda: groups.generating_set(5), groups.GroupError,
     "group must be a Group, got 5"),
    ("door: cayley_walk", lambda: groups.cayley_walk(C4.table), groups.GroupError,
     "group must be a Group, got ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))"),
    ("door: sylow2", lambda: groups.sylow2(5), groups.GroupError,
     "group must be a Group, got 5"),
    ("door: subgroup", lambda: groups.subgroup("cyclic4", {0}), groups.GroupError,
     "group must be a Group, got 'cyclic4'"),
    ("door: quotient_with_map", lambda: groups.quotient_with_map(None, {0}),
     groups.GroupError, "group must be a Group, got None"),
    ("door: regular_rep_in_alternating", lambda: groups.regular_rep_in_alternating(4),
     groups.GroupError, "group must be a Group, got 4"),
    ("door: h2", lambda: cohomology.h2(5), cohomology.CohomologyError,
     "group must be a Group, got 5"),
    # h2's cache hashes its argument before H2Basis can refuse it
    ("door: h2 of a list", lambda: cohomology.h2([]), TypeError,
     "unhashable type: 'list'"),
    ("door: ker_s", lambda: cohomology.ker_s(4), cohomology.CohomologyError,
     "group must be a Group, got 4"),
    ("door: is_2_reduced", lambda: cohomology.is_2_reduced("catalog:cyclic:4"),
     cohomology.CohomologyError, "group must be a Group, got 'catalog:cyclic:4'"),
    ("door: delta1", lambda: cohomology.delta1(5, 0), cohomology.CohomologyError,
     "group must be a Group, got 5"),
    ("door: Cocycle2", lambda: cohomology.Cocycle2(5, 0), cohomology.CohomologyError,
     "group must be a Group, got 5"),
    ("door: two_lift_property", lambda: cohomology.two_lift_property(8, 1),
     cohomology.CohomologyError, "group must be a Group, got 8"),
    ("door: class_of_extension", lambda: cohomology.class_of_extension(None, 1),
     cohomology.CohomologyError, "group must be a Group, got None"),
    ("door: pin_cocycle", lambda: clifford.pin_cocycle(3), clifford.CliffordError,
     "group must be a Group, got 3"),
    ("door: two_cyclic_sylow_orders", lambda: galois.two_cyclic_sylow_orders(16),
     galois.GaloisError, "group must be a Group, got 16"),
    ("door: verify_main", lambda: galois.verify_main(QUARTIC, 4), galois.GaloisError,
     "group must be a Group, got 4"),
]


@pytest.mark.parametrize("make, error, message", [row[1:] for row in _ERRORS],
                         ids=[row[0] for row in _ERRORS])
def test_validation_raises_as_before(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_validation_rows_have_distinct_ids():
    # pytest would suffix a repeated id, and so rename the row holding it
    # first: each row names itself
    ids = [row[0] for row in _ERRORS]
    assert len(set(ids)) == len(ids)
