"""Trace forms of etale algebras over Q.

An algebra is a product of fields Q[x]/(f) with multiplicities; its
trace form x -> Tr(x^2) has Gram matrix (in the power basis of each
factor) given by power sums of the roots, computed exactly from the
coefficients by Newton's identities.  The theorem checks take a Galois
algebra A with its group G and derive their premises from the pair: A
is a power F^m of one field with deg A = |G|, it is a field when m = 1,
and the shape of the Sylow 2-subgroup is read off G.  Each check returns
the row its `verify` statement prints, read off one class of one trace
form, `form_class(trace_form(A))`.  The theorem's two checks are written
once, in `_theorem_row`: `verify_main` returns its row, and
`classify_2group_trace_form` (the `classify` verb and cor-numb2) takes
its verdict from it; the hand-typed model form is only printed.  Every
coefficient, multiplicity, degree and disc is read by `_integer`, by the
package's integer rule.
"""
from __future__ import annotations

import math
from fractions import Fraction

from . import _as_int, _DigitLimit, _quote, cohomology, groups
from .quadratic import (
    FormClass,
    QForm,
    _bareiss,
    cup,
    direct_sum,
    form_class,
    repeat,
    signature,
    sqclass_mul,
    square_class,
)


class GaloisError(ValueError):
    pass


# Largest degree of a polynomial, and of an algebra (sum of deg * m),
# admitted before any coefficient list, Gram matrix or form is built.
ALGEBRA_DEGREE_CAP = 128


# Largest degree times coefficient bit length (of the largest |c|) of a
# polynomial, checked before its Gram matrix is built: the Gram entries,
# and so the elimination and the factoring, grow with both.  The tests
# use up to 1482 (degree 39, 38 bits).  On a 2-vCPU Xeon, seeded random
# polynomials at the cap took 6.8-8.4 s to exit at degree 128 (12 bits)
# and at most 5.1 s at degrees 2-32; degree 128 with 10-digit (34-bit)
# coefficients took 38 s before the cap.
DEGREE_BITS_CAP = 1536


def _check_degree(what: str, n: int) -> None:
    if n > ALGEBRA_DEGREE_CAP:
        raise GaloisError(
            f"{what} degree {n} exceeds ALGEBRA_DEGREE_CAP = {ALGEBRA_DEGREE_CAP}")


def _integer(x, what: str) -> int:
    """x by the package's integer rule, not int(): True is not 1, 2.5 not 2;
    integer text past the digit limit is refused in _DigitLimit's words."""
    try:
        return _as_int(x)
    except _DigitLimit as exc:
        raise GaloisError(str(exc)) from None
    except ValueError:
        raise GaloisError(f"{what} must be an integer, got {_quote(x)}") from None


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content."""
    c = math.gcd(*a)
    return [x // c for x in a] if c > 1 else a


def _poly_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree over Q of gcd(a, b) (0 when coprime), for integer
    coefficient lists, leading first, with nonzero leading coefficients.

    A primitive pseudo-remainder sequence: while deg a >= deg b, a
    becomes u*a - v*x^k*b, with u, v the leading coefficients of b and
    a over their gcd, so the leading term cancels.  Over Q that changes
    a only by a unit and a multiple of b, so gcd(a, b) is kept.  The
    remainder is divided by its content, which keeps its integers
    small, and (a, b) becomes (b, remainder)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return 0
        r, lb, n = a, b[0], len(b)
        while len(r) >= n:
            g = math.gcd(lb, r[0])
            u, v = lb // g, r[0] // g
            r = [u * x - v * y for x, y in zip(r, b)][1:] + [u * x for x in r[n:]]
            while r and r[0] == 0:
                r.pop(0)
        a, b = b, _primitive(r)
    return len(a) - 1


class MonicPoly:
    """Monic squarefree polynomial with integer coefficients, leading
    coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        # a string has a length too, and would be read one digit at a time
        if not isinstance(coeffs, (list, tuple)):
            raise GaloisError(f"coefficients must be a list or tuple, got {_quote(coeffs)}")
        _check_degree("polynomial", len(coeffs) - 1)
        cs = tuple(_integer(c, "coefficient") for c in coeffs)
        if len(cs) < 2:
            raise GaloisError("polynomial must have degree at least 1")
        if cs[0] != 1:
            raise GaloisError("polynomial must be monic")
        self.coeffs = cs
        d = self.degree
        bits = max(abs(c).bit_length() for c in cs)
        if d * bits > DEGREE_BITS_CAP:
            raise GaloisError(
                f"polynomial degree {d} times coefficient bits {bits} exceeds "
                f"DEGREE_BITS_CAP = {DEGREE_BITS_CAP}")
        if _poly_gcd_degree(list(cs), [(d - i) * cs[i] for i in range(d)]) != 0:
            raise GaloisError("polynomial has repeated roots")

    def __repr__(self):
        return f"MonicPoly(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def power_sums(f: MonicPoly, count: int) -> tuple[int, ...]:
    """p_0, ..., p_(count-1), where p_k is the sum of k-th powers of the
    roots of f = x^d + a_1 x^(d-1) + ... + a_d, by Newton's identities:
    p_k = -(k a_k + sum of a_i p_(k-i) over 0 < i < k), with a_i = 0 past
    d.  The recurrence is over the integers, so every p_k is one."""
    a = f.coeffs
    d = len(a) - 1
    ps = [d]
    for k in range(1, count):
        acc = k * a[k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            acc += a[i] * ps[k - i]
        ps.append(-acc)
    return tuple(ps)


def trace_gram(f: MonicPoly) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of (x, y) -> Tr(xy) on Q[t]/(f) in the power basis."""
    d = f.degree
    ps = power_sums(f, 2 * d - 1)
    return tuple(ps[i:i + d] for i in range(d))


class EtaleAlg:
    """Product of number fields Q[x]/(f_i), each with a multiplicity.  The
    one door for an algebra: a factor is a pair (a MonicPoly or a list of
    its coefficients, a multiplicity), and every multiplicity and degree
    is read and bounded before a polynomial is built, so an algebra past
    ALGEBRA_DEGREE_CAP runs no separability test."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        if not isinstance(factors, (list, tuple)):
            raise GaloisError(f"factors must be a list or tuple, got {_quote(factors)}")
        fs = tuple(factors)
        if not fs:
            raise GaloisError("algebra needs at least one factor")
        for p in fs:
            if not (isinstance(p, (tuple, list)) and len(p) == 2):
                raise GaloisError(f"a factor must be a pair (polynomial, multiplicity), "
                                  f"got {_quote(p)}")
        if not all(isinstance(f, (MonicPoly, list)) for f, _ in fs):
            raise GaloisError("factors must be monic polynomials")
        fs = tuple((f, _integer(m, "multiplicity")) for f, m in fs)
        if any(m < 1 for _, m in fs):
            raise GaloisError("multiplicities must be positive")
        # a list too short for degree 1 counts 0; MonicPoly refuses it
        degrees = [f.degree if isinstance(f, MonicPoly) else max(len(f) - 1, 0)
                   for f, _ in fs]
        for d in degrees:
            _check_degree("polynomial", d)
        _check_degree("algebra", sum(d * m for d, (_, m) in zip(degrees, fs)))
        self.factors = tuple((f if isinstance(f, MonicPoly) else MonicPoly(f), m)
                             for f, m in fs)

    def __repr__(self):
        return f"EtaleAlg(factors={self.factors!r})"

    @staticmethod
    def field(f: MonicPoly) -> "EtaleAlg":
        return EtaleAlg(((f, 1),))

    @property
    def degree(self) -> int:
        return sum(f.degree * m for f, m in self.factors)


def trace_form(A: EtaleAlg) -> QForm:
    """Diagonalized trace form of the algebra, a field's form itself.

    Each field's Gram goes to `_bareiss` unchecked: `trace_gram` builds
    it d x d with entry (i, j) the power sum p_(i+j), so it is square,
    symmetric (i + j = j + i) and integral (`power_sums`)."""
    parts = []
    for f, m in A.factors:
        q = _bareiss(trace_gram(f))
        parts.append(repeat(q, m) if m > 1 else q)
    return parts[0] if len(parts) == 1 else direct_sum(*parts)


def algebra_disc(A: EtaleAlg) -> int:
    """Square class of the discriminant (the determinant of the trace
    form), as a squarefree integer, by the determinant route.  The theorem
    checks read it off the form's class instead; this route is the tests'
    independent check of that value."""
    d = square_class(1)
    for f, m in A.factors:
        if m % 2:
            d = sqclass_mul(d, square_class(_det_fraction_free(trace_gram(f))))
    return d.d


def _det_fraction_free(m) -> int:
    """Determinant of a nondegenerate trace Gram (`trace_gram`): the
    product of the entries of its fraction-free diagonalization."""
    return math.prod(_bareiss(m).entries).numerator


def _check_galois(A: EtaleAlg, G: groups.Group) -> bool:
    """Check that A can be a G-Galois algebra, a power F^m of one field
    with deg A = |G|, and return whether it is a field (m = 1)."""
    if A.degree != G.order:
        raise GaloisError(f"algebra degree {A.degree} != group order {G.order}")
    if len(A.factors) != 1:
        raise GaloisError("a Galois algebra is a power of a single field")
    return A.factors[0][1] == 1


def _premise_failure(n: int, G: groups.Group) -> str | None:
    """Why the theorem does not apply to degree n and group G, or None."""
    if n % 8 not in (0, 2):
        return f"degree {n} is not 0 or 2 mod 8"
    if not cohomology.is_2_reduced(G):
        return "group fails the trivial-kernel condition"
    return None


def predicted_2group_form(n: int, real: bool, cyclic: bool, d: int) -> tuple[str, QForm]:
    """The case and the hand-typed model form of the trace form of a
    degree-n Galois field whose group is a 2-group: four cases split by
    being totally real and by the group being cyclic.  d is the
    discriminant class.  n and d are read by `_integer`.  The model is
    printed beside a verdict, and decides none: the tests keep it as an
    oracle of the theorem's rule."""
    n, d = _integer(n, "degree"), _integer(d, "disc")
    if n < 1 or n & (n - 1):
        raise GaloisError("degree must be a power of two")
    one = Fraction(1)
    if n == 1:
        return "i", QForm((one,))
    if real and not cyclic:
        return "i", QForm((one,) * n)
    if not real and not cyclic:
        return "ii", QForm((one, -one) * (n // 2))
    if real:
        return "iii", QForm((Fraction(2), Fraction(2 * d)) + (one,) * (n - 2))
    m = n // 2 - 1
    lead = Fraction(2 if m % 2 == 0 else -2)
    return "iv", QForm((one, -one) * m + (lead, Fraction(2 * d)))


def _theorem_row(A: EtaleAlg, G: groups.Group, c: FormClass, reason: str | None) -> dict:
    """thm-main's row from the class c of A's trace form.  Where the
    premise holds (reason is None), w2 is checked against cup(2, disc);
    elsewhere the status is skipped, with its reason.  Every row also
    checks w1: the disc class is trivial exactly when the structural
    predicate holds, an even regular action of G, or A = F^m with m even."""
    if reason:
        row = {"status": "skipped", "reason": reason}
    else:
        rhs = cup(2, c.disc_class)
        row = {"status": "pass" if c.places == rhs else "fail",
               "w2_places": c.places, "cup_2_disc": rhs}
    predicted = groups.regular_rep_in_alternating(G) or A.factors[0][1] % 2 == 0
    return {**row, "disc_class": c.disc, "disc_predicate_agrees": (c.disc == 1) == predicted}


def classify_2group_trace_form(A: EtaleAlg, G: groups.Group) -> dict:
    """cor-numb2's row: the computed trace form of a Galois field with
    2-power group, its disc class, the case and its model form, and the
    theorem's verdict on the pair, thm-main's two checks (`_theorem_row`).
    Preconditions: the algebra is a field of degree 0 or 2 mod 8, the
    group is a 2-group whose second cohomology has trivial
    involution-diagonal kernel, and the signature is definite or balanced
    (anything else is a bad input)."""
    field = _check_galois(A, G)
    n = G.order
    if n & (n - 1):
        raise GaloisError("group order must be a power of two")
    if not field:
        raise GaloisError("classification needs a field, not a product")
    # degree 1 is exempt: its group, the trivial one, is 2-reduced
    if n != 1 and (reason := _premise_failure(n, G)):
        raise GaloisError(reason)
    q = trace_form(A)
    sig = signature(q)
    if sig not in ((n, 0), (n // 2, n - n // 2)):
        raise GaloisError(f"signature {sig} is neither definite nor balanced")
    real = sig == (n, 0)
    cyclic = G.is_cyclic()
    c = form_class(q)
    case, model = predicted_2group_form(n, real, cyclic, c.disc)
    row = _theorem_row(A, G, c, None)
    return {
        "case": case,
        "real": real,
        "cyclic": cyclic,
        "disc": c.disc,
        "model": model,
        "trace_form": q,
        "isometric": row["status"] == "pass" and row["disc_predicate_agrees"],
    }


def verify_main(A: EtaleAlg, G: groups.Group) -> dict:
    """thm-main's row (`_theorem_row`), read off one class of the trace
    form, after the Galois check and the premise test."""
    _check_galois(A, G)
    reason = _premise_failure(A.degree, G)
    return _theorem_row(A, G, form_class(trace_form(A)), reason)


def two_cyclic_sylow_orders(G: groups.Group) -> tuple[int, int] | None:
    """(2^r1, 2^r2) with r1 <= r2 when a Sylow 2-subgroup of G is
    Z/2^r1 x Z/2^r2 with r1 >= 1, else None.  An abelian 2-group is a
    product of cyclic groups, and its elements of order at most 2 form
    (Z/2)^rank: exactly three involutions means rank 2, and the exponent
    is then the larger factor."""
    P = groups.sylow2(G)
    if not P.is_abelian() or len(P.involutions()) != 3:
        return None
    o2 = max(map(P.element_order, range(P.order)))
    return P.order // o2, o2


def verify_two_cyclic_sylow(A: EtaleAlg, G: groups.Group, d1, d2) -> dict:
    """two-cyclic-sylow's row: w2 of the trace form against the place
    set predicted when the Sylow 2-subgroup is Z/2^r1 x Z/2^r2, whose two
    factors have fixed fields of discriminant classes d1 (first factor
    side) and d2 (second): cup(d1 d2, d2) when r1 = 1, else cup(d1, d2).
    Each d is read by `square_class`.  The premise, r2 >= 2, is read off
    G; when it fails the check is skipped."""
    _check_galois(A, G)
    c1, c2 = square_class(d1), square_class(d2)
    orders = two_cyclic_sylow_orders(G)
    if orders is None or orders[1] < 4:
        return {"status": "skipped",
                "reason": "Sylow 2-subgroup is not Z/2^r1 x Z/2^r2 with r2 >= 2"}
    predicted = cup(sqclass_mul(c1, c2) if orders[0] == 2 else c1, c2)
    actual = form_class(trace_form(A)).places
    return {
        "status": "pass" if actual == predicted else "fail",
        "w2_places": actual,
        "predicted_places": predicted,
    }
