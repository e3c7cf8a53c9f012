"""Concrete number fields used throughout the verification suite.

Each fixture freezes the minimal polynomial of an explicit primitive
element together with the Galois group of the field and the expected
arithmetic data.  The polynomials are re-derived independently (by
resultant computations from the defining radicals) in the test suite.

Primitive elements:
  multiquadratic_real       sqrt(2) + sqrt(3) + sqrt(5)
  multiquadratic_imaginary  sqrt(2) + sqrt(3) + i
  cyclic8_real              2 cos(pi/16)          (real 2-power cyclotomic half)
  cyclic8_imaginary         z - 1/z, z = exp(i pi/16)
  dihedral8_imaginary       2^(1/4) + i
  compositum_c2xc4          sqrt(3) + 2 cos(pi/8)
  c4_real                   2 cos(pi/8)
"""
from __future__ import annotations

from typing import NamedTuple

from . import galois, groups


class FieldFixture(NamedTuple):
    name: str
    poly: galois.MonicPoly
    catalog: tuple[str, int | None]  # (name, param) of the group in groups.catalog
    real: bool
    disc_class: int  # squarefree discriminant class
    case: str | None = None  # expected classification case, 2-groups only

    @property
    def group(self) -> groups.Group:
        """The acting group, looked up on each use, so that a fixture holds
        no Group of its own and shares the catalog's one for its spec."""
        return groups.catalog(*self.catalog)

    @property
    def algebra(self) -> galois.EtaleAlg:
        return galois.EtaleAlg.field(self.poly)


MULTIQUADRATIC_REAL = FieldFixture(
    "multiquadratic_real",
    galois.MonicPoly((1, 0, -40, 0, 352, 0, -960, 0, 576)),
    ("elem_abelian_2", 3),
    real=True, disc_class=1, case="i",
)

MULTIQUADRATIC_IMAGINARY = FieldFixture(
    "multiquadratic_imaginary",
    galois.MonicPoly((1, 0, -16, 0, 88, 0, 192, 0, 144)),
    ("elem_abelian_2", 3),
    real=False, disc_class=1, case="ii",
)

CYCLIC8_REAL = FieldFixture(
    "cyclic8_real",
    galois.MonicPoly((1, 0, -8, 0, 20, 0, -16, 0, 2)),
    ("cyclic", 8),
    real=True, disc_class=2, case="iii",
)

CYCLIC8_IMAGINARY = FieldFixture(
    "cyclic8_imaginary",
    galois.MonicPoly((1, 0, 8, 0, 20, 0, 16, 0, 2)),
    ("cyclic", 8),
    real=False, disc_class=2, case="iv",
)

DIHEDRAL8_IMAGINARY = FieldFixture(
    "dihedral8_imaginary",
    galois.MonicPoly((1, 0, 4, 0, 2, 0, 28, 0, 1)),
    ("dihedral", 8),
    real=False, disc_class=1, case="ii",
)

COMPOSITUM_C2XC4 = FieldFixture(
    "compositum_c2xc4",
    galois.MonicPoly((1, 0, -20, 0, 98, 0, -76, 0, 1)),
    ("z4xz2", None),
    real=True, disc_class=1,
)

C4_REAL = FieldFixture(
    "c4_real",
    galois.MonicPoly((1, 0, -4, 0, 2)),
    ("cyclic", 4),
    real=True, disc_class=2,
)

# quadratic fields used by the product-algebra identities
QUAD_REAL_5 = FieldFixture(
    "quad_real_5", galois.MonicPoly((1, 0, -5)), ("cyclic", 2),
    real=True, disc_class=5,
)
QUAD_IMAG_3 = FieldFixture(
    "quad_imag_3", galois.MonicPoly((1, 0, 3)), ("cyclic", 2),
    real=False, disc_class=-3,
)

# sqrt(2) + sqrt(3); its group misses the two-cyclic-factor premise
BIQUADRATIC_REAL = FieldFixture(
    "biquadratic_real", galois.MonicPoly((1, 0, -10, 0, 1)),
    ("elem_abelian_2", 2), real=True, disc_class=1,
)

# cyclotomic quartic of conductor 8 (roots are the primitive 8th roots
# of unity), used by the repeated-algebra identities
CYCLOTOMIC8 = FieldFixture(
    "cyclotomic8", galois.MonicPoly((1, 0, 0, 0, 1)),
    ("elem_abelian_2", 2), real=False, disc_class=1,
)

# data for the two-cyclic-Sylow statement on the compositum: the fixed
# field of the order-2 factor is the quartic (disc class 2), the fixed
# field of the order-4 factor is Q(sqrt 3) (disc class 3)
COMPOSITUM_D1 = 3
COMPOSITUM_D2 = 2
COMPOSITUM_EXPECTED_W2 = frozenset({2, 3})

OCTIC_FIXTURES = (
    MULTIQUADRATIC_REAL,
    MULTIQUADRATIC_IMAGINARY,
    CYCLIC8_REAL,
    CYCLIC8_IMAGINARY,
    DIHEDRAL8_IMAGINARY,
)

ALL_FIXTURES = OCTIC_FIXTURES + (COMPOSITUM_C2XC4, C4_REAL,
                                 QUAD_REAL_5, QUAD_IMAG_3,
                                 BIQUADRATIC_REAL, CYCLOTOMIC8)

BY_NAME = {f.name: f for f in ALL_FIXTURES}
