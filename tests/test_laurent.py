from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpkit.laurent import LaurentPoly

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
).map(LaurentPoly)


def evaluate(poly, point):
    # exact at negative exponents too
    return sum(c * Fraction(point) ** k for k, c in poly.terms)


def test_construction_strips_zero_coefficients():
    poly = LaurentPoly({0: 1, 1: 0, 2: 3})
    assert poly.terms == ((0, 1), (2, 3))


def test_construction_merges_duplicate_exponents():
    poly = LaurentPoly([(1, 2), (1, 3)])
    assert poly.coefficients().get(1, 0) == 5


def test_from_exponents_counts_multiplicity():
    poly = LaurentPoly.from_exponents([1, 1, -2])
    assert poly.terms == ((-2, 1), (1, 2))


def test_arithmetic_small_cases():
    p = LaurentPoly({0: 1, 1: -1})
    q = LaurentPoly({0: 1, 1: 1})
    assert (p * q).terms == ((0, 1), (2, -1))
    assert (p + q).terms == ((0, 2),)
    assert (p - p).is_zero()
    assert (p**2).terms == ((0, 1), (1, -2), (2, 1))
    assert (3 * p).coefficients().get(1, 0) == -3
    assert (p + 1).coefficients().get(0, 0) == 2


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        LaurentPoly({0: 1}) ** -1


def test_degree_and_valuation():
    poly = LaurentPoly({-2: 5, 3: 1})
    assert poly.terms[0] == (-2, 5)
    assert poly.degree() == 3
    assert not poly.is_polynomial()
    with pytest.raises(ValueError):
        LaurentPoly().degree()


def test_fmt_matches_expected_text():
    assert LaurentPoly({0: 1, 1: -1, 2: 1}).fmt() == "1 - y + y^2"
    assert LaurentPoly().fmt() == "0"
    assert LaurentPoly({-1: 2}).fmt("t") == "2t^-1"
    assert LaurentPoly({1: 1}).fmt() == "y"


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly() == a
    assert a * LaurentPoly({0: 1}) == a
    assert a - a == LaurentPoly()


@given(polys, polys, st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0))
def test_evaluation_is_a_ring_morphism(a, b, point):
    assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)
    assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)
