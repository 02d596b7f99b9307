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


def test_arithmetic_small_cases():
    p = LaurentPoly({0: 1, 1: -1})
    q = LaurentPoly({0: 1, 1: 1})
    assert (p * q).terms == ((0, 1), (2, -1))
    assert (p * p).terms == ((0, 1), (1, -2), (2, 1))
    with pytest.raises(TypeError):
        p * 3
    with pytest.raises(TypeError):
        3 * p


def test_degree_and_valuation():
    # the terms are sorted by exponent: the valuation and the degree are
    # their ends, which is all that k_coefficients reads of them
    poly = LaurentPoly({3: 1, -2: 5, 0: 0})
    assert poly.terms[0] == (-2, 5)
    assert poly.terms[-1] == (3, 1)
    assert LaurentPoly([(1, 2), (1, -2)]).terms == LaurentPoly().terms == ()


def test_fmt_matches_expected_text():
    assert LaurentPoly({0: 1, 1: -1, 2: 1}).fmt() == "1 - y + y^2"
    assert LaurentPoly().fmt() == "0"
    assert LaurentPoly({-1: 2}).fmt() == "2y^-1"
    assert LaurentPoly({1: 1}).fmt() == "y"


# the laws of the one operation the class keeps: multiplication
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * LaurentPoly({0: 1}) == a


@given(polys, polys, st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0))
def test_evaluation_is_a_ring_morphism(a, b, point):
    assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)


@given(polys)
def test_multiplying_by_y_shifts_every_exponent(chi):
    # the corruption bench/smoke.py applies to a genus result
    assert (chi * LaurentPoly({1: 1})).terms == tuple((k + 1, c) for k, c in chi.terms)
