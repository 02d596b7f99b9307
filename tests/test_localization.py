import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fpkit import cli
from fpkit.core import (
    BundleWeights,
    FixedPointData,
    FixedPointDatum,
    ValidationError,
    betti_numbers,
)
from fpkit.hattori import check_condition_c, first_chern_candidates
from fpkit.laurent import LaurentPoly
from fpkit import localization
from fpkit.localization import (
    _ZERO,
    _elementary_symmetric,
    c1cn1_from_k2,
    c1_power,
    chern_monomial,
    chi_y_from_data,
    chi_y_hrr_projective,
    k_coefficients,
    line_bundle_power,
    localize,
    residue_constraints_hold,
    residue_sum,
)
from fpkit.models import linear_pn


def distinct_tuples(rng, count, size):
    return [tuple(rng.sample(range(-30, 31), size)) for _ in range(count)]


def test_residue_sums_on_reference_model():
    data = linear_pn((0, 1, 3))
    assert residue_sum(data, 0) == 0
    assert residue_sum(data, 1) == 0
    assert residue_sum(data, 2) == c1_power(data) == 9
    assert residue_sum(data, 0) == Fraction(1, 3) - Fraction(1, 2) + Fraction(1, 6)
    # the weight sums are distinct, so each one's indicator column reads one
    # point's reciprocal weight product
    sums = [p.weight_sum for p in data.points]
    assert sums == [-4, -1, 5]
    columns = [[int(t == s) for t in sums] for s in sums]
    assert localize(data, columns) == [Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)]


def test_residue_sum_smallest_model():
    assert residue_sum(linear_pn((0, 1)), 1) == 2
    # a single point meets no residue constraint: its lone sum is 1/2, not 0
    single = FixedPointData(1, (FixedPointDatum("A", (2,)),))
    assert not residue_constraints_hold(single)
    assert localize(single, [[1]]) == [Fraction(1, 2)]


def test_residue_sum_rejects_negative_power():
    with pytest.raises(ValidationError, match="power must be a nonnegative integer, got -1$"):
        residue_sum(linear_pn((0, 1)), -1)


@pytest.mark.parametrize("power, shown", [(True, "True"), (2.0, r"2\.0")])
def test_residue_sum_rejects_non_integer_power(power, shown):
    # True would otherwise read as power 1, and 2.0 would index the table
    with pytest.raises(
        ValidationError, match=f"power must be a nonnegative integer, got {shown}$"
    ):
        residue_sum(linear_pn((0, 1)), power)


def test_residue_constraints_examples():
    assert residue_constraints_hold(linear_pn((0, 1, 3)))
    doubled = FixedPointData(
        1, (FixedPointDatum("A", (1,)), FixedPointDatum("B", (1,)))
    )
    assert not residue_constraints_hold(doubled)
    perturbed = FixedPointData(
        2,
        (
            FixedPointDatum("P1", (-3, -1)),
            FixedPointDatum("P2", (-2, 1)),
            FixedPointDatum("P3", (3, 1)),
        ),
    )
    assert residue_sum(perturbed, 0) == Fraction(1, 6)
    assert not residue_constraints_hold(perturbed)


def test_c1_power_examples():
    assert c1_power(linear_pn((0, 1))) == 2
    assert c1_power(linear_pn((0, 1, 3))) == 9


def test_c1_power_on_random_models_is_dimension_power():
    rng = random.Random(7)
    for n in range(1, 7):
        for values in distinct_tuples(rng, 3, n + 1):
            assert c1_power(linear_pn(values)) == (n + 1) ** n


def test_chern_monomial_reference_values():
    data = linear_pn((0, 1, 3))
    assert chern_monomial(data, (2,)) == 3
    assert chern_monomial(data, (1, 1)) == 9
    assert chern_monomial(linear_pn((0, 1)), (1,)) == c1_power(linear_pn((0, 1)))


def test_chern_monomial_on_a_large_projective_model():
    # on the 39-dimensional projective model c = (1 + x)^40 and x^39 integrates
    # to 1, so c_{i_1} ... c_{i_k} = C(40, i_1) ... C(40, i_k); sigma_j is
    # expanded only up to the largest index
    data = linear_pn(range(40))
    for indices in ([39], [1] * 39, [20, 19], [10, 10, 10, 9], [5] * 7 + [4],
                    [3] * 13, [2] * 19 + [1]):
        expected = math.prod(math.comb(40, i) for i in indices)
        assert chern_monomial(data, indices) == expected, indices


def test_chern_monomial_on_a_large_model_with_spread_weights():
    # 90 points with weights up to about 2000 in size: big packed digits
    rng = random.Random(90)
    data = linear_pn(rng.sample(range(-1000, 1001), 90))
    for indices in ([89], [1] * 89, [45, 44], [13, 30, 1, 45], [2] * 44 + [1], [7] * 12 + [5],
                    [88, 1], [80, 5, 4], [84, 3, 2]):
        expected = math.prod(math.comb(90, i) for i in indices)
        assert chern_monomial(data, indices) == expected, indices


def brute_elementary_symmetric(values, top):
    return [sum(map(math.prod, itertools.combinations(values, j))) for j in range(top + 1)]


def test_elementary_symmetric_matches_brute_force_sums():
    rng = random.Random(14)
    for n in range(1, 11):
        for _ in range(10):
            width = rng.choice((1, 9, 1000, 10**9))
            values = [rng.choice((-1, 1)) * rng.randint(1, width) for _ in range(n)]
            expected = brute_elementary_symmetric(values, n)
            for backward, low in itertools.product((False, True), range(n + 1)):
                for top in range(low, n + 1):
                    got = _elementary_symmetric(values, top, low, backward)
                    assert len(got) == top + 1
                    assert got[low:] == expected[low : top + 1], (values, top, low, backward)
                    # below ``low``: sigma_j forward, 0 backward
                    assert got[:low] == ([0] * low if backward else expected[:low])


@pytest.mark.parametrize("width", [1, 2, 1000, 10**9])
@pytest.mark.parametrize("sign", [1, -1])
def test_elementary_symmetric_at_the_size_bound(width, sign):
    # equal weights reach |sigma_j| = C(n, j) W^j, the bound the digit width
    # is chosen from, in both directions
    for n in range(1, 11):
        expected = [math.comb(n, j) * (sign * width) ** j for j in range(n + 1)]
        for top in range(n + 1):
            assert _elementary_symmetric([sign * width] * n, top) == expected[: top + 1]
            for low in range(top + 1):
                got = _elementary_symmetric([sign * width] * n, top, low, True)
                assert got[low:] == expected[low : top + 1], (n, top, low)


def test_chern_monomial_rejects_wrong_degree():
    with pytest.raises(ValidationError, match="degree"):
        chern_monomial(linear_pn((0, 1, 3)), (1,))
    with pytest.raises(ValidationError, match="at least one index"):
        chern_monomial(linear_pn((0, 1, 3)), ())
    with pytest.raises(ValidationError, match="Chern index must be a positive integer"):
        chern_monomial(linear_pn((0, 1, 3)), (0, 2))
    with pytest.raises(ValidationError, match="got True$"):
        chern_monomial(linear_pn((0, 1, 3)), (True, 1))
    with pytest.raises(ValidationError, match=r"got 1\.0$"):
        chern_monomial(linear_pn((0, 1, 3)), (1.0, 1))


def test_line_bundle_power_examples():
    data = linear_pn((0, 1, 3))
    assert line_bundle_power(data, data.bundle) == 1
    assert line_bundle_power(linear_pn((0, 1)), BundleWeights((0, 1))) == 1
    inverted = BundleWeights(tuple(-a for a in data.bundle.values))
    assert line_bundle_power(data, inverted) == 1


def test_line_bundle_power_checks_alignment():
    with pytest.raises(ValueError, match="does not match point count"):
        line_bundle_power(linear_pn((0, 1, 3)), BundleWeights((0, 1)))


def test_chi_y_from_data_examples():
    assert chi_y_from_data(linear_pn((0, 1, 3))).fmt() == "1 - y + y^2"
    assert chi_y_from_data(linear_pn((0, 1))).fmt() == "1 - y"
    assert chi_y_from_data(linear_pn((0, 1, 2, 3))).fmt() == "1 - y + y^2 - y^3"


def test_chi_y_hrr_matches_alternating_polynomial():
    for n in range(1, 8):
        expected = LaurentPoly({i: (-1) ** i for i in range(n + 1)})
        assert chi_y_hrr_projective(n) == expected


def test_chi_y_hrr_rejects_nonpositive_dimension():
    with pytest.raises(ValidationError, match="dimension must be a positive integer, got 0$"):
        chi_y_hrr_projective(0)


@pytest.mark.parametrize("n, shown", [(True, "True"), (2.0, r"2\.0")])
def test_dimension_arguments_reject_non_integers(n, shown):
    message = f"dimension must be a positive integer, got {shown}$"
    with pytest.raises(ValidationError, match=message):
        chi_y_hrr_projective(n)
    with pytest.raises(ValidationError, match=message):
        c1cn1_from_k2(0, 2, n)


def test_k_coefficients_reference_values():
    assert k_coefficients(LaurentPoly({0: 1, 1: -1, 2: 1}), 2) == (3, -3, 1)
    assert k_coefficients(LaurentPoly({0: 1, 1: -1}), 1) == (2, -1)
    assert k_coefficients(LaurentPoly(), 2) == (0, 0, 0)


def test_k_coefficients_invert_the_expansion():
    cases = [
        (chi_y_from_data(linear_pn((0, 2, 5, 6))), 3),
        # alternating signs make every |k_j| its largest, C(n + 1, j + 1) * c
        (LaurentPoly((i, (-1) ** i * (2**64 - 1)) for i in range(41)), 40),
    ]
    for chi, n in cases:
        coefficients = k_coefficients(chi, n)
        # chi = sum_j k_j (1 + y)^j, so its y^i coefficient is sum_j k_j C(j, i)
        rebuilt = LaurentPoly(
            (i, sum(k * math.comb(j, i) for j, k in enumerate(coefficients)))
            for i in range(n + 1)
        )
        assert rebuilt == chi


def sympy_k_coefficients(sympy, chi, n):
    # the coefficients of chi(u - 1) in u
    u = sympy.symbols("u")
    shifted = sympy.Poly(0, u)
    for i, c in chi.terms:
        shifted += c * sympy.Poly(u - 1, u) ** i
    return tuple(int(shifted.coeff_monomial(u**j)) for j in range(n + 1))


def test_k_coefficients_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(15)
    for _ in range(40):
        degree = rng.randint(0, 15)
        chi = LaurentPoly(
            (i, rng.randint(-(10**30), 10**30)) for i in range(degree + 1) if rng.random() < 0.7
        )
        n = degree + rng.randint(0, 3)
        assert k_coefficients(chi, n) == sympy_k_coefficients(sympy, chi, n), chi
    chi = LaurentPoly({2000: -7})
    assert k_coefficients(chi, 2000) == sympy_k_coefficients(sympy, chi, 2000)


def test_k_coefficients_reject_bad_polynomials():
    with pytest.raises(ValidationError, match="exceeds"):
        k_coefficients(LaurentPoly({3: 1}), 2)
    with pytest.raises(ValidationError, match="polynomial"):
        k_coefficients(LaurentPoly({-1: 1}), 2)
    for n, shown in ((-1, "-1"), (True, "True"), (1.5, r"1\.5")):
        with pytest.raises(
            ValidationError, match=f"dimension must be a nonnegative integer, got {shown}$"
        ):
            k_coefficients(LaurentPoly({0: 1}), n)


def test_c1cn1_reference_values():
    assert c1cn1_from_k2(1, 3, 2) == 9
    with pytest.raises(ValidationError, match=r"^k2 must be an integer, got Fraction\(1, 5\)$"):
        c1cn1_from_k2(Fraction(1, 5), 3, 2)
    with pytest.raises(ValidationError, match="dimension must be a positive integer, got 0$"):
        c1cn1_from_k2(1, 3, 0)


@pytest.mark.parametrize(
    "k2, shown",
    [
        ("1/2", "'1/2'"),
        (True, "True"),
        (0.5, r"0\.5"),
        (None, "None"),
        (Fraction(3), r"Fraction\(3, 1\)"),
    ],
)
def test_c1cn1_takes_k2_as_an_integer(k2, shown):
    with pytest.raises(ValidationError, match=f"^k2 must be an integer, got {shown}$"):
        c1cn1_from_k2(k2, 3, 2)


@pytest.mark.parametrize("euler, shown", [(True, "True"), (3.0, r"3\.0"), ("3", "'3'")])
def test_c1cn1_takes_euler_as_an_integer(euler, shown):
    with pytest.raises(ValidationError, match=f"^Euler characteristic must be an integer, got {shown}$"):
        c1cn1_from_k2(1, euler, 2)


def test_k_coefficients_rejects_a_non_polynomial_argument():
    with pytest.raises(ValidationError, match=r"^genus input must be a LaurentPoly, got \[1, 2\]$"):
        k_coefficients([1, 2], 2)


def test_line_bundle_power_rejects_a_plain_list():
    with pytest.raises(ValidationError, match=r"^bundle must be BundleWeights, got \[0, 1, 3\]$"):
        line_bundle_power(linear_pn((0, 1, 3)), [0, 1, 3])


@st.composite
def arbitrary_data(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    weight = st.integers(min_value=-8, max_value=8).filter(lambda w: w != 0)
    points = tuple(
        FixedPointDatum(
            f"P{i + 1}", tuple(draw(st.lists(weight, min_size=n, max_size=n)))
        )
        for i in range(m)
    )
    return FixedPointData(n, points)


@given(arbitrary_data())
def test_chi_y_at_minus_one_is_euler_characteristic(data):
    value = sum(c * (-1) ** k for k, c in chi_y_from_data(data).terms)
    assert value == data.point_count


@given(arbitrary_data())
def test_chi_y_duality_when_profile_symmetric(data):
    # when the negative-count multiset is symmetric under d -> n - d, the
    # genus agrees with its reflected form sum of (-y)^(n - d_i)
    counts = [sum(w < 0 for w in p.weights) for p in data.points]
    if sorted(counts) == sorted(data.n - d for d in counts):
        chi = chi_y_from_data(data)
        reflected = LaurentPoly(
            (data.n - d, (-1) ** (data.n - d)) for d in counts
        )
        assert chi == reflected


@given(st.integers(min_value=1, max_value=6))
def test_hrr_agrees_with_fixed_point_route(n):
    assert chi_y_hrr_projective(n) == chi_y_from_data(linear_pn(tuple(range(n + 1))))


def per_point_genus(data):
    counts = [sum(w < 0 for w in p.weights) for p in data.points]
    return LaurentPoly((d, (-1) ** d) for d in counts)


@given(arbitrary_data())
def test_chi_y_from_data_is_the_per_point_sum(data):
    assert chi_y_from_data(data) == per_point_genus(data)


def test_chi_y_from_data_off_the_projective_profile():
    single = FixedPointData(2, (FixedPointDatum("P", (-1, -2)),))
    assert chi_y_from_data(single) == per_point_genus(single) == LaurentPoly({2: 1})
    repeated = FixedPointData(3, tuple(
        FixedPointDatum(f"P{i}", weights)
        for i, weights in enumerate([(-1, -2, 3), (-4, -1, 5), (-3, -1, 2), (-1, 1, 2)])
    ))
    assert chi_y_from_data(repeated) == per_point_genus(repeated)
    assert chi_y_from_data(repeated) == LaurentPoly({1: -1, 2: 3})


# -- genus polynomials built straight from their terms ------------------------

@given(arbitrary_data())
@example(FixedPointData(2, (FixedPointDatum("P", (-1, -2)),)))  # b_0 = b_2 = 0
def test_genus_terms_from_the_betti_counts_equal_the_normalizing_build(data):
    chi = chi_y_from_data(data)
    built = LaurentPoly({d: (-1) ** d * b for d, b in enumerate(betti_numbers(data))})
    assert chi == built and hash(chi) == hash(built)
    assert all(c for _, c in chi.terms)


def test_hrr_terms_from_the_digits_equal_the_normalizing_build(monkeypatch):
    read = []
    reader = localization._balanced_digits

    def spy(acc, bits, count):
        read.append(reader(acc, bits, count))
        return read[-1]

    monkeypatch.setattr(localization, "_balanced_digits", spy)
    for n in range(1, 61):
        read.clear()
        chi = chi_y_hrr_projective(n)
        (digits,) = read
        built = LaurentPoly(enumerate(digits))
        assert chi == built and hash(chi) == hash(built)
        assert all(c for _, c in chi.terms)


# -- the packed HRR route against its residue formula as a double sum ----------

def hrr_double_sum(n):
    # sum over k <= n of C(n+1, k) (-y)^k (1 + y)^(n-k), term by term
    coefficients = [0] * (n + 1)
    for k in range(n + 1):
        for j in range(n - k + 1):
            coefficients[k + j] += (-1) ** k * math.comb(n + 1, k) * math.comb(n - k, j)
    return LaurentPoly(enumerate(coefficients))


@pytest.mark.parametrize("n", [*range(1, 61), 200])
def test_hrr_matches_the_residue_double_sum(n):
    assert chi_y_hrr_projective(n) == hrr_double_sum(n)


def test_hrr_reads_one_packed_integer_with_room_for_every_coefficient(monkeypatch):
    reads = []
    reader = localization._balanced_digits

    def spy(acc, bits, count):
        reads.append((bits, count))
        return reader(acc, bits, count)

    monkeypatch.setattr(localization, "_balanced_digits", spy)
    for n in range(1, 61):
        reads.clear()
        chi_y_hrr_projective(n)
        ((bits, count),) = reads
        assert count == n + 1
        # the a priori bound on a coefficient of the residue formula, before
        # its cancellation is known: sum over k <= n of C(n+1, k) 2^(n-k)
        bound = sum(math.comb(n + 1, k) * 2 ** (n - k) for k in range(n + 1))
        assert bound == (3 ** (n + 1) - 1) // 2
        assert bound < 2 ** (bits - 1)


# -- the kernel against a plain sum of fractions ------------------------------

def plain_sum(data, numerators):
    return sum(
        (Fraction(f, p.weight_product) for f, p in zip(numerators, data.points)),
        Fraction(0),
    )


@st.composite
def unrealizable_data(draw):
    # mixed signs and repeated points; no residue constraint is imposed
    n = draw(st.integers(min_value=1, max_value=5))
    weight = st.integers(min_value=-6, max_value=6).filter(lambda w: w != 0)
    multiset = st.lists(weight, min_size=n, max_size=n)
    pool = draw(st.lists(multiset, min_size=1, max_size=8))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    points = tuple(FixedPointDatum(f"P{i + 1}", w) for i, w in enumerate(chosen))
    return FixedPointData(n, points)


@given(unrealizable_data(), st.data())
def test_kernel_matches_plain_fraction_sums(data, draw):
    n = data.n
    for r in range(n + 2):
        assert residue_sum(data, r) == plain_sum(
            data, [p.weight_sum**r for p in data.points]
        )
    assert residue_constraints_hold(data) == all(
        residue_sum(data, r) == 0 for r in range(n)
    )

    indices, remaining = [], n
    while remaining:
        indices.append(draw.draw(st.integers(min_value=1, max_value=remaining)))
        remaining -= indices[-1]
    terms = [
        math.prod(
            sum(math.prod(c) for c in itertools.combinations(p.weights, i))
            for i in indices
        )
        for p in data.points
    ]
    assert chern_monomial(data, indices) == plain_sum(data, terms)

    bundle = draw.draw(
        st.lists(
            st.integers(min_value=-6, max_value=6),
            min_size=data.point_count,
            max_size=data.point_count,
        )
    )
    assert line_bundle_power(data, BundleWeights(bundle)) == plain_sum(
        data, [a**n for a in bundle]
    )

    # one indicator column per weight sum: its group's reciprocal-product sum
    columns = [
        [int(p.weight_sum == s) for p in data.points]
        for s in sorted({p.weight_sum for p in data.points})
    ]
    assert localize(data, columns) == [plain_sum(data, column) for column in columns]


@given(unrealizable_data(), st.data())
def test_residue_sums_in_any_order_match_plain_sums(data, draw):
    # the first power is above n, so the table is built past n at once; the
    # other powers are read from it or, after n + 1, rebuild it up to n + 2
    n = data.n
    first = draw.draw(st.sampled_from([n + 1, n + 2]))
    rest = draw.draw(st.permutations([r for r in range(n + 3) if r != first]))
    plain = [
        plain_sum(data, [p.weight_sum**r for p in data.points]) for r in range(n + 3)
    ]
    holds = all(value == 0 for value in plain[:n])
    fresh = FixedPointData(n, data.points)
    assert residue_constraints_hold(fresh) == holds
    for r in [first, *rest]:
        assert residue_sum(data, r) == plain[r], r
        assert residue_sum(fresh, r) == plain[r], r
    assert residue_constraints_hold(data) == holds


def test_residue_sums_of_a_large_model_are_fast():
    data = linear_pn(range(201))
    started = time.perf_counter()
    sums = [residue_sum(data, r) for r in range(data.n + 1)]
    assert time.perf_counter() - started < 10.0
    assert len(sums) == 201
    assert all(value == 0 for value in sums[:200])
    assert sums[200] == 201**200


def count_reads(monkeypatch, name):
    reads = [0]
    original = getattr(FixedPointDatum, name).fget

    def counted(point):
        reads[0] += 1
        return original(point)

    monkeypatch.setattr(FixedPointDatum, name, property(counted))
    return reads


def test_report_reads_each_weight_sum_once(monkeypatch):
    data = linear_pn(range(90))
    reads = count_reads(monkeypatch, "weight_sum")
    report = cli._report(data)
    assert report["c1_power"] == 90**89
    # one running-product table for all 90 residue powers, not one column each
    assert reads[0] == data.point_count


def test_report_computes_the_common_denominator_once(monkeypatch):
    data = linear_pn(range(90))
    reads = count_reads(monkeypatch, "weight_product")
    report = cli._report(data)
    assert report["residue_sums"] == [0] * 89 + [90**89]
    # one lcm over the 90 weight products, not one per residue power
    assert reads[0] == data.point_count


def test_localize_shares_the_common_denominator(monkeypatch):
    data = linear_pn((0, 1, 3, 7, 12))
    sums = [p.weight_sum for p in data.points]
    reads = count_reads(monkeypatch, "weight_product")
    columns = [[s**r for s in sums] for r in range(data.n + 1)]
    assert localize(data, columns) == [0] * data.n + [5**4]
    # one lcm over the five weight products for all five columns
    assert reads[0] == data.point_count


def test_each_data_object_computes_its_own_denominator(monkeypatch):
    data = linear_pn((0, 1, 3, 7))
    reads = count_reads(monkeypatch, "weight_product")
    first = data.common_denominator
    assert data.common_denominator is first
    assert reads[0] == 4
    others = (
        dataclasses.replace(data, bundle=BundleWeights((0, 1, 3, 7))),
        dataclasses.replace(data),
        FixedPointData(data.n, data.points),
    )
    for count, other in enumerate(others, start=2):
        value = other.common_denominator
        assert value == first and value is not first
        assert reads[0] == 4 * count
    # the same holds for the table of residue numerators
    sums = count_reads(monkeypatch, "weight_sum")
    for count, other in enumerate((data, *others), start=1):
        assert residue_sum(other, 3) == 4**3
        assert residue_constraints_hold(other)
        assert sums[0] == 4 * count
    assert first == (
        math.lcm(*(p.weight_product for p in data.points)),
        tuple(first[0] // p.weight_product for p in data.points),
    )


# -- the HRR route against a sympy power-series oracle ------------------------

def test_hrr_matches_sympy_power_series():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    top_n = 8
    # one series up to x^top_n serves every n <= top_n: the products below
    # drop every power above x^n
    todd = sympy.series(x / (1 - sympy.exp(-x)), x, 0, top_n + 1).removeO()
    expneg = sympy.series(sympy.exp(-x), x, 0, top_n + 1).removeO()
    factor = sympy.Poly(sympy.expand(todd * (1 + y * expneg)), x)
    for n in range(1, top_n + 1):
        truncation = sympy.Poly(x ** (n + 1), x)
        power = sympy.Poly(1, x)
        for _ in range(n + 1):
            power = (power * factor).rem(truncation)
        top = sympy.expand(power.coeff_monomial(x**n))
        quotient, remainder = sympy.div(top, 1 + y, y)
        assert remainder == 0
        coefficients = sympy.Poly(quotient, y).all_coeffs()[::-1]
        assert all(c.is_integer for c in coefficients)
        expected = LaurentPoly((k, int(c)) for k, c in enumerate(coefficients))
        assert chi_y_hrr_projective(n) == expected


# -- exact ints from int subclasses -------------------------------------------

class Half(int):
    # an int subclass whose arithmetic leaves the integers
    def _half(self, *other):
        return 0.5

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _half
    __floordiv__ = __rfloordiv__ = __pow__ = __rpow__ = __neg__ = _half


def test_c1cn1_computes_with_an_exact_int_dimension():
    assert c1cn1_from_k2(3, 3, Half(2)) == c1cn1_from_k2(3, 3, 2) == 33
    assert c1cn1_from_k2(Half(3), Half(3), 2) == 33


def test_first_chern_candidates_computes_with_an_exact_int_dimension():
    assert first_chern_candidates(Half(3)) == first_chern_candidates(3)


def test_hrr_computes_with_an_exact_int_dimension():
    assert chi_y_hrr_projective(Half(2)) == chi_y_hrr_projective(2)


def test_k_coefficients_computes_with_an_exact_int_dimension():
    chi = chi_y_from_data(linear_pn((0, 1, 3)))
    assert k_coefficients(chi, Half(2)) == k_coefficients(chi, 2) == (3, -3, 1)


def test_condition_c_computes_with_an_exact_int_multiplier():
    data = linear_pn((0, 1, 3))
    assert check_condition_c(data, data.bundle, Half(3)) == check_condition_c(data, data.bundle, 3)


def test_residue_sum_and_chern_monomial_compute_with_exact_int_indices():
    data = linear_pn((0, 1, 3))
    assert residue_sum(data, Half(2)) == 9
    assert chern_monomial(data, [Half(1), 1]) == chern_monomial(data, [1, 1]) == 9


# -- integer and vanishing results --------------------------------------------

def test_c1cn1_integer_path_matches_the_fraction_path():
    # the closed form 12 k2 - n(3n - 5)/2 euler, evaluated in Fractions
    for n in range(1, 13):
        for euler in range(-4, 15):
            for k2 in range(-30, 31, 3):
                value = c1cn1_from_k2(k2, euler, n)
                assert type(value) is int
                assert value == 12 * k2 - Fraction(n * (3 * n - 5), 2) * euler


def test_c1cn1_returns_an_exact_int_for_every_integral_k2():
    class Plain(int):
        pass

    for k2 in (3, Plain(3), Half(3)):
        value = c1cn1_from_k2(k2, 3, 2)
        assert type(value) is int and value == 33, k2


def test_a_vanishing_residue_sum_is_a_fraction_zero():
    data = linear_pn((0, 2, 5, 7))
    values = [residue_sum(data, power) for power in range(3)]
    values += localize(data, [[1] * data.point_count])
    for value in values:
        assert type(value) is Fraction and value == 0 and value is _ZERO
    assert residue_sum(data, 3) == 4**3


# -- both packing directions of the elementary symmetric functions ------------

def sigma_reads(monkeypatch):
    # the digit count of every packed product read
    reads = []
    reader = localization._balanced_digits

    def spy(acc, bits, count):
        reads.append(count)
        return reader(acc, bits, count)

    monkeypatch.setattr(localization, "_balanced_digits", spy)
    return reads


def cheapest_plan_reads(n, width, indices):
    # the digit counts read per point under the plan with the fewest bits:
    # one forward packing, one backward packing, or a cut between two
    # neighbouring distinct indices; a tie keeps one packing, forward first
    top, low = max(indices), min(indices)

    def cost(upper, lower, backward):
        bits, count = localization._packing(n, width, upper, lower, backward)
        return bits * count, count

    forward, backward = cost(top, low, False), cost(top, low, True)
    plans = [(forward[0], 0, [forward[1]]), (backward[0], 1, [backward[1]])]
    distinct = sorted(set(indices))
    for below, above in zip(distinct, distinct[1:]):
        head, tail = cost(below, low, False), cost(top, above, True)
        plans.append((head[0] + tail[0], 2, [head[1], tail[1]]))
    return sorted(plans, key=lambda plan: plan[:2])[0][2]


def test_chern_monomial_packs_the_cheapest_plan(monkeypatch):
    rng = random.Random(17)
    reads = sigma_reads(monkeypatch)
    plans = set()
    for n in range(1, 11):
        for _ in range(6):
            width = rng.choice((1, 9, 1000, 10**9))
            data = FixedPointData(n, tuple(
                FixedPointDatum(f"P{i}", [rng.choice((-1, 1)) * rng.randint(1, width)
                                          for _ in range(n)])
                for i in range(rng.randint(1, 4))
            ))
            size = max(abs(w) for p in data.points for w in p.weights)
            for indices in partitions(n):
                reads.clear()
                chern_monomial(data, indices)
                expected = cheapest_plan_reads(n, size, indices)
                assert reads == expected * data.point_count, (data, indices)
                if len(expected) == 2:
                    plans.add("split")
                else:
                    plans.add("forward" if expected == [max(indices) + 1] else "backward")
    assert plans == {"forward", "backward", "split"}


def test_every_row_packs_the_plan_of_its_call(monkeypatch):
    # rows far below the data-wide weight size still pack the plan's
    # direction(s), costed once at that size
    rng = random.Random(29)
    calls = []
    packer = localization._elementary_symmetric

    def spy(values, top, low=0, backward=False):
        calls[-1].append((top, low, backward))
        return packer(values, top, low, backward)

    monkeypatch.setattr(localization, "_elementary_symmetric", spy)
    for n in (4, 7, 12):
        for widths in ((1, 10**9), (10**30, 2, 1), (9, 1000)):
            data = FixedPointData(n, tuple(
                FixedPointDatum(f"P{i}", [rng.choice((-1, 1)) * rng.randint(1, w)
                                          for _ in range(n)])
                for i, w in enumerate(widths)
            ))
            for indices in ([n], [n - 1, 1], [1] * n, [n // 2, n - n // 2], [n - 3, 2, 1]):
                calls.append([])
                value = chern_monomial(data, indices)
                sigmas = [brute_elementary_symmetric(p.weights, n) for p in data.points]
                assert value == sum(
                    Fraction(math.prod(s[i] for i in indices), p.weight_product)
                    for s, p in zip(sigmas, data.points)
                )
                per_row = len(calls[-1]) // data.point_count
                plan = calls[-1][:per_row]
                assert calls[-1] == plan * data.point_count, (data, indices)
                size = max(abs(w) for p in data.points for w in p.weights)
                counts = [n - low + 1 if back else top + 1 for top, low, back in plan]
                assert counts == cheapest_plan_reads(n, size, indices), (data, indices)


@pytest.mark.parametrize("n", [3, 12, 39])
def test_chern_monomials_near_n_match_the_oracle(monkeypatch, n):
    rng = random.Random(n)
    data = linear_pn(rng.sample(range(-1000, 1001), n + 1))
    # [k, n - k] runs through [n - 1, 1] and [1, n - 1]
    for indices in ([n], [n - 5, 3, 2], *([k, n - k] for k in range(1, n))):
        if min(indices) >= 1:
            expected = math.prod(math.comb(n + 1, i) for i in indices)
            assert chern_monomial(data, indices) == expected, indices
    # [n] reads one backward digit per point
    reads = sigma_reads(monkeypatch)
    chern_monomial(data, [n])
    assert reads == [1] * (n + 1)
    # [n - 1, 1] splits: sigma_0, sigma_1 forward and sigma_(n-1), sigma_n
    # backward, where one packing would read n or n + 1 digits
    reads.clear()
    chern_monomial(data, [n - 1, 1])
    assert reads == ([2, 2] if n >= 4 else [n]) * (n + 1)


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield []
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield [part, *rest]


def test_chern_monomials_match_brute_force_sums_on_random_data(monkeypatch):
    rng = random.Random(28)
    packings = []  # packed products per point of each call: 1, or 2 when split
    packer = localization._elementary_symmetric

    def spy(values, top, low=0, backward=False):
        packings[-1] += 1
        return packer(values, top, low, backward)

    monkeypatch.setattr(localization, "_elementary_symmetric", spy)
    for n in range(1, 9):
        for _ in range(4):
            width = rng.choice((1, 9, 1000))
            data = FixedPointData(n, tuple(
                FixedPointDatum(f"P{i}", [rng.choice((-1, 1)) * rng.randint(1, width)
                                          for _ in range(n)])
                for i in range(rng.randint(1, 5))
            ))
            sigmas = [brute_elementary_symmetric(p.weights, n) for p in data.points]
            for indices in partitions(n):
                expected = sum(
                    Fraction(math.prod(s[i] for i in indices), p.weight_product)
                    for s, p in zip(sigmas, data.points)
                )
                packings.append(0)
                assert chern_monomial(data, indices) == expected, (data, indices)
                packings[-1] //= data.point_count
    assert set(packings) == {1, 2}
