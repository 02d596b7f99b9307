import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpkit.core import FixedPointData, FixedPointDatum, ValidationError, serialize
from fpkit.hattori import hattori_verdict
from fpkit.localization import residue_constraints_hold
from fpkit.models import _pairwise_differences, linear_pn, pair_restriction_check

distinct_entries = st.lists(
    st.integers(min_value=-25, max_value=25), min_size=2, max_size=6, unique=True
)


def test_linear_pn_smallest_case():
    data = linear_pn((0, 1))
    assert data.n == 1
    assert [p.weights for p in data.points] == [(-1,), (1,)]
    assert data.bundle == (0, 1)


def test_linear_pn_reference_case():
    data = linear_pn((0, 1, 3))
    assert [p.weights for p in data.points] == [(-3, -1), (-2, 1), (2, 3)]
    assert data.labels == ("P1", "P2", "P3")


def test_linear_pn_chi_y_alternates():
    from fpkit.localization import chi_y_from_data

    assert chi_y_from_data(linear_pn((0, 1, 2, 3))).fmt() == "1 - y + y^2 - y^3"


def test_linear_pn_rejects_repeats_and_short_input():
    with pytest.raises(ValidationError, match="repeats"):
        linear_pn((0, 1, 1))
    with pytest.raises(ValidationError, match="dimension must be >= 1"):
        linear_pn((0,))


@pytest.mark.parametrize("values, shown", [((1.5, 2), r"1\.5"), ((0, True), "True"), ((0, "3"), "'3'")])
def test_linear_pn_names_the_bad_input_weight(values, shown):
    # not a weight difference such as -0.5
    with pytest.raises(ValidationError, match=f"^linear model weight must be an integer, got {shown}$"):
        linear_pn(values)


class Weight(int):
    pass


def old_linear_pn_weights(entries):
    # the pairwise-difference definition, one point at a time in input order
    return [
        tuple(sorted(a - b for j, b in enumerate(entries) if j != i))
        for i, a in enumerate(entries)
    ]


def test_linear_pn_matches_the_pairwise_difference_definition():
    rng = random.Random(16)
    for _ in range(200):
        entries = rng.sample(range(-60, 61), rng.randint(2, 12))
        if rng.random() < 0.3:
            i = rng.randrange(len(entries))
            entries[i] = Weight(entries[i])
        data = linear_pn(entries)
        assert [p.weights for p in data.points] == old_linear_pn_weights(entries)
        assert data.labels == tuple(f"P{i + 1}" for i in range(len(entries)))
        assert data.bundle == tuple(entries)


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=9))
def test_pairwise_differences_drop_exactly_one_zero_per_row(values):
    # repeated values, as a bundle given to the rigidity verdict may have
    rows = _pairwise_differences(values)
    assert rows == [
        tuple(sorted(a - b for j, b in enumerate(values) if j != i))
        for i, a in enumerate(values)
    ]
    assert [row.count(0) for row in rows] == [values.count(a) - 1 for a in values]


@pytest.mark.parametrize(
    "values, message",
    [
        ([1, 1, "x"], "^linear model weights must be pairwise distinct, 1 repeats$"),
        (["x", 1, 1], "^linear model weight must be an integer, got 'x'$"),
        ([1, True], "^linear model weight must be an integer, got True$"),
        ([2, Weight(2)], "^linear model weights must be pairwise distinct, 2 repeats$"),
    ],
)
def test_linear_pn_reports_the_first_problem_in_input_order(values, message):
    with pytest.raises(ValidationError, match=message):
        linear_pn(values)


def validated_linear_pn(values):
    # the same data through the checking constructors
    rows = [sorted(a - b for j, b in enumerate(values) if j != i) for i, a in enumerate(values)]
    points = tuple(FixedPointDatum(f"P{i}", row) for i, row in enumerate(rows, 1))
    return FixedPointData(len(values) - 1, points, values)


@given(distinct_entries, st.data())
def test_linear_pn_equals_the_validated_build(values, draw):
    wrapped = draw.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    entries = [Weight(v) if w else v for v, w in zip(values, wrapped)]
    data, reference = linear_pn(entries), validated_linear_pn(values)
    assert data == reference and hash(data) == hash(reference)
    assert data.common_denominator == reference.common_denominator
    assert serialize(data) == serialize(reference)
    assert {type(w) for p in data.points for w in p.weights} == {int}
    assert {type(v) for v in data.bundle} == {int}


class OddDifference(int):
    # subtraction that leaves the integers
    def __sub__(self, other):
        return 0.5

    def __rsub__(self, other):
        return 0.5


def test_linear_pn_subtracts_exact_ints_for_an_int_subclass():
    data = linear_pn([OddDifference(0), 1, OddDifference(3)])
    assert data == validated_linear_pn([0, 1, 3])
    assert all(type(w) is int for p in data.points for w in p.weights)


def test_trusted_linear_data_keeps_the_dataclass_behaviour():
    data = linear_pn((0, 1, 3))
    assert data.common_denominator is data.common_denominator  # the memo is kept
    assert dataclasses.replace(data, bundle=None) == FixedPointData(2, data.points)
    with pytest.raises(ValidationError, match="expected n = 3"):
        dataclasses.replace(data, n=3)
    with pytest.raises(ValidationError, match="does not match point count"):
        dataclasses.replace(data, bundle=(0, 1))


def test_hyperplane_model_matches_linear_recipe():
    assert [p.weights for p in linear_pn((0, 1)).points] == [(-1,), (1,)]


@given(distinct_entries)
def test_linear_models_satisfy_expected_invariants(values):
    data = linear_pn(values)
    assert residue_constraints_hold(data)
    assert hattori_verdict(data).passes


def test_pair_restriction_reference_case():
    report = pair_restriction_check(linear_pn((0, 1, 3)), linear_pn((0, 1)))
    assert report.passes
    assert report.omitted_label == "P3"
    assert [row.normal_weight for row in report.points] == [-3, -2]
    assert [row.expected_normal for row in report.points] == [-3, -2]


def test_pair_restriction_detects_violation():
    altered = FixedPointData(
        1,
        (FixedPointDatum("P1", (2,)), FixedPointDatum("P2", (1,))),
    )
    report = pair_restriction_check(linear_pn((0, 1, 3)), altered)
    assert not report.passes
    first = report.points[0]
    assert not first.embeds
    assert first.missing == (2,)
    assert report.points[1].embeds


def test_pair_restriction_rejects_dimension_mismatch():
    data = linear_pn((0, 1, 3))
    with pytest.raises(ValidationError, match="dimension mismatch"):
        pair_restriction_check(data, data)


def test_pair_restriction_validates_embedding():
    ambient = linear_pn((0, 1, 3))
    hypersurface = linear_pn((0, 1))
    with pytest.raises(ValidationError, match="every hypersurface point"):
        pair_restriction_check(ambient, hypersurface, {"P1": "P1"})
    # an unknown source is named first, though every point has an image
    embedding = {"P1": "P1", "P2": "P2", "X": "P3"}
    with pytest.raises(ValidationError, match="^embedding names unknown hypersurface point 'X'$"):
        pair_restriction_check(ambient, hypersurface, embedding)
    with pytest.raises(ValidationError, match="injective"):
        pair_restriction_check(ambient, hypersurface, {"P1": "P1", "P2": "P1"})
    with pytest.raises(ValidationError, match="unknown ambient point"):
        pair_restriction_check(ambient, hypersurface, {"P1": "P1", "P2": "P9"})


def test_pair_restriction_with_explicit_embedding():
    ambient = linear_pn((0, 1, 3))
    renamed = FixedPointData(
        1,
        (FixedPointDatum("A", (-1,)), FixedPointDatum("B", (1,))),
    )
    report = pair_restriction_check(ambient, renamed, {"A": "P1", "B": "P2"})
    assert report.passes
    assert report.omitted_label == "P3"


def test_pair_restriction_without_bundle_skips_normal_prediction():
    ambient = FixedPointData(2, linear_pn((0, 1, 3)).points)
    report = pair_restriction_check(ambient, linear_pn((0, 1)))
    assert report.passes
    assert [row.expected_normal for row in report.points] == [None, None]
    assert [row.normal_weight for row in report.points] == [-3, -2]


@given(distinct_entries)
def test_pair_normal_weights_complete_the_ambient_sums(values):
    if len(values) < 3:
        values = values + [max(values) + 1]
    ambient = linear_pn(values)
    hypersurface = linear_pn(values[:-1])
    report = pair_restriction_check(ambient, hypersurface)
    assert report.passes
    by_label = {p.label: p for p in ambient.points}
    for row, point in zip(report.points, hypersurface.points):
        ambient_sum = by_label[row.image].weight_sum
        assert point.weight_sum + row.normal_weight == ambient_sum


def test_pair_expected_normals_follow_bundle_differences():
    rng = random.Random(5)
    for n in range(2, 6):
        values = tuple(rng.sample(range(-20, 21), n + 1))
        report = pair_restriction_check(linear_pn(values), linear_pn(values[:-1]))
        assert report.passes
        for i, row in enumerate(report.points):
            assert row.normal_weight == values[i] - values[-1]
