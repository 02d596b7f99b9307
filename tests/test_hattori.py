import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fpkit import localization
from fpkit.core import (
    FixedPointData,
    FixedPointDatum,
    ValidationError,
)
from fpkit.hattori import (
    BundleDerivationError,
    ConditionCCertificate,
    PointMismatch,
    RigidityVerdict,
    derive_bundle_weights,
    first_chern_candidates,
    hattori_verdict,
)
from fpkit.models import linear_pn
from fpkit.search import SearchSpec, enumerate_survivors


def test_condition_c_certificate_on_reference_model():
    certificate = hattori_verdict(linear_pn((0, 1, 3))).condition_c
    assert certificate == ConditionCCertificate(3, -4)


def test_condition_c_symbolic_offset_for_any_linear_model():
    rng = random.Random(11)
    for n in range(1, 6):
        values = tuple(rng.sample(range(-20, 21), n + 1))
        certificate = hattori_verdict(linear_pn(values)).condition_c
        assert certificate.offset == -sum(a - values[0] for a in values)


def test_condition_c_failure_names_first_violation():
    # the weight sums -4, -1, 5 meet the relation for k0 = 3 with the bundle
    # (0, 1, 3); moving the second bundle weight breaks it there first
    data = dataclasses.replace(linear_pn((0, 1, 3)), bundle=(0, 2, 3))
    verdict = hattori_verdict(data)
    assert verdict.condition_c is None
    assert verdict.condition_c_violation == (
        "point P2 breaks the affine relation: weight sum -1 != 3 * 2 + -4"
    )


def test_derive_bundle_weights_reference_cases():
    assert derive_bundle_weights(linear_pn((0, 1, 3))) == (0, 1, 3)
    assert derive_bundle_weights(linear_pn((5, 6, 8))) == (0, 1, 3)
    signs = FixedPointData(
        1, (FixedPointDatum("P1", (1,)), FixedPointDatum("P2", (-1,)))
    )
    assert derive_bundle_weights(signs) == (0, -1)


def test_derive_bundle_weights_requires_divisibility():
    data = FixedPointData(
        1, (FixedPointDatum("P1", (1,)), FixedPointDatum("P2", (2,)))
    )
    with pytest.raises(BundleDerivationError, match="at point P2 is not divisible by 2$"):
        derive_bundle_weights(data)


def test_derive_bundle_weights_with_an_explicit_multiplier():
    data = linear_pn((0, 1, 3))  # weight sums -4, -1, 5
    assert derive_bundle_weights(data, 3) == derive_bundle_weights(data)
    assert derive_bundle_weights(data, 1) == (0, 3, 9)
    with pytest.raises(BundleDerivationError, match="3 at point P2 is not divisible by 2$"):
        derive_bundle_weights(data, 2)
    # k0 = 0: solvable exactly when every weight sum agrees, with a_i = 0
    level = FixedPointData(
        2, (FixedPointDatum("P1", (-1, 2)), FixedPointDatum("P2", (3, -2)),
            FixedPointDatum("P3", (4, -3)))
    )
    assert derive_bundle_weights(level, 0) == (0, 0, 0)
    with pytest.raises(BundleDerivationError, match="at point P2 is not divisible by 0$"):
        derive_bundle_weights(data, 0)
    for bad in (-1, True, 1.0):
        with pytest.raises(ValidationError, match="k0 must be a nonnegative integer"):
            derive_bundle_weights(data, bad)


def test_derive_bundle_weights_requires_matching_point_count():
    lopsided = FixedPointData(2, (FixedPointDatum("P1", (1, 2)),))
    with pytest.raises(ValidationError, match="n \\+ 1"):
        derive_bundle_weights(lopsided)


def test_quasi_ample_examples():
    data = linear_pn((0, 1, 3))
    assert hattori_verdict(data).quasi_ample
    repeated = dataclasses.replace(data, bundle=(0, 0, 1))
    assert not hattori_verdict(repeated).quasi_ample
    inverted = tuple(-a for a in data.bundle)
    assert hattori_verdict(dataclasses.replace(data, bundle=inverted)).quasi_ample


def test_quasi_ample_rejects_zero_top_power():
    # distinct bundle weights, already normalized, whose top power vanishes:
    # 0/2 + 1/1 + 1/(-1) = 0
    data = FixedPointData(
        2,
        (
            FixedPointDatum("P1", (1, 2)),
            FixedPointDatum("P2", (1, 1)),
            FixedPointDatum("P3", (-1, 1)),
        ),
        (0, 1, -1),
    )
    verdict = hattori_verdict(data)
    assert verdict.bundle_power == 0
    assert not verdict.quasi_ample


def test_hypothesis_failure_names_the_first_failing_hypothesis():
    def failure(rows, bundle=None):
        points = tuple(FixedPointDatum(f"P{i + 1}", w) for i, w in enumerate(rows))
        data = FixedPointData(len(rows) - 1, points, bundle)
        return hattori_verdict(data).hypothesis_failure

    cp2 = [(-3, -1), (-2, 1), (2, 3)]
    assert failure(cp2) is None
    assert failure(cp2, (0, 2, 3)) == (
        "point P2 breaks the affine relation: weight sum -1 != 3 * 2 + -4"
    )
    assert failure([(1,), (1,)]) == "derived bundle weights are not pairwise distinct"
    # distinct weights 0, 1, -1 with top power 0/2 + 1/9 + 1/(-9) = 0
    vanishing = [(1, 2), (3, 3), (-3, 3)]
    assert failure(vanishing) == "top power of the derived bundle vanishes"
    assert failure(vanishing, (5, 6, 4)) == "top power of the attached bundle vanishes"
    # a survivor of the search at n = 2, B = 8, with top power 9/4
    assert failure([(-8, -1), (-2, 2), (1, 8)]) == (
        "top power of the derived bundle is not an integer"
    )


def test_first_chern_candidates_reference_rows():
    def same(parity):
        return f"integer with the same parity as {parity}"

    by_n = {
        3: [("4", True, same(4)), ("2", True, same(4))],
        5: [("6", True, same(6)), ("3", False, "rejected: parity differs from 6 mod 2")],
        2: [("3", True, same(3)), ("3/2", False, "rejected: not an integer")],
        7: [("8", True, same(8)), ("4", True, same(8))],
    }
    for n, expected in by_n.items():
        rows = [(str(c.value), c.admissible, c.reason) for c in first_chern_candidates(n)]
        assert rows == expected


def test_first_chern_candidates_parity_rule():
    for n in range(1, 101):
        full, half = first_chern_candidates(n)
        assert full.value == n + 1 and full.admissible
        assert half.value == Fraction(n + 1, 2)
        assert half.admissible == (n % 4 == 3)


def test_hattori_verdict_passes_on_linear_models():
    rng = random.Random(23)
    for n in range(1, 6):
        values = tuple(rng.sample(range(-15, 16), n + 1))
        verdict = hattori_verdict(linear_pn(values))
        assert verdict.passes
        assert verdict.bundle_power == 1
        assert verdict.normalized_bundle == tuple(a - values[0] for a in values)
        assert verdict.condition_c is not None
        assert verdict.mismatches == ()


def test_hattori_verdict_is_order_insensitive_within_points():
    data = linear_pn((0, 1, 3))
    reshuffled = FixedPointData(
        2,
        (
            data.points[0],
            data.points[1],
            FixedPointDatum("P3", (3, 2)),
        ),
        data.bundle,
    )
    assert hattori_verdict(reshuffled).passes


def test_hattori_verdict_localizes_single_point_mismatch():
    data = linear_pn((0, 1, 3))
    perturbed = FixedPointData(
        2,
        (
            data.points[0],
            data.points[1],
            FixedPointDatum("P3", (3, 1)),
        ),
        data.bundle,
    )
    verdict = hattori_verdict(perturbed)
    assert not verdict.passes
    assert [m.label for m in verdict.mismatches] == ["P3"]
    assert verdict.mismatches[0].expected == (2, 3)
    assert verdict.mismatches[0].actual == (1, 3)


def test_hattori_verdict_uses_the_attached_bundle_else_derives_one():
    data = linear_pn((0, 1, 3))
    stripped = FixedPointData(2, data.points)
    assert hattori_verdict(stripped).passes
    wrong = (0, 2, 1)
    verdict = hattori_verdict(dataclasses.replace(data, bundle=wrong))
    assert not verdict.passes
    assert verdict.normalized_bundle == (0, 2, 1)


def test_hattori_verdict_requires_point_count():
    with pytest.raises(ValidationError, match="n \\+ 1"):
        hattori_verdict(
            FixedPointData(2, (FixedPointDatum("P1", (1, 2)),))
        )


def test_hattori_verdict_checks_bundle_length():
    with pytest.raises(
        ValidationError, match="^bundle weight count 2 does not match point count 3$"
    ):
        hattori_verdict(dataclasses.replace(linear_pn((0, 1, 3)), bundle=(0, 1)))


def test_bundle_arguments_must_be_a_tuple_or_a_list():
    data = linear_pn((0, 1, 3))
    listed = dataclasses.replace(data, bundle=[0, 1, 3])
    assert listed.bundle == data.bundle
    assert hattori_verdict(listed) == hattori_verdict(data)
    with pytest.raises(ValidationError, match="^bundle must be a tuple or a list of integers, got 5$"):
        hattori_verdict(dataclasses.replace(data, bundle=5))


def test_hattori_verdict_reports_a_derivation_failure_as_condition_c():
    data = FixedPointData(
        1, (FixedPointDatum("P1", (1,)), FixedPointDatum("P2", (2,)))
    )
    message = (
        "bundle derivation failed: weight-sum difference 1 at point P2 is not divisible by 2"
    )
    assert hattori_verdict(data) == RigidityVerdict(
        passes=False,
        normalized_bundle=None,
        quasi_ample=False,
        bundle_power=None,
        condition_c=None,
        condition_c_violation=message,
        mismatches=None,
        hypothesis_failure=message,
    )


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-40, max_value=40),
    st.randoms(use_true_random=False),
)
def test_verdict_invariant_under_bundle_shift(n, shift, rng):
    values = tuple(rng.sample(range(-20, 21), n + 1))
    data = linear_pn(values)
    shifted = tuple(v + shift for v in data.bundle)
    assert hattori_verdict(dataclasses.replace(data, bundle=shifted)) == hattori_verdict(data)


@st.composite
def verdict_inputs(draw):
    # n+1-point data: a linear model, one with a single weight changed, or
    # random weights; with the model's bundle, another one or none attached
    n = draw(st.integers(min_value=1, max_value=4))
    values = draw(
        st.lists(
            st.integers(min_value=-6, max_value=6),
            min_size=n + 1,
            max_size=n + 1,
            unique=True,
        )
    )
    data = linear_pn(tuple(values))
    weight = st.integers(min_value=-6, max_value=6).filter(bool)
    kind = draw(st.sampled_from(["linear", "perturbed", "random"]))
    points = list(data.points)
    if kind == "perturbed":
        index = draw(st.integers(min_value=0, max_value=n))
        weights = list(points[index].weights)
        weights[draw(st.integers(min_value=0, max_value=n - 1))] = draw(weight)
        points[index] = FixedPointDatum(points[index].label, weights)
    elif kind == "random":
        points = [
            FixedPointDatum(p.label, draw(st.lists(weight, min_size=n, max_size=n)))
            for p in points
        ]
    source = draw(st.sampled_from(["other", "model", "derived"]))
    bundle = None if source == "derived" else data.bundle
    if source == "other":
        kind = draw(st.sampled_from(["shifted", "perturbed", "random"]))
        if kind == "random":
            bundle = draw(
                st.lists(st.integers(min_value=-6, max_value=6), min_size=n + 1, max_size=n + 1)
            )
        else:
            shift = draw(st.integers(min_value=-5, max_value=5))
            bundle = [a + shift for a in values]
            if kind == "perturbed":
                bundle[draw(st.integers(min_value=0, max_value=n))] += draw(weight)
    return FixedPointData(n, tuple(points), bundle)


@given(verdict_inputs())
def test_passes_is_the_conjunction_of_hypotheses_and_conclusion(data):
    verdict = hattori_verdict(data)
    reference = (
        verdict.quasi_ample
        and verdict.bundle_power == 1
        and verdict.condition_c is not None
        and not verdict.mismatches
    )
    assert verdict.passes == reference


@given(verdict_inputs())
@example(dataclasses.replace(linear_pn((0, 1, 3)), bundle=(0, 2, 3)))
def test_condition_c_is_the_affine_relation_with_multiplier_n_plus_one(data):
    # the relation holds iff s_i - s_0 = (n+1)(a_i - a_0) at every point; the
    # certificate and the message are those of the normalized bundle
    verdict = hattori_verdict(data)
    s = [p.weight_sum for p in data.points]
    k0 = data.n + 1
    if data.bundle is not None:
        a = [v - data.bundle[0] for v in data.bundle]
    else:
        # the derived bundle a_i = (s_i - s_0) / k0 exists unless some
        # difference is not a multiple of k0, and then condition C fails
        stuck = [i for i in range(len(s)) if (s[i] - s[0]) % k0]
        if stuck:
            i = stuck[0]
            assert verdict.condition_c is None
            assert verdict.condition_c_violation == (
                f"bundle derivation failed: weight-sum difference {s[i] - s[0]} "
                f"at point {data.points[i].label} is not divisible by {k0}"
            )
            return
        a = [(x - s[0]) // k0 for x in s]
    offset = s[0] - k0 * a[0]
    failing = [i for i in range(len(s)) if s[i] - s[0] != k0 * (a[i] - a[0])]
    if not failing:
        assert verdict.condition_c == ConditionCCertificate(k0, offset)
        assert verdict.condition_c_violation is None
    else:
        i = failing[0]
        assert verdict.condition_c is None
        assert verdict.condition_c_violation == (
            f"point {data.points[i].label} breaks the affine relation: "
            f"weight sum {s[i]} != {k0} * {a[i]} + {offset}"
        )


def reference_mismatches(data, values):
    # each point's expected weights sorted afresh, the j = i term left out
    mismatches = []
    for i, point in enumerate(data.points):
        expected = tuple(
            sorted(values[i] - values[j] for j in range(len(values)) if j != i)
        )
        if expected != point.weights:
            mismatches.append(PointMismatch(point.label, expected, point.weights))
    return tuple(mismatches)


@given(verdict_inputs())
@example(dataclasses.replace(linear_pn((0, 1, 3)), bundle=(0, 0, 1)))
@example(dataclasses.replace(linear_pn((0, 1, 3)), bundle=(4, 4, 4)))
def test_verdict_is_held_to_the_localization_kernel(data):
    # a passing verdict reads its top power off the Lagrange identity; the
    # kernel and the old per-point sort are the references for every verdict
    verdict = hattori_verdict(data)
    if verdict.normalized_bundle is None:
        # no bundle derives, so nothing is localized
        assert (verdict.bundle_power, verdict.quasi_ample, verdict.mismatches) == (None, False, None)
        return
    bundle = data.bundle if data.bundle is not None else derive_bundle_weights(data)
    normalized = tuple(a - bundle[0] for a in bundle)
    assert verdict.normalized_bundle == normalized
    power = localization.line_bundle_power(data, normalized)
    assert verdict.bundle_power == power
    distinct = len(set(normalized)) == len(normalized)
    assert verdict.quasi_ample == (distinct and power != 0)
    assert verdict.mismatches == reference_mismatches(data, normalized)


def test_survivors_with_distinct_derived_weights_have_nonzero_top_power():
    # the residue constraints r < n and a zero top power would form an
    # invertible Vandermonde system in the 1/e_i over the distinct weight sums
    distinct = 0
    for n, bound in ((1, 6), (2, 8), (2, 10), (3, 4), (4, 2)):
        for data in enumerate_survivors(SearchSpec(n=n, bound=bound)):
            verdict = hattori_verdict(data)
            if verdict.normalized_bundle is None:
                continue
            if len(set(verdict.normalized_bundle)) == data.point_count:
                distinct += 1
                assert verdict.bundle_power != 0, data
    assert distinct > 0


@given(verdict_inputs())
@example(linear_pn((0, 1, 3)))
@example(
    FixedPointData(
        2,
        (
            FixedPointDatum("P1", (-8, -1)),
            FixedPointDatum("P2", (-2, 2)),
            FixedPointDatum("P3", (1, 8)),
        ),
    )
)
@example(dataclasses.replace(linear_pn((0, 1, 3)), bundle=(0, 0, 1)))
def test_hypothesis_failure_is_the_first_failing_hypothesis(data):
    # the verdict never raises on valid data; the reference ladder reads the
    # other fields: condition C, distinct weights, a nonzero and integral power
    verdict = hattori_verdict(data)
    source = "attached" if data.bundle is not None else "derived"
    if verdict.normalized_bundle is None:
        assert data.bundle is None
        assert verdict.condition_c_violation.startswith("bundle derivation failed: ")
        reference = verdict.condition_c_violation
    elif verdict.condition_c is None:
        reference = verdict.condition_c_violation
    elif len(set(verdict.normalized_bundle)) < data.point_count:
        reference = f"{source} bundle weights are not pairwise distinct"
    elif verdict.bundle_power == 0:
        reference = f"top power of the {source} bundle vanishes"
    elif verdict.bundle_power.denominator != 1:
        reference = f"top power of the {source} bundle is not an integer"
    else:
        reference = None
    assert verdict.hypothesis_failure == reference
    assert reference is None or not verdict.passes
