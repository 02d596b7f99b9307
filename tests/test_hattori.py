import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fpkit import localization
from fpkit.core import (
    BundleWeights,
    FixedPointData,
    FixedPointDatum,
    ValidationError,
)
from fpkit.hattori import (
    BundleDerivationError,
    ConditionCCertificate,
    ConditionCError,
    PointMismatch,
    check_condition_c,
    derive_bundle_weights,
    first_chern_candidates,
    hattori_verdict,
)
from fpkit.models import linear_pn
from fpkit.search import SearchSpec, enumerate_survivors


def test_condition_c_certificate_on_reference_model():
    data = linear_pn((0, 1, 3))
    certificate = check_condition_c(data, data.bundle, 3)
    assert certificate.k0 == 3
    assert certificate.offset == -4


def test_condition_c_symbolic_offset_for_any_linear_model():
    rng = random.Random(11)
    for n in range(1, 6):
        values = tuple(rng.sample(range(-20, 21), n + 1))
        data = linear_pn(values)
        certificate = check_condition_c(data, data.bundle, n + 1)
        assert certificate.offset == -sum(values)


def test_condition_c_degenerate_multiplier():
    data = FixedPointData(
        1, (FixedPointDatum("A", (2,)), FixedPointDatum("B", (2,)))
    )
    certificate = check_condition_c(data, BundleWeights((7, -3)), 0)
    assert certificate.k0 == 0
    assert certificate.offset == 2


def test_condition_c_failure_names_first_violation():
    data = linear_pn((0, 1, 3))
    with pytest.raises(ConditionCError) as excinfo:
        check_condition_c(data, data.bundle, 2)
    assert excinfo.value.label == "P2"
    assert excinfo.value.index == 1


def test_condition_c_rejects_bad_multiplier_and_misalignment():
    data = linear_pn((0, 1))
    with pytest.raises(ValidationError):
        check_condition_c(data, data.bundle, -1)
    with pytest.raises(ValidationError):
        check_condition_c(data, BundleWeights((0,)), 2)
    for k0, shown in ((1.5, r"1\.5"), (True, "True")):
        with pytest.raises(
            ValidationError, match=f"k0 must be a nonnegative integer, got {shown}$"
        ):
            check_condition_c(data, data.bundle, k0)


def test_derive_bundle_weights_reference_cases():
    assert derive_bundle_weights(linear_pn((0, 1, 3))).values == (0, 1, 3)
    assert derive_bundle_weights(linear_pn((5, 6, 8))).values == (0, 1, 3)
    signs = FixedPointData(
        1, (FixedPointDatum("P1", (1,)), FixedPointDatum("P2", (-1,)))
    )
    assert derive_bundle_weights(signs).values == (0, -1)


def test_derive_bundle_weights_requires_divisibility():
    data = FixedPointData(
        1, (FixedPointDatum("P1", (1,)), FixedPointDatum("P2", (2,)))
    )
    with pytest.raises(BundleDerivationError) as excinfo:
        derive_bundle_weights(data)
    assert excinfo.value.label == "P2"


def test_derive_bundle_weights_with_an_explicit_multiplier():
    data = linear_pn((0, 1, 3))  # weight sums -4, -1, 5
    assert derive_bundle_weights(data, 3) == derive_bundle_weights(data)
    assert derive_bundle_weights(data, 1).values == (0, 3, 9)
    certificate = check_condition_c(data, derive_bundle_weights(data, 1), 1)
    assert certificate == ConditionCCertificate(1, -4)
    with pytest.raises(BundleDerivationError, match="3 at point P2 is not divisible by 2$"):
        derive_bundle_weights(data, 2)
    # k0 = 0: solvable exactly when every weight sum agrees, with a_i = 0
    level = FixedPointData(
        2, (FixedPointDatum("P1", (-1, 2)), FixedPointDatum("P2", (3, -2)),
            FixedPointDatum("P3", (4, -3)))
    )
    assert derive_bundle_weights(level, 0).values == (0, 0, 0)
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
    assert hattori_verdict(data, data.bundle).quasi_ample
    assert not hattori_verdict(data, BundleWeights((0, 0, 1))).quasi_ample
    inverted = BundleWeights(tuple(-a for a in data.bundle.values))
    assert hattori_verdict(data, inverted).quasi_ample


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
    )
    verdict = hattori_verdict(data, BundleWeights((0, 1, -1)))
    assert verdict.bundle_power == 0
    assert not verdict.quasi_ample


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


def test_hattori_verdict_prefers_explicit_then_attached_bundle():
    data = linear_pn((0, 1, 3))
    stripped = FixedPointData(2, data.points)
    assert hattori_verdict(stripped).passes
    wrong = BundleWeights((0, 2, 1))
    verdict = hattori_verdict(data, bundle=wrong)
    assert not verdict.passes
    assert verdict.normalized_bundle == (0, 2, 1)


def test_hattori_verdict_requires_point_count():
    with pytest.raises(ValidationError, match="n \\+ 1"):
        hattori_verdict(
            FixedPointData(2, (FixedPointDatum("P1", (1, 2)),))
        )


def test_hattori_verdict_checks_bundle_length():
    with pytest.raises(ValidationError, match="bundle weight count 2"):
        hattori_verdict(linear_pn((0, 1, 3)), BundleWeights((0, 1)))


def test_bundle_arguments_must_be_bundle_weights():
    data = linear_pn((0, 1, 3))
    with pytest.raises(ValidationError, match=r"^bundle must be BundleWeights or None, got \[0, 1, 3\]$"):
        hattori_verdict(data, [0, 1, 3])
    with pytest.raises(ValidationError, match=r"^bundle must be BundleWeights, got \[0, 1, 3\]$"):
        check_condition_c(data, [0, 1, 3], 3)
    with pytest.raises(ValidationError, match=r"^bundle must be BundleWeights, got \(0, 1, 3\)$"):
        localization.line_bundle_power(data, (0, 1, 3))


def test_hattori_verdict_propagates_derivation_failure():
    data = FixedPointData(
        1, (FixedPointDatum("P1", (1,)), FixedPointDatum("P2", (2,)))
    )
    with pytest.raises(BundleDerivationError):
        hattori_verdict(data)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-40, max_value=40),
    st.randoms(use_true_random=False),
)
def test_verdict_invariant_under_bundle_shift(n, shift, rng):
    values = tuple(rng.sample(range(-20, 21), n + 1))
    data = linear_pn(values)
    shifted = hattori_verdict(data, bundle=BundleWeights(v + shift for v in data.bundle))
    assert shifted == hattori_verdict(data)


@st.composite
def verdict_inputs(draw):
    # n+1-point data: a linear model, one with a single weight changed, or
    # random weights; with an explicit, an attached or a derived bundle
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
    source = draw(st.sampled_from(["explicit", "attached", "derived"]))
    data = FixedPointData(n, tuple(points), None if source == "derived" else data.bundle)
    if source != "explicit":
        return data, None
    bundle = draw(st.sampled_from(["shifted", "perturbed", "random"]))
    if bundle == "random":
        explicit = draw(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=n + 1, max_size=n + 1)
        )
        return data, BundleWeights(tuple(explicit))
    shift = draw(st.integers(min_value=-5, max_value=5))
    shifted = [a + shift for a in values]
    if bundle == "perturbed":
        shifted[draw(st.integers(min_value=0, max_value=n))] += draw(weight)
    return data, BundleWeights(tuple(shifted))


@given(verdict_inputs())
def test_passes_is_the_conjunction_of_hypotheses_and_conclusion(inputs):
    data, bundle = inputs
    try:
        verdict = hattori_verdict(data, bundle)
    except BundleDerivationError:
        return
    reference = (
        verdict.quasi_ample
        and verdict.bundle_power == 1
        and verdict.condition_c is not None
        and not verdict.mismatches
    )
    assert verdict.passes == reference


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
@example((linear_pn((0, 1, 3)), BundleWeights((0, 0, 1))))
@example((linear_pn((0, 1, 3)), BundleWeights((4, 4, 4))))
def test_verdict_is_held_to_the_localization_kernel(inputs):
    # a passing verdict reads its top power off the Lagrange identity; the
    # kernel and the old per-point sort are the references for every verdict
    data, bundle = inputs
    try:
        verdict = hattori_verdict(data, bundle)
    except BundleDerivationError:
        return
    if bundle is None:
        bundle = data.bundle if data.bundle is not None else derive_bundle_weights(data)
    normalized = bundle.normalized()
    power = localization.line_bundle_power(data, normalized)
    assert verdict.bundle_power == power
    assert verdict.quasi_ample == (normalized.pairwise_distinct() and power != 0)
    assert verdict.mismatches == reference_mismatches(data, normalized.values)


def test_survivors_with_distinct_derived_weights_have_nonzero_top_power():
    # the residue constraints r < n and a zero top power would form an
    # invertible Vandermonde system in the 1/e_i over the distinct weight sums
    distinct = 0
    for n, bound in ((1, 6), (2, 8), (2, 10), (3, 4), (4, 2)):
        for data in enumerate_survivors(SearchSpec(n=n, bound=bound)):
            try:
                verdict = hattori_verdict(data)
            except BundleDerivationError:
                continue
            if len(set(verdict.normalized_bundle)) == data.point_count:
                distinct += 1
                assert verdict.bundle_power != 0, data
    assert distinct > 0
