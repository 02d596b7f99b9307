"""Certification of rigidity hypotheses and conclusions.

:func:`hattori_verdict` decides, from fixed-point data alone, whether the
hypotheses of Hattori's rigidity theorem hold (an affine relation between
weight sums and line-bundle weights, and quasi-ampleness: pairwise distinct
bundle weights with a nonvanishing top power) and whether the advertised
conclusion holds (every weight multiset has the pairwise-difference form of
the standard projective model, with top bundle power exactly 1).  The
conclusion is decided first: when it holds, the top power is 1 by the
Lagrange identity, so only a failing verdict pays for a localization sum.
The module also houses the quadratic solver for the admissible first Chern
numbers.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from . import localization
from .core import BundleWeights, FixedPointData, ValidationError, _check_bundle, _check_int
from .models import _pairwise_differences


class _PointError(ValueError):
    """A failure located at one point, carrying its index and label."""

    def __init__(self, message: str, index: int, label: str):
        super().__init__(message)
        self.index = index
        self.label = label


class ConditionCError(_PointError):
    """No integer offset makes weight_sum = k0 * bundle_weight + offset hold
    at every point.  Carries the first violating point."""


class BundleDerivationError(_PointError):
    """Bundle weights cannot be recovered from the weight sums because some
    pairwise difference is not divisible by the point count."""


@dataclasses.dataclass(frozen=True)
class ConditionCCertificate:
    """Witness of the affine relation weight_sum_i = k0 * bundle_i + offset."""

    k0: int
    offset: int


@dataclasses.dataclass(frozen=True)
class PointMismatch:
    """A point whose weight multiset differs from the pairwise-difference
    prediction of the normalized bundle weights."""

    label: str
    expected: tuple[int, ...]
    actual: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class RigidityVerdict:
    """Full outcome of the rigidity pipeline.

    ``passes`` is true exactly when every point's weights are the pairwise
    differences of the normalized bundle weights, which implies that the
    bundle weights are quasi-ample, the affine relation holds with
    multiplier n+1 and the top bundle power is exactly 1.  ``quasi_ample``
    holds when the normalized weights are pairwise distinct and
    ``bundle_power`` is nonzero.  A passing verdict takes ``bundle_power``
    from the Lagrange identity sum_i a_i^n / prod_{j != i} (a_i - a_j) = 1;
    a failing one runs every stage, the localization sum included, so the
    verdict localizes everything that went wrong.  The fields, in order,
    are those of the ``fpkit hattori`` document.
    """

    passes: bool
    normalized_bundle: tuple[int, ...]
    quasi_ample: bool
    bundle_power: Fraction
    condition_c: ConditionCCertificate | None
    condition_c_violation: str | None
    mismatches: tuple[PointMismatch, ...]


@dataclasses.dataclass(frozen=True)
class ChernClassCandidate:
    """A root of the quadratic constraining the top power of the first
    Chern class, with its admissibility under integrality and parity."""

    value: Fraction
    admissible: bool
    reason: str


def check_condition_c(
    data: FixedPointData, bundle: BundleWeights, k0: int
) -> ConditionCCertificate:
    """Find the unique offset with weight_sum_i = k0 * bundle_i + offset.

    The offset is pinned by the first point; the first point violating the
    relation is reported in the raised error.
    """
    k0 = _check_int(k0, "k0", 0)
    _check_bundle(bundle, data.point_count)
    offset = data.points[0].weight_sum - k0 * bundle.values[0]
    for index, (point, a) in enumerate(zip(data.points, bundle.values)):
        if point.weight_sum != k0 * a + offset:
            raise ConditionCError(
                f"point {point.label} breaks the affine relation: weight sum "
                f"{point.weight_sum} != {k0} * {a} + {offset}",
                index=index,
                label=point.label,
            )
    return ConditionCCertificate(k0, offset)


def derive_bundle_weights(data: FixedPointData, k0: int | None = None) -> BundleWeights:
    """Invert the affine relation weight_sum_i = k0 * a_i + offset on data
    with n+1 points, normalizing the first bundle weight to 0.

    ``k0`` defaults to n+1.  Every weight-sum difference from the first point
    must be divisible by k0; the certificate check_condition_c(data, result,
    k0) then succeeds by construction.  For k0 = 0 the relation is solvable
    exactly when all weight sums agree, with the witness a_i = 0.
    """
    scale = data.n + 1
    if data.point_count != scale:
        raise ValidationError(
            f"bundle derivation needs exactly n + 1 = {scale} points, got "
            f"{data.point_count}"
        )
    k0 = scale if k0 is None else _check_int(k0, "k0", 0)
    base = data.points[0].weight_sum
    values = []
    for index, point in enumerate(data.points):
        difference = point.weight_sum - base
        quotient, remainder = divmod(difference, k0) if k0 else (0, difference)
        if remainder:
            raise BundleDerivationError(
                f"bundle derivation failed: weight-sum difference {difference} at "
                f"point {point.label} is not divisible by {k0}",
                index=index,
                label=point.label,
            )
        values.append(quotient)
    return BundleWeights(tuple(values))


def first_chern_candidates(n: int) -> tuple[ChernClassCandidate, ...]:
    """Solve 2c^2 - 3(n+1)c + (n+1)^2 = 0 exactly and flag each root.

    A root is admissible when it is an integer of the same parity as n+1
    (the mod-2 class of the first Chern number is fixed by the dimension).
    The larger root n+1 always qualifies; the smaller root (n+1)/2
    qualifies exactly when n = 3 (mod 4).
    """
    n = _check_int(n, "dimension", 1)
    # the discriminant 9(n+1)^2 - 8(n+1)^2 is (n+1)^2, so the roots are
    # (3(n+1) +- (n+1)) / 4
    candidates = []
    for value in (Fraction(n + 1), Fraction(n + 1, 2)):
        if value.denominator != 1:
            admissible, reason = False, "rejected: not an integer"
        elif int(value) % 2 != (n + 1) % 2:
            admissible, reason = False, f"rejected: parity differs from {n + 1} mod 2"
        else:
            admissible, reason = True, f"integer with the same parity as {n + 1}"
        candidates.append(ChernClassCandidate(value, admissible, reason))
    return tuple(candidates)


def hattori_verdict(
    data: FixedPointData, bundle: BundleWeights | None = None
) -> RigidityVerdict:
    """Run the full rigidity pipeline on data with n+1 points.

    Bundle weights are taken from the explicit argument first, then from
    the data's attached bundle, and are otherwise derived from the weight
    sums (which may fail with BundleDerivationError).  The chosen weights
    are normalized so the first one is 0, making the verdict invariant
    under a simultaneous shift of the bundle.
    """
    scale = data.n + 1
    if data.point_count != scale:
        raise ValidationError(
            f"rigidity check needs exactly n + 1 = {scale} points, got "
            f"{data.point_count}"
        )
    if bundle is None:  # data.bundle was checked with the data; a derived one fits
        bundle = data.bundle if data.bundle is not None else derive_bundle_weights(data)
    else:
        _check_bundle(bundle, scale, "BundleWeights or None")
    normalized = bundle.normalized()
    try:
        certificate = check_condition_c(data, normalized, scale)
        violation = None
    except ConditionCError as exc:
        certificate = None
        violation = str(exc)
    values = normalized.values
    mismatches = [
        PointMismatch(point.label, expected, point.weights)
        for point, expected in zip(data.points, _pairwise_differences(values))
        if expected != point.weights
    ]
    # no mismatch means the data is linear_pn(values): its nonzero weights make
    # the a_i distinct, its top power is sum_i a_i^n / prod_{j != i} (a_i - a_j)
    # = 1, and its weight sums (n+1) a_i - sum(a) meet the relation for k0 = n+1
    passes = not mismatches
    if passes:
        bundle_power, quasi_ample = Fraction(1), True
    else:
        bundle_power = localization.line_bundle_power(data, normalized)
        quasi_ample = normalized.pairwise_distinct() and bundle_power != 0
    return RigidityVerdict(
        passes=passes,
        normalized_bundle=values,
        quasi_ample=quasi_ample,
        bundle_power=bundle_power,
        condition_c=certificate,
        condition_c_violation=violation,
        mismatches=tuple(mismatches),
    )
