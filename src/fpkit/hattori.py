"""Certification of rigidity hypotheses and conclusions.

:func:`hattori_verdict` decides, from fixed-point data alone, whether the
hypotheses of Hattori's rigidity theorem hold (an affine relation between
weight sums and line-bundle weights; quasi-ampleness: pairwise distinct
bundle weights with a nonvanishing top power; and an integral top power, as
every line bundle on a closed manifold has) and whether the advertised
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
from .core import FixedPointData, ValidationError, _check_int
from .models import _pairwise_differences


class BundleDerivationError(ValueError):
    """Bundle weights cannot be recovered from the weight sums because some
    pairwise difference is not divisible by k0."""


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
    verdict localizes everything that went wrong.  ``hypothesis_failure``
    names the first failing hypothesis, or is None; a bundle that cannot be
    derived fails condition C, with None in the bundle fields.  The fields,
    in order, are those of the ``fpkit hattori`` document.
    """

    passes: bool
    normalized_bundle: tuple[int, ...] | None
    quasi_ample: bool
    bundle_power: Fraction | None
    condition_c: ConditionCCertificate | None
    condition_c_violation: str | None
    mismatches: tuple[PointMismatch, ...] | None
    hypothesis_failure: str | None


@dataclasses.dataclass(frozen=True)
class ChernClassCandidate:
    """A root of the quadratic constraining the top power of the first
    Chern class, with its admissibility under integrality and parity."""

    value: Fraction
    admissible: bool
    reason: str


def _scale(data: FixedPointData, task: str) -> int:
    """n + 1, which ``task`` needs as the point count of ``data``."""
    if data.point_count != data.n + 1:
        raise ValidationError(
            f"{task} needs exactly n + 1 = {data.n + 1} points, got {data.point_count}"
        )
    return data.n + 1


def derive_bundle_weights(data: FixedPointData, k0: int | None = None) -> tuple[int, ...]:
    """Invert the affine relation weight_sum_i = k0 * a_i + offset on data
    with n+1 points: the bundle weights a_i as a tuple of ints, the first
    normalized to 0.

    ``k0`` defaults to n+1.  Every weight-sum difference from the first point
    must be divisible by k0; for the default, the verdict's condition C then
    holds on the result by construction.  For k0 = 0 the relation is
    solvable exactly when all weight sums agree, with the witness a_i = 0.
    """
    scale = _scale(data, "bundle derivation")
    k0 = scale if k0 is None else _check_int(k0, "k0", 0)
    base = data.points[0].weight_sum
    values = []
    for point in data.points:
        difference = point.weight_sum - base
        quotient, remainder = divmod(difference, k0) if k0 else (0, difference)
        if remainder:
            raise BundleDerivationError(
                f"bundle derivation failed: weight-sum difference {difference} at "
                f"point {point.label} is not divisible by {k0}"
            )
        values.append(quotient)
    return tuple(values)


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


def hattori_verdict(data: FixedPointData) -> RigidityVerdict:
    """Run the full rigidity pipeline on data with n+1 points.

    Bundle weights are the data's attached bundle, and are otherwise derived
    from the weight sums; to judge another bundle, attach it with
    ``dataclasses.replace(data, bundle=...)``.  The weights are normalized so
    the first one is 0, making the verdict invariant under a simultaneous
    shift of the bundle.  Only a wrong point count raises.
    """
    scale = _scale(data, "rigidity check")
    # data.bundle was checked with the data; a derived one fits
    bundle, source = data.bundle, "attached"
    if bundle is None:
        try:
            bundle, source = derive_bundle_weights(data), "derived"
        except BundleDerivationError as exc:
            return RigidityVerdict(False, None, False, None, None, str(exc), None, str(exc))
    values = tuple([a - bundle[0] for a in bundle])
    # condition C for k0 = n+1: as the first normalized weight is 0, the first
    # point pins the offset to its weight sum
    offset = data.points[0].weight_sum
    for point, a in zip(data.points, values):
        if point.weight_sum != scale * a + offset:
            certificate, violation = None, (
                f"point {point.label} breaks the affine relation: weight sum "
                f"{point.weight_sum} != {scale} * {a} + {offset}"
            )
            break
    else:
        certificate, violation = ConditionCCertificate(scale, offset), None
    mismatches = [
        PointMismatch(point.label, expected, point.weights)
        for point, expected in zip(data.points, _pairwise_differences(values))
        if expected != point.weights
    ]
    # no mismatch means the data is linear_pn(values): its nonzero weights make
    # the a_i distinct, its top power is sum_i a_i^n / prod_{j != i} (a_i - a_j)
    # = 1, and its weight sums (n+1) a_i - sum(a) meet the relation for k0 = n+1
    passes, distinct = not mismatches, len(set(values)) == len(values)
    bundle_power = Fraction(1) if passes else localization.line_bundle_power(data, values)
    quasi_ample = distinct and bundle_power != 0
    # the hypotheses in order, each with the reason it fails
    ladder = (
        (violation is None, violation),
        (distinct, f"{source} bundle weights are not pairwise distinct"),
        (bundle_power != 0, f"top power of the {source} bundle vanishes"),
        (bundle_power.denominator == 1, f"top power of the {source} bundle is not an integer"),
    )
    failure = next((reason for holds, reason in ladder if not holds), None)
    return RigidityVerdict(
        passes=passes,
        normalized_bundle=values,
        quasi_ample=quasi_ample,
        bundle_power=bundle_power,
        condition_c=certificate,
        condition_c_violation=violation,
        mismatches=tuple(mismatches),
        hypothesis_failure=failure,
    )
