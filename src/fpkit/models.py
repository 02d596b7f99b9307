"""Generators for the standard linear circle action on projective space,
its invariant hyperplane, and the restriction check tying the two together.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Mapping, Sequence

from .core import (
    BundleWeights,
    FixedPointData,
    FixedPointDatum,
    ValidationError,
)


def linear_pn(values: Sequence[int]) -> FixedPointData:
    """Fixed-point data of the diagonal circle action on projective space.

    Given n+1 pairwise distinct integers, point i gets the weight multiset
    of pairwise differences from entry i to every other entry, and the
    entries themselves are attached as the bundle weights of the induced
    lift on the hyperplane bundle.  Dropping the last entry gives the data
    of the invariant hyperplane, whose fixed points are the first n ones.

    >>> data = linear_pn((0, 1, 3))
    >>> [p.weights for p in data.points]
    [(-3, -1), (-2, 1), (2, 3)]
    >>> data.bundle.values
    (0, 1, 3)
    """
    entries = tuple(values)
    if len(entries) < 2:
        raise ValidationError(
            "dimension must be >= 1: the linear model needs at least two weights, "
            f"got {len(entries)}"
        )
    seen = set()
    for value in entries:
        if value in seen:
            raise ValidationError(
                f"linear model weights must be pairwise distinct, {value} repeats"
            )
        seen.add(value)
    points = tuple(
        FixedPointDatum(
            f"P{i + 1}",
            tuple(a - b for j, b in enumerate(entries) if j != i),
        )
        for i, a in enumerate(entries)
    )
    return FixedPointData(len(entries) - 1, points, BundleWeights(entries))


@dataclasses.dataclass(frozen=True)
class PointRestriction:
    """Restriction outcome at one embedded point.

    ``missing`` lists hypersurface weights absent from the ambient multiset
    (empty when the restriction embeds); ``normal_weight`` is the single
    leftover ambient weight in that case.  ``expected_normal`` carries the
    bundle prediction when the ambient data has bundle weights and exactly
    one ambient point is left out of the embedding.
    """

    label: str
    image: str
    embeds: bool
    missing: tuple[int, ...]
    normal_weight: int | None
    expected_normal: int | None

    @property
    def normal_matches(self) -> bool:
        if not self.embeds:
            return False
        if self.expected_normal is None:
            return True
        return self.normal_weight == self.expected_normal


@dataclasses.dataclass(frozen=True)
class PairRestrictionReport:
    """Per-point restriction verdicts plus the omitted ambient point."""

    passes: bool
    points: tuple[PointRestriction, ...]
    omitted_label: str | None


def pair_restriction_check(
    ambient: FixedPointData,
    hypersurface: FixedPointData,
    embedding: Mapping[str, str] | None = None,
) -> PairRestrictionReport:
    """Check that each hypersurface weight multiset embeds in its ambient one.

    The embedding maps hypersurface labels injectively to ambient labels;
    by default labels are matched identically.  At each embedded point the
    hypersurface weights must form a sub-multiset of the ambient weights,
    leaving a single complementary normal weight.  When the ambient data
    carries bundle weights and exactly one ambient point is unembedded, the
    normal weight at the image of each point is additionally required to
    equal that point's bundle weight minus the omitted point's.

    Structural problems (dimension mismatch, bad embedding) raise; weight
    violations are reported, not raised.
    """
    if hypersurface.n != ambient.n - 1:
        raise ValidationError(
            f"dimension mismatch: hypersurface dimension {hypersurface.n} "
            f"must be one below ambient dimension {ambient.n}"
        )
    ambient_points = {p.label: p for p in ambient.points}
    if embedding is None:
        mapping = {label: label for label in hypersurface.labels}
    else:
        mapping = dict(embedding)
        if set(mapping) != set(hypersurface.labels):
            raise ValidationError(
                "embedding must assign an image to every hypersurface point"
            )
    images = list(mapping.values())
    if len(set(images)) != len(images):
        raise ValidationError("embedding must be injective")
    for image in images:
        if image not in ambient_points:
            raise ValidationError(f"embedding targets unknown ambient point {image!r}")

    omitted = [label for label in ambient.labels if label not in set(images)]
    expected_by_image: dict[str, int] | None = None
    omitted_label = omitted[0] if len(omitted) == 1 else None
    if ambient.bundle is not None and omitted_label is not None:
        bundle_at = dict(zip(ambient.labels, ambient.bundle.values))
        left_out = bundle_at[omitted_label]
        expected_by_image = {label: bundle_at[label] - left_out for label in images}

    rows = []
    for point in hypersurface.points:
        image = ambient_points[mapping[point.label]]
        leftover = Counter(image.weights)
        leftover.subtract(point.weights)
        missing = tuple(
            sorted(w for w, c in leftover.items() if c < 0 for _ in range(-c))
        )
        normal = None
        if not missing:
            extras = [w for w, c in leftover.items() if c > 0 for _ in range(c)]
            normal = extras[0]
        expected = (
            expected_by_image.get(image.label)
            if expected_by_image is not None
            else None
        )
        rows.append(
            PointRestriction(
                label=point.label,
                image=image.label,
                embeds=not missing,
                missing=missing,
                normal_weight=normal,
                expected_normal=expected,
            )
        )
    passes = all(row.normal_matches for row in rows)
    return PairRestrictionReport(passes, tuple(rows), omitted_label)
