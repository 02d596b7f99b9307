"""Generators for the standard linear circle action on projective space,
its invariant hyperplane, and the restriction check tying the two together.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Mapping, Sequence

from .core import FixedPointData, ValidationError, _check_int


def _pairwise_differences(values: Sequence[int]) -> list[tuple[int, ...]]:
    """Row i is a_i - a_j over every j != i, ascending: the values are sorted
    once, descending, and each row drops its one j = i zero (a repeated
    value keeps its other zeros)."""
    order = sorted(values, reverse=True)
    rows = [[a - b for b in order] for a in values]
    for row in rows:
        row.remove(0)
    return [*map(tuple, rows)]


def linear_pn(values: Sequence[int]) -> FixedPointData:
    """Fixed-point data of the diagonal circle action on projective space.

    Given n+1 pairwise distinct integers, point i gets the weights of
    :func:`_pairwise_differences`, entry i minus every other entry, and the
    entries are attached as the bundle weights of the induced lift on the
    hyperplane bundle.  Dropping the last entry gives the data of the
    invariant hyperplane, whose fixed points are the first n ones.

    >>> data = linear_pn((0, 1, 3))
    >>> [p.weights for p in data.points]
    [(-3, -1), (-2, 1), (2, 3)]
    >>> data.bundle
    (0, 1, 3)
    """
    entries = tuple(values)
    if len(entries) < 2:
        raise ValidationError(
            "dimension must be >= 1: the linear model needs at least two weights, "
            f"got {len(entries)}"
        )
    if not ({*map(type, entries)} <= {int} and len(set(entries)) == len(entries)):
        seen: dict[int, None] = {}  # ordered, so the first bad or repeated value is named
        for value in entries:
            value = _check_int(value, "linear model weight")
            if value in seen:
                raise ValidationError(
                    f"linear model weights must be pairwise distinct, {value} repeats"
                )
            seen[value] = None
        entries = tuple(seen)  # the values as exact ints
    return FixedPointData._from_rows(len(entries) - 1, _pairwise_differences(entries), entries)


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


@dataclasses.dataclass(frozen=True)
class PairRestrictionReport:
    """Per-point restriction verdicts plus the omitted ambient point; the
    fields, in order, are those of the ``fpkit pair`` document."""

    passes: bool
    omitted_label: str | None
    points: tuple[PointRestriction, ...]


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
    labels = hypersurface.labels
    mapping = dict(zip(labels, labels) if embedding is None else embedding)
    known = set(labels)
    for source in mapping:
        if source not in known:
            raise ValidationError(f"embedding names unknown hypersurface point {source!r}")
    if len(mapping) != len(known):
        raise ValidationError(
            "embedding must assign an image to every hypersurface point"
        )
    images = list(mapping.values())
    targets = set(images)
    if len(targets) != len(images):
        raise ValidationError("embedding must be injective")
    for image in images:
        if image not in ambient_points:
            raise ValidationError(f"embedding targets unknown ambient point {image!r}")

    omitted = [label for label in ambient.labels if label not in targets]
    omitted_label = omitted[0] if len(omitted) == 1 else None
    bundle_at = None
    if ambient.bundle is not None and omitted_label is not None:
        bundle_at = dict(zip(ambient.labels, ambient.bundle))
        left_out = bundle_at[omitted_label]

    rows = []
    for point in hypersurface.points:
        image = ambient_points[mapping[point.label]]
        missing = tuple(sorted((Counter(point.weights) - Counter(image.weights)).elements()))
        # with nothing missing, the one leftover ambient weight is the sum difference
        normal = None if missing else image.weight_sum - point.weight_sum
        expected = None if bundle_at is None else bundle_at[image.label] - left_out
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
    passes = all(row.embeds and row.expected_normal in (None, row.normal_weight) for row in rows)
    return PairRestrictionReport(passes, omitted_label, tuple(rows))
