"""Fixed-point data model, validation, derived invariants, and interchange I/O.

The central object is :class:`FixedPointData`: a complex dimension ``n``
together with one multiset of ``n`` nonzero integer weights per isolated
fixed point, optionally aligned with line-bundle weights (one integer per
point, meaningful modulo a simultaneous shift).

All arithmetic downstream of this module is exact; nothing here or below
ever touches floating point.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from .laurent import LaurentPoly


class ValidationError(ValueError):
    """Raised when raw input or constructed data violates a model invariant."""


def _check_int(value: Any, what: str) -> int:
    # bool is an int subclass; reject it explicitly.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class BundleWeights:
    """Line-bundle weights at the fixed points, aligned with the point order.

    Two instances describe the same bundle lift exactly when they differ by
    one simultaneous integer shift; :meth:`equivalent` tests that, and
    :meth:`normalized` picks the representative with first entry zero.
    """

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        object.__setattr__(self, "values", tuple(values))
        for v in self.values:
            _check_int(v, "bundle weight")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __getitem__(self, index: int) -> int:
        return self.values[index]

    def shifted(self, offset: int) -> BundleWeights:
        return BundleWeights(v + offset for v in self.values)

    def normalized(self) -> BundleWeights:
        """The equivalent weight sequence with first entry zero."""
        if not self.values:
            return self
        return self.shifted(-self.values[0])

    def equivalent(self, other: BundleWeights) -> bool:
        """True when the sequences differ by a simultaneous integer shift."""
        if len(self.values) != len(other.values):
            return False
        if not self.values:
            return True
        shift = other.values[0] - self.values[0]
        return all(b == a + shift for a, b in zip(self.values, other.values))

    def pairwise_distinct(self) -> bool:
        return len(set(self.values)) == len(self.values)


@dataclasses.dataclass(frozen=True)
class FixedPointDatum:
    """One isolated fixed point: a label and its multiset of nonzero weights.

    Weights are stored sorted ascending; the input order is not preserved.
    """

    label: str
    weights: tuple[int, ...]

    def __init__(self, label: str, weights: Iterable[int]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "weights", tuple(sorted(weights)))
        if not isinstance(self.label, str):
            raise ValidationError(f"point label must be a string, got {self.label!r}")
        for position, w in enumerate(self.weights):
            _check_int(w, f'weight of point "{self.label}"')
            if w == 0:
                raise ValidationError(
                    f'zero weight at point "{self.label}" (position {position}): '
                    "isolated fixed points have all weights nonzero"
                )

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)

    @property
    def weight_product(self) -> int:
        product = 1
        for w in self.weights:
            product *= w
        return product

    @property
    def negative_count(self) -> int:
        return sum(1 for w in self.weights if w < 0)

    def tangent_character(self) -> LaurentPoly:
        """The tangent space as a virtual representation: sum of t^w over weights."""
        return LaurentPoly.from_exponents(self.weights)


@dataclasses.dataclass(frozen=True)
class FixedPointData:
    """Validated fixed-point data: dimension, points, optional bundle weights."""

    n: int
    points: tuple[FixedPointDatum, ...]
    bundle: BundleWeights | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        _check_int(self.n, "n")
        if self.n < 1:
            raise ValidationError(f"dimension n must be >= 1, got {self.n}")
        if not self.points:
            raise ValidationError("at least one fixed point is required")
        labels = set()
        for index, point in enumerate(self.points):
            if len(point.weights) != self.n:
                raise ValidationError(
                    f'point "{point.label}" (index {index}) has {len(point.weights)} '
                    f"weights, expected n = {self.n}"
                )
            if point.label in labels:
                raise ValidationError(f'duplicate point label "{point.label}"')
            labels.add(point.label)
        if self.bundle is not None and len(self.bundle) != len(self.points):
            raise ValidationError(
                f"bundle weight sequence length {len(self.bundle)} does not match "
                f"point count {len(self.points)}"
            )

    @property
    def point_count(self) -> int:
        return len(self.points)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.points)

    def point(self, label: str) -> FixedPointDatum:
        for p in self.points:
            if p.label == label:
                return p
        raise KeyError(label)

    def with_bundle(self, bundle: BundleWeights | None) -> FixedPointData:
        return FixedPointData(self.n, self.points, bundle)


def validate(raw: Mapping[str, Any]) -> FixedPointData:
    """Parse and validate a raw interchange document.

    Accepts a mapping of the form::

        {"n": 2,
         "fixed_points": [{"label": "P1", "weights": [-3, -1]}, ...],
         "bundle_weights": [0, 1, 3]}        # optional

    Raises :class:`ValidationError` naming the offending point and index on
    any invariant violation.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError(f"document must be a JSON object, got {type(raw).__name__}")
    allowed = {"n", "fixed_points", "bundle_weights"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError(f"unknown document keys: {sorted(unknown)}")
    if "n" not in raw:
        raise ValidationError('missing required key "n"')
    if "fixed_points" not in raw:
        raise ValidationError('missing required key "fixed_points"')
    n = _check_int(raw["n"], '"n"')
    entries = raw["fixed_points"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError('"fixed_points" must be a non-empty list')
    points = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ValidationError(f"fixed point at index {index} must be an object")
        extra = set(entry) - {"label", "weights"}
        if extra:
            raise ValidationError(
                f"fixed point at index {index} has unknown keys: {sorted(extra)}"
            )
        if "label" not in entry or "weights" not in entry:
            raise ValidationError(
                f'fixed point at index {index} needs both "label" and "weights"'
            )
        if not isinstance(entry["weights"], list):
            raise ValidationError(f'"weights" of fixed point at index {index} must be a list')
        points.append(FixedPointDatum(entry["label"], entry["weights"]))
    bundle = None
    if "bundle_weights" in raw:
        if not isinstance(raw["bundle_weights"], list):
            raise ValidationError('"bundle_weights" must be a list of integers')
        bundle = BundleWeights(raw["bundle_weights"])
    return FixedPointData(n, tuple(points), bundle)


def loads(text: str) -> FixedPointData:
    """Validate a JSON interchange document given as a string."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer past the str conversion limit
        raise ValidationError(f"malformed JSON document: {exc}") from exc
    return validate(raw)


def load(path) -> FixedPointData:
    """Validate the JSON interchange document at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def to_document(data: FixedPointData) -> dict[str, Any]:
    """The canonical plain-dict form of the interchange document."""
    document: dict[str, Any] = {
        "n": data.n,
        "fixed_points": [
            {"label": p.label, "weights": list(p.weights)} for p in data.points
        ],
    }
    if data.bundle is not None:
        document["bundle_weights"] = list(data.bundle.values)
    return document


def serialize(data: FixedPointData) -> str:
    """Canonical serialization: fixed key order, weights ascending,
    two-space indentation, newline-terminated."""
    return json.dumps(to_document(data), indent=2) + "\n"


def dump(data: FixedPointData, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(data))


def iter_documents(text: str) -> Iterator[dict[str, Any]]:
    """Iterate over a stream of concatenated JSON documents.

    Survivor streams are emitted as canonical documents one after another;
    this walks the stream with an incremental decoder.
    """
    decoder = json.JSONDecoder()
    position = 0
    length = len(text)
    while position < length:
        while position < length and text[position].isspace():
            position += 1
        if position >= length:
            return
        try:
            document, position = decoder.raw_decode(text, position)
        except ValueError as exc:  # also an integer past the str conversion limit
            raise ValidationError(f"malformed JSON document: {exc}") from exc
        yield document


def betti_numbers(data: FixedPointData) -> tuple[int, ...]:
    """Even Betti numbers b_0, b_2, ..., b_2n.

    b_{2p} counts the fixed points with exactly p negative weights; the
    entries always sum to the number of fixed points.
    """
    counts = [0] * (data.n + 1)
    for p in data.points:
        counts[p.negative_count] += 1
    return tuple(counts)


def projective_profile(data: FixedPointData) -> bool:
    """True when the data has n+1 points whose negative-weight counts are a
    permutation of 0..n (the Betti profile of the standard model)."""
    if data.point_count != data.n + 1:
        return False
    return sorted(p.negative_count for p in data.points) == list(range(data.n + 1))
