"""Fixed-point data model, validation, derived invariants, and interchange I/O.

The central object is :class:`FixedPointData`: a complex dimension ``n``
together with one multiset of ``n`` nonzero integer weights per isolated
fixed point, optionally aligned with line-bundle weights (one integer per
point, meaningful modulo a simultaneous shift).

All arithmetic downstream of this module is exact; nothing here or below
ever touches floating point.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import operator
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from json.decoder import WHITESPACE as _WHITESPACE
from json.encoder import encode_basestring_ascii as _string
from math import lcm, prod
from typing import Any


class ValidationError(ValueError):
    """Raised when raw input or constructed data violates a model invariant."""


_KIND = {None: "an", 0: "a nonnegative", 1: "a positive"}


def _check_int(value: Any, what: str, minimum: int | None = None) -> int:
    """The one integer check: ``value`` is an int, not a bool (an int
    subclass), and at least ``minimum`` (None, 0 or 1) when that is given;
    returns it as an exact int, so any other int subclass is stored as int."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        raise ValidationError(f"{what} must be {_KIND[minimum]} integer, got {value!r}")
    return operator.index(value)


@dataclasses.dataclass(frozen=True)
class BundleWeights:
    """Line-bundle weights at the fixed points, aligned with the point order.

    Two instances describe the same bundle lift exactly when they differ by
    one simultaneous integer shift; :meth:`normalized` picks the
    representative with first entry zero.
    """

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        object.__setattr__(self, "values", tuple(values))
        if not {*map(type, self.values)} <= {int}:
            # in input order, so the first bad one is named
            values = tuple([_check_int(v, "bundle weight") for v in self.values])
            object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def normalized(self) -> BundleWeights:
        """The equivalent weight sequence with first entry zero."""
        if not self.values:
            return self
        return BundleWeights(v - self.values[0] for v in self.values)

    def pairwise_distinct(self) -> bool:
        return len(set(self.values)) == len(self.values)


def _check_bundle(bundle: Any, count: int, kind: str = "BundleWeights") -> None:
    """The one bundle-argument check: ``bundle`` is a :class:`BundleWeights`
    holding ``count`` weights, one per point."""
    if not isinstance(bundle, BundleWeights):
        raise ValidationError(f"bundle must be {kind}, got {bundle!r}")
    if len(bundle) != count:
        raise ValidationError(
            f"bundle weight count {len(bundle)} does not match point count {count}"
        )


def _row(label: Any, weights: Iterable[Any]) -> tuple[int, ...]:
    """The one check of a point: a string label and nonzero integer weights,
    returned sorted ascending as exact ints; a zero is named by that order."""
    if not isinstance(label, str):
        raise ValidationError(f"point label must be a string, got {label!r}")
    weights = weights if type(weights) is list else tuple(weights)  # iterated twice
    if not {*map(type, weights)} <= {int}:
        # checked in input order, so the first non-integer given is named
        what = f'weight of point "{label}"'
        weights = [_check_int(w, what) for w in weights]
    row = tuple(sorted(weights))
    zero = bisect.bisect_left(row, 0)
    if zero < len(row) and row[zero] == 0:
        raise ValidationError(
            f'zero weight at point "{label}" (position {zero}): '
            "isolated fixed points have all weights nonzero"
        )
    return row


@dataclasses.dataclass(frozen=True)
class FixedPointDatum:
    """One isolated fixed point: a label and its multiset of nonzero weights.

    Weights are stored sorted ascending; the input order is not preserved.
    """

    label: str
    weights: tuple[int, ...]

    def __init__(self, label: str, weights: Iterable[int]):
        object.__setattr__(self, "weights", _row(label, weights))
        object.__setattr__(self, "label", label)

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)

    @property
    def weight_product(self) -> int:
        return prod(self.weights)


@dataclasses.dataclass(frozen=True)
class FixedPointData:
    """Validated fixed-point data: dimension, points, optional bundle weights."""

    n: int
    points: tuple[FixedPointDatum, ...]
    bundle: BundleWeights | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if type(self.n) is not int:
            object.__setattr__(self, "n", _check_int(self.n, "n"))
        if self.n < 1:
            raise ValidationError(f"dimension n must be >= 1, got {self.n}")
        if not self.points:
            raise ValidationError("at least one fixed point is required")
        labels = set()
        for index, point in enumerate(self.points):
            if not isinstance(point, FixedPointDatum):
                raise ValidationError(
                    f"fixed point (index {index}) must be a FixedPointDatum, got {point!r}"
                )
            if len(point.weights) != self.n:
                raise ValidationError(
                    f'point "{point.label}" (index {index}) has {len(point.weights)} '
                    f"weights, expected n = {self.n}"
                )
            if point.label in labels:
                raise ValidationError(f'duplicate point label "{point.label}"')
            labels.add(point.label)
        if self.bundle is not None:
            _check_bundle(self.bundle, len(self.points), "BundleWeights or None")

    @classmethod
    def _from_rows(cls, n: int, rows: Iterable[tuple[int, ...]], bundle=None) -> FixedPointData:
        """Data the package generates itself, built without the input checks.

        The caller guarantees that ``n`` is an exact int, that each row is a
        tuple of exactly ``n`` exact ints, ascending and nonzero, and that
        ``bundle`` is None or a :class:`BundleWeights` with one weight per
        row.  Points are labelled P1, P2, ...; the result equals, and hashes
        like, the validated build.
        """
        new, put = object.__new__, object.__setattr__  # as __init__ does: no dict per point
        points = []
        for i, row in enumerate(rows, 1):
            point = new(FixedPointDatum)
            put(point, "label", f"P{i}")
            put(point, "weights", row)
            points.append(point)
        data = new(cls)
        put(data, "n", n)
        put(data, "points", tuple(points))
        put(data, "bundle", bundle)
        return data

    @property
    def point_count(self) -> int:
        return len(self.points)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.points)

    @property
    def common_denominator(self) -> tuple[int, tuple[int, ...]]:
        """The lcm of the weight products and the signed cofactors lcm // e_i,
        computed on first use and kept, since the instance is frozen."""
        # a plain memo: before Python 3.12 functools.cached_property locks on
        # each first access, which the search pays once per candidate
        memo = self.__dict__.get("_common_denominator")
        if memo is None:
            products = [p.weight_product for p in self.points]
            denominator = lcm(*products)
            memo = denominator, tuple([denominator // e for e in products])
            self.__dict__["_common_denominator"] = memo
        return memo


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
    new, put = object.__new__, object.__setattr__  # each point is checked once, by _row
    points = []
    for index, entry in enumerate(entries):
        if type(entry) is not dict and not isinstance(entry, Mapping):
            raise ValidationError(f"fixed point at index {index} must be an object")
        if len(entry) != 2 or "label" not in entry or "weights" not in entry:
            if extra := set(entry) - {"label", "weights"}:
                raise ValidationError(
                    f"fixed point at index {index} has unknown keys: {sorted(extra)}"
                )
            raise ValidationError(
                f'fixed point at index {index} needs both "label" and "weights"'
            )
        label, weights = entry["label"], entry["weights"]
        if not isinstance(weights, list):
            raise ValidationError(f'"weights" of fixed point at index {index} must be a list')
        point = new(FixedPointDatum)
        put(point, "weights", _row(label, weights))
        put(point, "label", label)
        points.append(point)
    bundle = None
    if "bundle_weights" in raw:
        if not isinstance(raw["bundle_weights"], list):
            raise ValidationError('"bundle_weights" must be a list of integers')
        bundle = BundleWeights(raw["bundle_weights"])
    return FixedPointData(n, tuple(points), bundle)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """Build a decoded JSON object, rejecting one that repeats a key (which
    plain decoding would settle silently by keeping the last value)."""
    document = dict(pairs)
    if len(document) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {_string(key)}")
            seen.add(key)
    return document


# the one decoder of interchange documents, shared by loads and iter_documents
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _decoded(decode, *args) -> Any:
    """``decode(*args)``, raising ValidationError for a malformed document."""
    try:
        return decode(*args)
    except (ValueError, RecursionError) as exc:  # also too long an int, too deep a nesting
        raise ValidationError(f"malformed JSON document: {exc}") from exc


def loads(text: str) -> FixedPointData:
    """Validate a JSON interchange document given as a string.

    One leading byte-order mark (U+FEFF) is skipped.
    """
    return validate(_decoded(_DECODER.decode, text.removeprefix("\ufeff")))


def _read_text(path) -> str:
    """The one file reader: what ``open(path, encoding="utf-8").read()`` returns
    (CR and CRLF line ends read as LF), from one raw read and one decode."""
    with open(path, "rb", buffering=0) as handle:
        try:
            text = handle.readall().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load(path) -> FixedPointData:
    """Validate the JSON interchange document at ``path``.

    A file that is not UTF-8 raises ValidationError, as a malformed document
    does; a file that cannot be opened raises OSError.
    """
    return loads(_read_text(path))  # loads skips a leading BOM


def _write(value: Any, newline: str) -> str:
    """``json.dumps(value, indent=2, default=str)`` at the level ``newline``;
    FixedPointData as its document, other dataclasses as dicts of their fields."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str or kind is Fraction:  # a Fraction as its string, like "3/2"
        return _string(str(value))
    if kind is list or kind is tuple:
        inner = newline + "  "
        items = [_write(item, inner) for item in value]
        return "[" + inner + f",{inner}".join(items) + newline + "]" if items else "[]"
    if kind is dict:
        inner = newline + "  "
        items = [_string(k) + ": " + _write(v, inner) for k, v in value.items()]
        return "{" + inner + f",{inner}".join(items) + newline + "}" if items else "{}"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is FixedPointData:  # as the interchange document that loads reads
        points = [{"label": p.label, "weights": p.weights} for p in value.points]
        document = {"n": value.n, "fixed_points": points}
        if value.bundle is not None:
            document["bundle_weights"] = value.bundle.values
        return _write(document, newline)
    if dataclasses.is_dataclass(kind):  # a result as its fields, in declaration order
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return _write(fields, newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def to_json(document: Any) -> str:
    """The one JSON writer: two-space indentation, newline-terminated, exact
    rationals as fraction strings, from dicts with str keys, lists, tuples,
    str, int, bool, None, Fraction, :class:`FixedPointData` (as the document
    that :func:`loads` reads) and other dataclasses, written as dicts of their
    fields in declaration order; other types raise TypeError.
    Raises :class:`ValidationError` when an integer is too long to write."""
    try:
        return _write(document, "\n") + "\n"
    except ValueError as exc:  # an integer past the str conversion limit
        raise ValidationError(f"result cannot be written exactly: {exc}") from exc


def serialize(data: FixedPointData) -> str:
    """Canonical serialization: fixed key order, weights ascending,
    two-space indentation, newline-terminated."""
    return to_json(data)


def dump(data: FixedPointData, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(data))


def iter_documents(text: str) -> Iterator[dict[str, Any]]:
    """Iterate over a stream of concatenated JSON documents.

    Survivor streams are emitted as canonical documents one after another;
    this walks the stream with an incremental decoder.  Documents are
    separated by JSON whitespace only (space, tab, CR, LF), as inside a
    document.  One leading byte-order mark (U+FEFF) is skipped; one later
    in the stream is malformed.
    """
    position = 1 if text.startswith("\ufeff") else 0
    while (position := _WHITESPACE.match(text, position).end()) < len(text):
        document, position = _decoded(_DECODER.raw_decode, text, position)
        yield document


def betti_numbers(data: FixedPointData) -> tuple[int, ...]:
    """Even Betti numbers b_0, b_2, ..., b_2n.

    b_{2p} counts the fixed points with exactly p negative weights; the
    entries always sum to the number of fixed points.
    """
    counts, negatives = [0] * (data.n + 1), bisect.bisect_left
    for p in data.points:
        counts[negatives(p.weights, 0)] += 1  # the number of negative weights
    return tuple(counts)


def projective_profile(data: FixedPointData) -> bool:
    """True when the data has n+1 points whose negative-weight counts are a
    permutation of 0..n (the Betti profile of the standard model)."""
    return betti_numbers(data) == (1,) * (data.n + 1)
