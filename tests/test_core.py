import dataclasses
import json
import re
from collections import OrderedDict
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpkit.core import (
    FixedPointData,
    FixedPointDatum,
    ValidationError,
    _read_text,
    betti_numbers,
    dump,
    iter_documents,
    load,
    loads,
    projective_profile,
    serialize,
    to_json,
    validate,
)
from fpkit.models import linear_pn


def weight_multisets(n):
    weight = st.integers(min_value=-9, max_value=9).filter(lambda w: w != 0)
    return st.lists(weight, min_size=n, max_size=n)


@st.composite
def fixed_point_data(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=5))
    points = tuple(
        FixedPointDatum(f"P{i + 1}", tuple(draw(weight_multisets(n))))
        for i in range(m)
    )
    if draw(st.booleans()):
        bundle = tuple(draw(st.integers(min_value=-9, max_value=9)) for _ in range(m))
    else:
        bundle = None
    return FixedPointData(n, points, bundle)


def test_datum_sorts_weights_and_derives_invariants():
    datum = FixedPointDatum("P1", (-1, -3))
    assert datum.weights == (-3, -1)
    assert datum.weight_sum == -4
    assert datum.weight_product == 3
    assert betti_numbers(FixedPointData(2, (datum,))) == (0, 0, 1)


def test_datum_rejects_zero_weight():
    with pytest.raises(ValidationError, match=r'point "P1" \(position 0\)'):
        FixedPointDatum("P1", (0, 3))
    # the position is the one in the sorted weights
    with pytest.raises(ValidationError, match=r'point "P" \(position 1\)'):
        FixedPointDatum("P", (3, 0, -1))


@pytest.mark.parametrize(
    "weights, shown",
    [([1, "a"], "'a'"), ([1, None], "None"), ([1, [2]], "[2]"), ([2, 1.5, "x"], "1.5")],
)
def test_unorderable_weights_name_the_first_non_integer(weights, shown):
    # every weight is checked in input order before sorting, which would
    # raise TypeError on these
    message = re.escape(f'weight of point "P" must be an integer, got {shown}') + "$"
    with pytest.raises(ValidationError, match=message):
        FixedPointDatum("P", weights)
    with pytest.raises(ValidationError, match=message):
        validate({"n": 2, "fixed_points": [{"label": "P", "weights": weights}]})


def _validated_point(label, weights):
    raw = {"n": len(weights), "fixed_points": [{"label": label, "weights": list(weights)}]}
    return validate(raw).points[0]


@pytest.mark.parametrize("build", [FixedPointDatum, _validated_point], ids=["datum", "validate"])
def test_orderable_bad_weights_keep_their_message(build):
    # these sort without error; the first non-integer is still named, and
    # before a zero weight, the same through either constructor
    with pytest.raises(ValidationError, match=r"got 1\.5$"):
        build("P", [2, 1.5])
    with pytest.raises(ValidationError, match=r"got 1\.5$"):
        build("P", [0, 1.5])
    with pytest.raises(ValidationError, match="got True$"):
        build("P", [1, True])
    with pytest.raises(ValidationError, match="point label must be a string, got 7$"):
        build(7, [1, "a"])
    # a zero weight is named by its position in the sorted weights
    with pytest.raises(ValidationError, match=r'^zero weight at point "P" \(position 1\): '):
        build("P", [3, 0, -1])


def test_smallest_linear_document_is_valid():
    raw = {
        "n": 1,
        "fixed_points": [
            {"label": "P1", "weights": [-1]},
            {"label": "P2", "weights": [1]},
        ],
    }
    data = validate(raw)
    assert data.n == 1
    assert data.point_count == 2
    assert data.bundle is None


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ({"fixed_points": []}, 'missing required key "n"'),
        ({"n": 1}, 'missing required key "fixed_points"'),
        (
            {"n": 2, "fixed_points": [{"label": "P1", "weights": [0, 3]}]},
            "zero weight",
        ),
        (
            {"n": 1, "fixed_points": [{"label": "P1", "weights": [1, 2]}]},
            "expected n = 1",
        ),
        (
            {
                "n": 1,
                "fixed_points": [
                    {"label": "P1", "weights": [1]},
                    {"label": "P1", "weights": [2]},
                ],
            },
            "duplicate point label",
        ),
        (
            {
                "n": 1,
                "fixed_points": [{"label": "P1", "weights": [1]}],
                "bundle_weights": [1, 2],
            },
            "bundle weight count 2",
        ),
        (
            {"n": 1, "fixed_points": [{"label": "P1", "weights": [1]}], "x": 0},
            "unknown document keys",
        ),
        # where two checks fail, these pin which one fires first
        (
            {
                "n": 2,
                "fixed_points": [
                    {"label": "A", "weights": [1]},
                    {"label": "B", "weights": [1, 2]},
                    {"label": "C", "weights": [0, 1]},
                ],
            },
            r'^zero weight at point "C" \(position 0\): ',
        ),
        (
            {"n": 0, "fixed_points": [{"label": "A", "weights": [True]}]},
            r'^weight of point "A" must be an integer, got True$',
        ),
        (
            {
                "n": 1,
                "fixed_points": [
                    {"label": "A", "weights": [1]},
                    {"label": "A", "weights": [2]},
                ],
                "bundle_weights": 5,
            },
            r'^"bundle_weights" must be a list of integers$',
        ),
        (
            {"n": 1, "fixed_points": [{"label": "A", "weights": [1], "x": 0}]},
            r"^fixed point at index 0 has unknown keys: \['x'\]$",
        ),
        (
            {"n": 1, "fixed_points": [{"label": "A"}]},
            r'^fixed point at index 0 needs both "label" and "weights"$',
        ),
    ],
)
def test_validate_rejects_bad_documents(raw, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate(raw)


def test_validate_accepts_generated_linear_data():
    doc = json.loads(to_json(linear_pn((0, 1, 3))))
    data = validate(doc)
    assert [p.weights for p in data.points] == [(-3, -1), (-2, 1), (2, 3)]


def test_loads_rejects_malformed_json():
    with pytest.raises(ValidationError, match="malformed JSON"):
        loads("{not json")
    # past Python's integer string conversion limit
    text = '{"n": 1, "fixed_points": [{"label": "A", "weights": [%s]}]}' % ("7" * 5000)
    with pytest.raises(ValidationError, match="malformed JSON"):
        loads(text)
    with pytest.raises(ValidationError, match="malformed JSON"):
        list(iter_documents(text))


def test_a_repeated_key_is_malformed_json():
    # the last value would win silently; the repeated key is named instead,
    # also when it is a nested object's and when its values agree
    for text, key in (
        ('{"n": 1, "n": 2, "fixed_points": [{"label": "A", "weights": [1]}]}', '"n"'),
        ('{"n": 1, "fixed_points": [{"label": "A", "weights": [1], "weights": [1]}]}',
         '"weights"'),
        ('{"n": 1, "fixed_points": [], "\\u00e9": 1, "\\u00e9": 1}', '"\\u00e9"'),
    ):
        message = re.escape(f"malformed JSON document: duplicate key {key}")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            loads(text)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            list(iter_documents(serialize(linear_pn((0, 1))) + text))


def test_serialize_is_canonical_and_newline_terminated():
    data = linear_pn((0, 1))
    text = serialize(data)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == ["n", "fixed_points", "bundle_weights"]
    assert text == serialize(validate(json.loads(text)))


def test_dump_and_load_round_trip(tmp_path):
    data = linear_pn((0, 2, 5))
    path = tmp_path / "data.json"
    dump(data, path)
    assert serialize(load(path)) == serialize(data)


def test_iter_documents_splits_concatenated_streams():
    text = serialize(linear_pn((0, 1, 3))) + serialize(linear_pn((0, 1)))
    docs = list(iter_documents(text))
    assert [doc["n"] for doc in docs] == [2, 1]
    assert all(serialize(validate(doc)) for doc in docs)


def test_betti_numbers_count_negative_weights():
    assert betti_numbers(linear_pn((0, 1, 3))) == (1, 1, 1)
    assert betti_numbers(linear_pn((0, 1))) == (1, 1)
    flat = FixedPointData(
        1, (FixedPointDatum("A", (1,)), FixedPointDatum("B", (2,)))
    )
    assert betti_numbers(flat) == (2, 0)
    assert not projective_profile(flat)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(
            st.lists(st.integers(min_value=-9, max_value=9).filter(bool), min_size=n, max_size=n),
            min_size=1, max_size=6,
        ))
    )
)
def test_betti_numbers_count_each_point_by_its_negative_count(case):
    n, rows = case
    data = FixedPointData(n, tuple(FixedPointDatum(f"P{i}", row) for i, row in enumerate(rows)))
    counts = [0] * (n + 1)
    for point in data.points:
        counts[sum(w < 0 for w in point.weights)] += 1
    assert betti_numbers(data) == tuple(counts)


def test_projective_profile_examples():
    assert projective_profile(linear_pn((0, 1, 3)))
    lopsided = FixedPointData(
        1, (FixedPointDatum("A", (1,)), FixedPointDatum("B", (1,)))
    )
    assert not projective_profile(lopsided)
    three = FixedPointData(1, (*lopsided.points, FixedPointDatum("C", (-1,))))
    assert betti_numbers(three) == (2, 1)
    assert not projective_profile(three)


def test_data_needs_a_fixed_point():
    with pytest.raises(ValidationError, match="^at least one fixed point is required$"):
        FixedPointData(1, ())


def test_data_rejects_points_and_bundles_of_the_wrong_type():
    point = FixedPointDatum("P", [1])
    assert FixedPointData(1, [point], bundle=[0]).bundle == (0,)
    for bundle in (5, "0", {0: 0}):
        shown = re.escape(repr(bundle))
        with pytest.raises(
            ValidationError, match=f"^bundle must be a tuple or a list of integers, got {shown}$"
        ):
            FixedPointData(1, [point], bundle=bundle)
    with pytest.raises(
        ValidationError,
        match=r"^fixed point \(index 0\) must be a FixedPointDatum, got \('P', \(1, 2\)\)$",
    ):
        FixedPointData(2, [("P", (1, 2))])
    with pytest.raises(ValidationError, match=r"\(index 1\) must be a FixedPointDatum, got None$"):
        FixedPointData(1, [point, None])


def test_datum_accepts_int_subclasses():
    class Weight(int):
        pass

    datum = FixedPointDatum("P", [Weight(2), -1, Weight(-3)])
    assert datum.weights == (-3, -1, 2)
    assert betti_numbers(FixedPointData(3, (datum,))) == (0, 0, 1, 0)


class Weight(int):
    pass


def test_int_subclass_values_are_stored_as_int_and_serialize():
    # each constructor that accepts an int subclass keeps an exact int
    datum = FixedPointDatum("A", [Weight(-1)])
    data = FixedPointData(Weight(1), (datum, FixedPointDatum("B", [1])), [Weight(0), 1])
    for leaf in (*datum.weights, *data.bundle, data.n):
        assert type(leaf) is int
    assert loads(serialize(data)) == data
    model = linear_pn([Weight(1), 2, 5])
    assert loads(serialize(model)) == model == linear_pn([1, 2, 5])


def test_load_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + serialize(linear_pn((0, 2, 5))).encode())
    assert load(path) == linear_pn((0, 2, 5))
    # one mark only: the file is decoded as plain UTF-8 and loads skips it
    path.write_bytes(b"\xef\xbb\xbf" * 2 + serialize(linear_pn((0, 2, 5))).encode())
    with pytest.raises(ValidationError, match="malformed JSON"):
        load(path)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    text = serialize(linear_pn((0, 2, 5)))
    path.write_bytes(text.replace('"P1"', '"P\u00e9"').encode("latin-1"))
    with pytest.raises(ValidationError, match=f"^cannot read {re.escape(str(path))}: "):
        load(path)
    # a file that cannot be opened is invalid input too, chained from the OSError
    missing = tmp_path / "missing.json"
    message = f"^cannot read {re.escape(str(missing))}: "
    with pytest.raises(ValidationError, match=message) as caught:
        load(missing)
    assert isinstance(caught.value.__cause__, FileNotFoundError)


def test_dump_rejects_a_path_it_cannot_write(tmp_path):
    # the writer's failure is invalid input too, chained from the OSError
    missing = tmp_path / "missing" / "out.json"
    message = f"^cannot write {re.escape(str(missing))}: "
    with pytest.raises(ValidationError, match=message) as caught:
        dump(linear_pn((0, 2, 5)), missing)
    assert isinstance(caught.value.__cause__, FileNotFoundError)


# pieces of a file: the three line ends, ASCII, and two- to four-byte UTF-8
_PIECES = [b"\n", b"\r", b"\r\n", b"{", b" 1", "\u00e9".encode(), "\u2211".encode(),
           "\U0001d53b".encode()]


@given(st.booleans(), st.lists(st.sampled_from(_PIECES), max_size=40))
def test_the_file_reader_matches_a_text_mode_read(tmp_path_factory, bom, pieces):
    path = tmp_path_factory.getbasetemp() / "reader.txt"
    path.write_bytes(b"\xef\xbb\xbf" * bom + b"".join(pieces))
    with open(path, encoding="utf-8") as handle:
        assert _read_text(path) == handle.read()


@pytest.mark.parametrize(
    "data",
    [
        b'\xff{"n": 1}',
        b'{"n": 1}\r\n\xc3',
        b"1" * 9000 + b"\r\n\xe9 ",  # past the first 8 KB
        ("\u00e9\r" * 3000).encode() + b"\xed\xa0\x80",
    ],
    ids=["first byte", "cut sequence", "past 8 KB", "surrogate after CRs"],
)
def test_the_file_reader_names_a_bad_byte_as_a_text_mode_read(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as caught, open(path, encoding="utf-8") as handle:
        handle.read()
    message = "^" + re.escape(f"cannot read {path}: {caught.value}") + "$"
    with pytest.raises(ValidationError, match=message):
        _read_text(path)
    with pytest.raises(ValidationError, match=message):
        load(path)


def test_validate_accepts_mapping_entries_and_stores_exact_ints():
    entries = [
        MappingProxyType({"label": "A", "weights": [Weight(-1)]}),
        OrderedDict(label="B", weights=[Weight(1)]),
    ]
    data = validate({"n": Weight(1), "fixed_points": entries})
    assert data == FixedPointData(1, (FixedPointDatum("A", [-1]), FixedPointDatum("B", [1])))
    assert all(type(leaf) is int for leaf in (data.n, *data.points[0].weights,
                                              *data.points[1].weights))


def test_strings_skip_one_leading_byte_order_mark():
    text = serialize(linear_pn((0, 2, 5)))
    assert loads("\ufeff" + text) == linear_pn((0, 2, 5))
    assert list(iter_documents("\ufeff" + text + text)) == [json.loads(text)] * 2
    for bad in ("\ufeff\ufeff" + text, text + "\ufeff" + text):
        with pytest.raises(ValidationError, match="malformed JSON"):
            loads(bad)
        with pytest.raises(ValidationError, match="malformed JSON"):
            list(iter_documents(bad))


def test_bundle_weights_name_the_first_bad_value():
    model = linear_pn((0, 1, 3))
    document = json.loads(serialize(model))
    for values, shown in (([0, True, 1.5], "True"), ([0, 1.5, True], r"1\.5"), (["1"], "'1'")):
        message = f"^bundle weight must be an integer, got {shown}$"
        with pytest.raises(ValidationError, match=message):
            FixedPointData(2, model.points, bundle=values)
        with pytest.raises(ValidationError, match=message):
            validate({**document, "bundle_weights": values})
    assert FixedPointData(2, model.points, bundle=[0, Weight(2), 3]).bundle == (0, 2, 3)


@given(st.data())
def test_a_bundle_is_stored_as_a_tuple_of_exact_ints(data):
    # a list or a tuple, some entries an int subclass, builds what _from_rows does
    n = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(st.lists(weight_multisets(n), min_size=1, max_size=5))
    weights = [data.draw(st.integers(min_value=-9, max_value=9)) for _ in rows]
    values = [Weight(a) if data.draw(st.booleans()) else a for a in weights]
    bundle = data.draw(st.sampled_from((list, tuple)))(values)
    points = [FixedPointDatum(f"P{i}", row) for i, row in enumerate(rows, 1)]
    built = FixedPointData(n, points, bundle)
    assert type(built.bundle) is tuple
    assert all(type(a) is int for a in built.bundle)
    generated = FixedPointData._from_rows(n, [tuple(sorted(r)) for r in rows], tuple(weights))
    assert built.bundle == generated.bundle == tuple(weights)
    assert built == generated and hash(built) == hash(generated)
    assert loads(serialize(built)) == built


@given(fixed_point_data())
def test_round_trip_is_idempotent(data):
    text = serialize(data)
    again = validate(json.loads(text))
    assert serialize(again) == text
    assert to_json(data) == text
    assert loads(to_json(data)) == data


def test_to_json_writes_nested_data_as_the_interchange_document():
    with_bundle = linear_pn((0, 1, 3))
    without = FixedPointData(1, (FixedPointDatum("A", [2]),))
    documents = [json.loads(serialize(data)) for data in (with_bundle, without)]
    assert [list(d) for d in documents] == [
        ["n", "fixed_points", "bundle_weights"], ["n", "fixed_points"]
    ]
    assert to_json({"survivors": [with_bundle, without]}) == (
        json.dumps({"survivors": documents}, indent=2) + "\n"
    )


@given(fixed_point_data())
def test_betti_numbers_sum_to_point_count(data):
    assert sum(betti_numbers(data)) == data.point_count
    assert len(betti_numbers(data)) == data.n + 1


# str keys and values: non-ASCII, lone surrogates, quotes, backslashes, control characters
json_text = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\t\né\u2028\ud835\U0001d538') | st.characters()
)
json_ints = st.integers() | st.integers(min_value=-(10**4300) + 1, max_value=10**4300 - 1)
json_leaves = (
    json_text
    | json_ints
    | st.booleans()
    | st.none()
    | st.fractions()
    | st.builds(Fraction, json_ints, st.integers(min_value=1))
)
json_documents = st.recursive(
    json_leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(json_text, children, max_size=4)
    ),
    max_leaves=30,
)


@given(json_documents)
def test_to_json_is_the_stdlib_indented_layout(document):
    assert to_json(document) == json.dumps(document, indent=2, default=str) + "\n"


@pytest.mark.parametrize(
    "value",
    [10**4300, 10**4999, Fraction(10**4999, 3)],
    ids=["4301-digit int", "5000-digit int", "5000-digit fraction"],
)
def test_to_json_refuses_values_past_the_str_limit(value):
    with pytest.raises(ValueError) as stdlib:
        json.dumps({"value": [value]}, indent=2, default=str)
    with pytest.raises(ValidationError) as ours:
        to_json({"value": [value]})
    assert str(ours.value) == f"result cannot be written exactly: {stdlib.value}"


@dataclasses.dataclass(frozen=True)
class _Row:
    label: str
    weights: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class _Result:
    passes: bool
    value: Fraction
    first: _Row
    rows: tuple[_Row, ...]
    note: str | None


def test_to_json_writes_a_dataclass_as_its_fields_in_declaration_order():
    rows = (_Row("P1", (-2, 1)), _Row("P0", ()))
    result = _Result(False, Fraction(-3, 2), rows[1], rows, None)
    fields = {
        "passes": False,
        "value": Fraction(-3, 2),
        "first": {"label": "P0", "weights": ()},
        "rows": [{"label": "P1", "weights": [-2, 1]}, {"label": "P0", "weights": []}],
        "note": None,
    }
    assert to_json(result) == to_json(fields)
    assert to_json({"result": [result]}) == to_json({"result": [fields]})
    assert list(json.loads(to_json(result))) == ["passes", "value", "first", "rows", "note"]


@pytest.mark.parametrize("leaf", [0.5, {1, 2}, object(), _Row])
def test_to_json_refuses_unsupported_leaves(leaf):
    with pytest.raises(TypeError):
        to_json({"value": [leaf]})


def test_stream_documents_are_separated_by_json_whitespace_only():
    text = serialize(linear_pn((0, 2, 5)))
    crlf = text.replace("\n", "\r\n")
    assert list(iter_documents(f" \t{crlf}\r\n{crlf}\n")) == [json.loads(text)] * 2
    for space in ("\u00a0", "\u2028", "\v", "\x1c", "\u3000"):
        for bad in (space + text, text + space, text + space + text):
            with pytest.raises(ValidationError, match="^malformed JSON document: "):
                list(iter_documents(bad))
            with pytest.raises(ValidationError, match="^malformed JSON document: "):
                loads(bad)
