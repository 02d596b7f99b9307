import dataclasses
import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

from fpkit.cli import build_parser, main
from fpkit.core import (
    BundleWeights,
    FixedPointData,
    FixedPointDatum,
    ValidationError,
    dump,
    iter_documents,
    serialize,
    validate,
)
from fpkit.hattori import first_chern_candidates, hattori_verdict
from fpkit.models import linear_pn, pair_restriction_check
from fpkit.search import RigidityExperiment


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    dump(linear_pn((0, 1, 3)), path)
    return str(path)


@pytest.fixture
def hyperplane_file(tmp_path):
    path = tmp_path / "hyperplane.json"
    dump(linear_pn((0, 1)), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_echoes_canonical_form(capsys, model_file):
    code, out, err = run(capsys, "validate", model_file)
    assert code == 0
    assert out == serialize(linear_pn((0, 1, 3)))
    assert err == ""


def test_validate_rejects_zero_weight(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"n": 2, "fixed_points": [{"label": "P1", "weights": [0, 3]}]}
        )
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "P1" in err and "position 0" in err


def test_validate_rejects_missing_dimension(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"fixed_points": []}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert '"n"' in err


def test_report_reference_values(capsys, model_file):
    code, out, _ = run(capsys, "report", model_file)
    assert code == 0
    document = json.loads(out)
    assert document["schema_version"] == "1"
    assert document["betti"] == [1, 1, 1]
    assert document["projective_profile"] is True
    assert document["residue_sums"] == ["0", "0", "9"]
    assert document["c1_power"] == "9"
    assert document["chi_y"]["text"] == "1 - y + y^2"
    assert document["chi_y"]["coefficients"] == {"0": 1, "1": -1, "2": 1}
    assert document["k_coefficients"] == [3, -3, 1]
    assert document["c1cn1"] == 9


def test_report_on_inconsistent_data_still_reports(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(
        json.dumps(
            {
                "n": 1,
                "fixed_points": [
                    {"label": "A", "weights": [1]},
                    {"label": "B", "weights": [1]},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "report", str(path))
    assert code == 0
    document = json.loads(out)
    assert document["residue_sums"][0] != "0"
    assert document["projective_profile"] is False


def test_hattori_pass_and_fail(capsys, model_file, tmp_path):
    code, out, _ = run(capsys, "hattori", model_file)
    assert code == 0
    assert json.loads(out)["passes"] is True

    doc = json.loads(serialize(linear_pn((0, 1, 3))))
    doc["fixed_points"][2]["weights"] = [3, 1]
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "hattori", str(perturbed))
    assert code == 1
    document = json.loads(out)
    assert document["passes"] is False
    assert [m["label"] for m in document["mismatches"]] == ["P3"]


def test_hattori_underivable_bundle_is_semantic_failure(capsys, tmp_path):
    path = tmp_path / "underivable.json"
    path.write_text(
        json.dumps(
            {
                "n": 1,
                "fixed_points": [
                    {"label": "A", "weights": [1]},
                    {"label": "B", "weights": [2]},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "hattori", str(path))
    assert code == 1
    assert json.loads(out)["passes"] is False


def test_hattori_wrong_point_count_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(
        json.dumps({"n": 2, "fixed_points": [{"label": "A", "weights": [1, 2]}]})
    )
    code, _, err = run(capsys, "hattori", str(path))
    assert code == 2
    assert "n + 1" in err


def test_model_emits_canonical_document(capsys):
    code, out, _ = run(capsys, "model", "--weights", "0,1,3")
    assert code == 0
    assert out == serialize(linear_pn((0, 1, 3)))


def test_model_hyperplane_drops_last_weight(capsys):
    code, out, _ = run(capsys, "model", "--weights", "0,1,3", "--hyperplane")
    assert code == 0
    assert out == serialize(linear_pn((0, 1)))


def test_model_dimension_cross_check(capsys):
    code, _, err = run(capsys, "model", "--weights", "0,1,3", "--n", "3")
    assert code == 2
    assert "disagrees" in err
    code, out, _ = run(capsys, "model", "--weights", "0,1,3", "--n", "2")
    assert code == 0 and out


def test_model_rejects_repeated_weights(capsys):
    code, _, err = run(capsys, "model", "--weights", "0,1,1")
    assert code == 2
    assert "repeats" in err
    # the dropped last weight is checked too
    code, out, err = run(capsys, "model", "--weights", "0,1,1", "--hyperplane")
    assert code == 2
    assert out == ""
    assert "repeats" in err


def test_model_hyperplane_needs_three_ambient_weights(capsys):
    code, out, err = run(capsys, "model", "--weights=1,2", "--hyperplane")
    assert code == 2
    assert out == ""
    assert err == (
        "error: --hyperplane needs at least three ambient weights, since the "
        "hyperplane of P^1 has dimension 0; got 2\n"
    )


def test_model_writes_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "model", "--weights", "0,1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == serialize(linear_pn((0, 1)))


def test_pair_pass_fail_and_invalid(capsys, model_file, hyperplane_file, tmp_path):
    code, out, _ = run(capsys, "pair", model_file, hyperplane_file)
    assert code == 0
    document = json.loads(out)
    assert document["passes"] is True
    assert document["omitted_label"] == "P3"
    assert [row["normal_weight"] for row in document["points"]] == [-3, -2]

    altered = tmp_path / "altered.json"
    altered.write_text(
        json.dumps(
            {
                "n": 1,
                "fixed_points": [
                    {"label": "P1", "weights": [2]},
                    {"label": "P2", "weights": [1]},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "pair", model_file, str(altered))
    assert code == 1
    assert json.loads(out)["passes"] is False

    code, _, err = run(capsys, "pair", model_file, model_file)
    assert code == 2
    assert "dimension mismatch" in err


def test_pair_fails_on_a_normal_weight_off_the_bundle_prediction(
    capsys, hyperplane_file, tmp_path
):
    # every point embeds, but the bundle (0, 2, 3) predicts the normal 2 - 3 at P2, not -2
    ambient = FixedPointData(2, linear_pn((0, 1, 3)).points, BundleWeights((0, 2, 3)))
    report = pair_restriction_check(ambient, linear_pn((0, 1)))
    assert not report.passes and report.omitted_label == "P3"
    assert [row.embeds for row in report.points] == [True, True]
    assert [row.normal_weight for row in report.points] == [-3, -2]
    assert [row.expected_normal for row in report.points] == [-3, -1]
    ambient_file = tmp_path / "skewed.json"
    dump(ambient, ambient_file)
    code, out, _ = run(capsys, "pair", str(ambient_file), hyperplane_file)
    assert code == 1 and json.loads(out)["passes"] is False

    # with two ambient points left out, nothing is predicted
    single = tmp_path / "single.json"
    dump(FixedPointData(1, (FixedPointDatum("P1", (-1,)),)), single)
    code, out, _ = run(capsys, "pair", str(ambient_file), str(single))
    document = json.loads(out)
    assert code == 0 and document["passes"] is True
    assert document["omitted_label"] is None
    assert [row["expected_normal"] for row in document["points"]] == [None]


def test_pair_with_default_labels_names_a_missing_ambient_label(capsys, model_file, tmp_path):
    lettered = FixedPointData(1, (FixedPointDatum("A", (-1,)), FixedPointDatum("B", (1,))))
    message = "embedding targets unknown ambient point 'A'"
    with pytest.raises(ValidationError) as raised:
        pair_restriction_check(linear_pn((0, 1, 3)), lettered)
    assert str(raised.value) == message
    dump(lettered, tmp_path / "lettered.json")
    assert run(capsys, "pair", model_file, str(tmp_path / "lettered.json")) == (
        2, "", f"error: {message}\n"
    )


@pytest.mark.parametrize("command", ["validate", "report", "hattori", "pair"])
def test_commands_skip_a_byte_order_mark(capsys, model_file, hyperplane_file, tmp_path, command):
    marked = {}
    for name, path in (("model", model_file), ("hyperplane", hyperplane_file)):
        marked[name] = tmp_path / f"bom-{name}.json"
        marked[name].write_bytes(b"\xef\xbb\xbf" + pathlib.Path(path).read_bytes())
    plain_args = [model_file, hyperplane_file] if command == "pair" else [model_file]
    bom_args = [str(marked["model"]), str(marked["hyperplane"])][: len(plain_args)]
    expected = run(capsys, command, *plain_args)
    code, out, err = run(capsys, command, *bom_args)
    assert (code, out, err) == expected and code == 0
    assert not out.startswith("\ufeff")


def test_pair_explicit_embedding(capsys, model_file, tmp_path):
    renamed = tmp_path / "renamed.json"
    renamed.write_text(
        json.dumps(
            {
                "n": 1,
                "fixed_points": [
                    {"label": "A", "weights": [-1]},
                    {"label": "B", "weights": [1]},
                ],
            }
        )
    )
    code, out, _ = run(
        capsys, "pair", model_file, str(renamed), "--embedding", "A=P1,B=P2"
    )
    assert code == 0
    assert json.loads(out)["passes"] is True

    code, _, err = run(
        capsys, "pair", model_file, str(renamed), "--embedding", "A=P1"
    )
    assert code == 2


def test_search_report_and_stream(capsys, tmp_path):
    stream_path = tmp_path / "survivors.jsonl"
    code, out, _ = run(
        capsys,
        "search",
        "--n",
        "1",
        "--bound",
        "3",
        "--output",
        str(stream_path),
    )
    assert code == 0
    document = json.loads(out)
    assert document["survivor_count"] == 3
    assert document["counterexample_count"] == 0
    assert document["matches"] == [[[-3], [3]], [[-2], [2]], [[-1], [1]]]

    docs = [validate(doc) for doc in iter_documents(stream_path.read_text())]
    assert [[list(p.weights) for p in d.points] for d in docs] == document["matches"]


def test_search_condition_c_flags(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--n",
        "1",
        "--bound",
        "3",
        "--require-condition-c",
        "--k0",
        "2",
    )
    assert code == 0
    document = json.loads(out)
    assert document["k0"] == "2"
    assert document["survivor_count"] == 3

    # k0 = p/q keeps what k0 = p keeps
    kept = {}
    for k0 in ("3/2", "3"):
        code, out, _ = run(
            capsys, "search", "--n", "2", "--bound", "2", "--require-condition-c",
            "--k0", k0,
        )
        assert code == 0
        document = json.loads(out)
        kept[k0] = document["survivor_count"], document["matches"]
    assert kept["3/2"][0] == 1
    assert kept["3/2"] == kept["3"]


def test_search_respects_leaf_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("FPKIT_MAX_LEAVES", "10")
    code, _, err = run(capsys, "search", "--n", "2", "--bound", "4")
    assert code == 2
    assert "raise max_leaves" in err
    monkeypatch.setenv("FPKIT_MAX_LEAVES", "not-a-number")
    code, _, err = run(capsys, "search", "--n", "1", "--bound", "2")
    assert code == 2
    assert "FPKIT_MAX_LEAVES" in err


@pytest.mark.parametrize(
    "n, bound",
    [("7200", "1"), ("2", "1" + "0" * 800), ("1000000", "1")],
    ids=["n-7200", "bound-801-digits", "n-1000000"],
)
def test_search_past_the_leaf_budget_exits_quickly(capsys, monkeypatch, n, bound):
    monkeypatch.delenv("FPKIT_MAX_LEAVES", raising=False)
    started = time.perf_counter()
    code, out, err = run(capsys, "search", "--n", n, "--bound", bound)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert "raise max_leaves" in err


@pytest.mark.parametrize("k0", ["1e3000000", "1.5", "3/0", "x"])
def test_search_k0_accepts_only_integers_and_fractions(capsys, k0):
    code, out, err = run(
        capsys, "search", "--n", "2", "--bound", "2", "--require-condition-c", "--k0", k0
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: k0 must be an integer or fraction")


def test_survivor_stream_reads_back_through_validate_and_report(capsys, tmp_path):
    stream_path = tmp_path / "survivors.json"
    code, out, _ = run(
        capsys, "search", "--n", "2", "--bound", "3", "--output", str(stream_path)
    )
    assert code == 0
    survivors = [validate(doc) for doc in iter_documents(stream_path.read_text())]
    assert len(survivors) == json.loads(out)["survivor_count"] > 1

    code, out, err = run(capsys, "validate", str(stream_path))
    assert (code, err) == (0, "")
    assert out == stream_path.read_text()

    code, out, err = run(capsys, "report", str(stream_path))
    assert (code, err) == (0, "")
    single = tmp_path / "single.json"
    reports = []
    for data in survivors:
        dump(data, single)
        reports.append(run(capsys, "report", str(single))[1])
    assert out == "".join(reports)


def test_empty_stream_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(" \n")
    for command in ("validate", "report"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")


@pytest.mark.parametrize("weights", [[1, "a"], [1, None], [1, [2]]])
def test_non_integer_weights_are_invalid_input(capsys, tmp_path, weights):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"n": 2, "fixed_points": [{"label": "P", "weights": weights}]})
    )
    for command in ("validate", "report"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith('error: weight of point "P" must be an integer, got ')


def test_oversized_integers_are_invalid_input(capsys, tmp_path):
    # a weight past Python's integer string conversion limit
    path = tmp_path / "huge-weight.json"
    path.write_text(
        '{"n": 1, "fixed_points": [{"label": "A", "weights": [%s]}]}' % ("7" * 5000)
    )
    for command in ("validate", "report", "hattori"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
    # a valid document whose exact report value is past that limit
    rng = random.Random(1)
    points = [
        {"label": f"P{i}", "weights": [rng.randint(1, 10**6) for _ in range(40)]}
        for i in range(40)
    ]
    path = tmp_path / "huge-report.json"
    path.write_text(json.dumps({"n": 40, "fixed_points": points}))
    code, out, err = run(capsys, "report", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["report", "hattori"])
def test_result_past_the_str_limit_is_invalid_input(capsys, tmp_path, command):
    # valid weights whose exact report and verdict values need ~8000 digits
    big = 10**4000
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "fixed_points": [
                    {"label": "A", "weights": [big, 2]},
                    {"label": "B", "weights": [-big - 1, 1]},
                    {"label": "C", "weights": [-1, -1]},
                ],
                "bundle_weights": [0, big, 1],
            }
        )
    )
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: result cannot be written exactly: ")


def test_validate_writes_labels_as_escaped_ascii(capsys, tmp_path):
    path = tmp_path / "labels.json"
    path.write_text(
        json.dumps(
            {
                "n": 1,
                "fixed_points": [
                    {"label": "Pé\"\\\t</x>", "weights": [1]},
                    {"label": "𝔸", "weights": [-1]},
                ],
            },
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "n": 1,\n  "fixed_points": [\n'
        '    {\n      "label": "P\\u00e9\\"\\\\\\t</x>",\n'
        '      "weights": [\n        1\n      ]\n    },\n'
        '    {\n      "label": "\\ud835\\udd38",\n'
        '      "weights": [\n        -1\n      ]\n    }\n  ]\n}\n'
    )


def test_c1candidates_table(capsys):
    code, out, _ = run(capsys, "c1candidates", "--n", "3")
    assert code == 0
    document = json.loads(out)
    assert [(c["value"], c["admissible"]) for c in document["candidates"]] == [
        ("4", True),
        ("2", True),
    ]
    code, out, _ = run(capsys, "c1candidates", "--n", "2")
    assert code == 0
    document = json.loads(out)
    assert [(c["value"], c["admissible"]) for c in document["candidates"]] == [
        ("3", True),
        ("3/2", False),
    ]


def test_unknown_command_exits_with_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
    code = main(["search", "--n", "2", "--bound", "3", "--workers", "2"])
    assert "--workers" in capsys.readouterr().err
    assert code == 2


def test_missing_file_is_invalid_input(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "/nonexistent/file.json")
    assert code == 2
    assert err
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'\xff{"n": 1}')
    for command in ("validate", "hattori"):
        code, _, err = run(capsys, command, str(undecodable))
        assert code == 2
        assert err.startswith("error: cannot read")


@pytest.mark.parametrize("module", ["fpkit", "fpkit.cli"])
def test_module_entry_point_smoke(module):
    completed = subprocess.run(
        [sys.executable, "-m", module, "c1candidates", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    document = json.loads(completed.stdout)
    assert document["candidates"][0]["value"] == "6"


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_search_flags_do_not_carry_over_to_the_next_call(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--n",
        "2",
        "--bound",
        "2",
        "--require-profile",
        "--require-condition-c",
        "--k0",
        "3/2",
    )
    assert code == 0
    document = json.loads(out)
    assert document["require_projective_profile"] is True
    assert document["require_condition_c"] is True
    assert document["k0"] == "3/2"

    code, out, _ = run(capsys, "search", "--n", "2", "--bound", "2")
    assert code == 0
    document = json.loads(out)
    assert document["require_projective_profile"] is False
    assert document["require_condition_c"] is False
    assert document["k0"] is None


def test_usage_errors_leave_later_calls_unchanged(capsys, model_file):
    first = run(capsys, "validate", model_file)
    assert first[0] == 0
    for argv in ([], ["search", "--n", "x"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: fpkit")
    assert run(capsys, "validate", model_file) == first


def test_version_is_written_on_every_call(capsys):
    for _ in range(2):
        assert run(capsys, "--version") == (0, "fpkit 0.1.0\n", "")


# the stdout of `search` with one counterexample; no golden case reaches it
COUNTEREXAMPLE_STDOUT = """\
{
  "schema_version": "1",
  "n": 2,
  "bound": 3,
  "require_projective_profile": false,
  "require_condition_c": false,
  "k0": null,
  "survivor_count": 1,
  "match_count": 0,
  "counterexample_count": 1,
  "hypothesis_failure_count": 0,
  "matches": [],
  "counterexamples": [
    {
      "weights": [
        [
          -3,
          -1
        ],
        [
          -2,
          1
        ],
        [
          2,
          3
        ]
      ],
      "normalized_bundle": [
        0,
        2,
        3
      ],
      "quasi_ample": true,
      "bundle_power": "-1/2",
      "condition_c_violation": "point P2 breaks the affine relation: weight sum -1 != 3 * 2 + -4",
      "mismatches": [
        {
          "label": "P1",
          "expected": [
            -3,
            -2
          ],
          "actual": [
            -3,
            -1
          ]
        },
        {
          "label": "P2",
          "expected": [
            -1,
            2
          ],
          "actual": [
            -2,
            1
          ]
        },
        {
          "label": "P3",
          "expected": [
            1,
            3
          ],
          "actual": [
            2,
            3
          ]
        }
      ]
    }
  ],
  "hypothesis_failures": []
}
"""


def test_search_counterexample_document_is_pinned(capsys, monkeypatch):
    data = dataclasses.replace(linear_pn((0, 1, 3)), bundle=BundleWeights((0, 2, 3)))
    experiment = RigidityExperiment(
        survivors=(data,),
        matches=(),
        counterexamples=((data, hattori_verdict(data)),),
        hypothesis_failures=(),
    )
    monkeypatch.setattr("fpkit.search.rigidity_experiment", lambda spec: experiment)
    code, out, err = run(capsys, "search", "--n", "2", "--bound", "3")
    assert (code, err) == (1, "")
    assert out == COUNTEREXAMPLE_STDOUT


def test_output_dataclasses_hold_their_fields_in_declaration_order():
    # the CLI spreads vars() of a verdict or a report into its document, so
    # vars() must list exactly the dataclass fields, in order, as the writer does
    data = linear_pn((0, 1, 3))
    verdict = hattori_verdict(dataclasses.replace(data, bundle=BundleWeights((0, 2, 3))))
    assert verdict.mismatches
    # P1's weights keep their sum, so the affine relation still holds
    skewed = FixedPointData(2, (FixedPointDatum("P1", (-5, 1)), *data.points[1:]))
    with_certificate = hattori_verdict(skewed, data.bundle)
    assert with_certificate.condition_c is not None and with_certificate.mismatches
    report = pair_restriction_check(data, linear_pn((0, 1)))
    assert report.points
    objects = [verdict, with_certificate, with_certificate.condition_c,
               *with_certificate.mismatches, report, *report.points,
               *first_chern_candidates(3)]
    for obj in objects:
        assert list(vars(obj)) == [f.name for f in dataclasses.fields(obj)], obj


@pytest.mark.parametrize("command", ["validate", "hattori"])
def test_deeply_nested_json_is_invalid_input(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed JSON document:")


# CP^1, and CP^1 with one key written twice at the top level or in a point
# entry
CP1 = ('{"n": 1, "fixed_points": [{"label": "P1", "weights": [-1]}, '
       '{"label": "P2", "weights": [1]}]}')
REPEATED_KEY_DOCUMENTS = {
    "top-level": (CP1.replace('"n": 1,', '"n": 1, "n": 1,'), '"n"'),
    "point": (CP1.replace('"weights": [1]}', '"weights": [1], "label": "P2"}'), '"label"'),
}


@pytest.mark.parametrize("where", sorted(REPEATED_KEY_DOCUMENTS))
@pytest.mark.parametrize("command", ["validate", "report", "hattori", "pair"])
def test_repeated_key_is_invalid_input(capsys, tmp_path, model_file, command, where):
    repeated, key = REPEATED_KEY_DOCUMENTS[where]
    before = [model_file] if command == "pair" else []
    path = tmp_path / "doc.json"
    path.write_text(CP1)
    code, _, err = run(capsys, command, *before, str(path))
    assert code != 2, err
    path.write_text(repeated)
    code, out, err = run(capsys, command, *before, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: malformed JSON document: duplicate key {key}\n"


def test_repeated_key_in_a_later_stream_document_is_invalid_input(capsys, tmp_path):
    repeated, _ = REPEATED_KEY_DOCUMENTS["point"]
    path = tmp_path / "stream.json"
    path.write_text(CP1 + "\n" + repeated + "\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == 'error: malformed JSON document: duplicate key "label"\n'


POINT_A = {"label": "A", "weights": [1]}


@pytest.mark.parametrize(
    "argv,document,message",
    [
        (["validate", "doc.json"], [], "document must be a JSON object, got list"),
        (
            ["validate", "doc.json"],
            {"n": 2, "fixed_points": []},
            '"fixed_points" must be a non-empty list',
        ),
        (
            ["validate", "doc.json"],
            {"n": 1, "fixed_points": [1]},
            "fixed point at index 0 must be an object",
        ),
        (
            ["validate", "doc.json"],
            {"n": 1, "fixed_points": [{**POINT_A, "x": 0}]},
            "fixed point at index 0 has unknown keys: ['x']",
        ),
        (
            ["validate", "doc.json"],
            {"n": 1, "fixed_points": [{"label": "A"}]},
            'fixed point at index 0 needs both "label" and "weights"',
        ),
        (
            ["validate", "doc.json"],
            {"n": 1, "fixed_points": [{"label": "A", "weights": 1}]},
            '"weights" of fixed point at index 0 must be a list',
        ),
        (
            ["validate", "doc.json"],
            {
                "n": 1,
                "fixed_points": [POINT_A, {"label": "B", "weights": [-1]}],
                "bundle_weights": 0,
            },
            '"bundle_weights" must be a list of integers',
        ),
        (
            ["validate", "doc.json"],
            {"n": 0, "fixed_points": [{"label": "A", "weights": []}]},
            "dimension n must be >= 1, got 0",
        ),
        (
            ["model", "--weights", "0,1,3", "--output", "missing/out.json"],
            None,
            "cannot write missing/out.json: [Errno 2] No such file or directory: "
            "'missing/out.json'",
        ),
        (
            ["model", "--weights", "0,x"],
            None,
            "weights must be comma-separated integers, got '0,x'",
        ),
        (
            ["c1candidates", "--n", "0"],
            None,
            "dimension must be a positive integer, got 0",
        ),
        (
            ["pair", "model.json", "line.json", "--embedding", "A"],
            None,
            "embedding entries must look like LABEL=LABEL, got 'A'",
        ),
        (
            ["pair", "model.json", "line.json", "--embedding", "A=P1,A=P2"],
            None,
            "embedding maps 'A' twice",
        ),
        (
            ["pair", "model.json", "line.json", "--embedding", ","],
            None,
            "embedding is empty",
        ),
    ],
)
def test_invalid_input_exits_2_with_its_message(
    capsys, tmp_path, monkeypatch, argv, document, message
):
    monkeypatch.chdir(tmp_path)
    dump(linear_pn((0, 1, 3)), tmp_path / "model.json")
    dump(linear_pn((0, 1)), tmp_path / "line.json")
    (tmp_path / "doc.json").write_text(json.dumps(document))
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_search_k0_needs_the_condition_c_filter(capsys):
    code, out, err = run(capsys, "search", "--n", "2", "--bound", "2", "--k0", "3/2")
    assert (code, out) == (2, "")
    assert "--k0" in err and "--require-condition-c" in err


def test_search_output_dash_is_a_file_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "search", "--n", "1", "--bound", "1", "--output", "-")
    assert code == 0
    assert json.loads(out)["matches"] == [[[-1], [1]]]
    stream = (tmp_path / "-").read_text()
    assert [d.points[0].weights for d in map(validate, iter_documents(stream))] == [(-1,)]


# a valid argument list for each command, run from a directory holding
# model.json (CP^2) and line.json (CP^1)
COMMAND_ARGS = {
    "validate": ["model.json"],
    "report": ["model.json"],
    "hattori": ["model.json"],
    "model": ["--weights", "0,1,3"],
    "pair": ["model.json", "line.json"],
    "search": ["--n", "1", "--bound", "1"],
    "c1candidates": ["--n", "3"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_command_help_shows_the_command_usage(capsys, command):
    code, out, err = run(capsys, command, "-h")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: fpkit {command} ")


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_a_missing_or_extra_argument_shows_the_command_usage(
    capsys, tmp_path, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)
    dump(linear_pn((0, 1, 3)), tmp_path / "model.json")
    dump(linear_pn((0, 1)), tmp_path / "line.json")
    args = COMMAND_ARGS[command]
    assert run(capsys, command, *args)[0] == 0
    for argv in (args[:-1], [*args, "extra"]):
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"usage: fpkit {command} ")
        assert f"\nfpkit {command}: error: " in err


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["fpkit", "c1candidates", "--n", "3"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    monkeypatch.setattr(sys, "argv", ["fpkit", "report"])
    assert main() == 2
    assert capsys.readouterr().err.startswith("usage: fpkit report ")


TOP_USAGE = (
    "usage: fpkit [-h] [--version]\n"
    "             {validate,report,hattori,model,pair,search,c1candidates} ...\n"
)


def test_arguments_without_a_command_go_through_the_top_level_parser(capsys):
    assert run(capsys) == (
        2, "", TOP_USAGE + "fpkit: error: the following arguments are required: command\n"
    )
    code, out, err = run(capsys, "frobnicate", "x")
    assert (code, out) == (2, "")
    assert err.startswith(TOP_USAGE + "fpkit: error: argument command: invalid choice: 'frobnicate'")
    for option in ("-x", "--bogus"):
        assert run(capsys, option) == (
            2, "", TOP_USAGE + f"fpkit: error: unrecognized arguments: {option}\n"
        )
    assert run(capsys, "--version") == (0, "fpkit 0.1.0\n", "")
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    assert out.startswith(TOP_USAGE) and "c1candidates" in out


# `fpkit --help` and `fpkit COMMAND --help` at 80 columns, keyed by command
# ("fpkit" for the top level): a changed byte is a changed command line
HELP = json.loads((pathlib.Path(__file__).parent / "data" / "cli_help.json").read_text("utf-8"))


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_texts_are_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    argv = ["--help"] if command == "fpkit" else [command, "--help"]
    assert run(capsys, *argv) == (0, HELP[command], "")


@pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\v", "\x1c"])
@pytest.mark.parametrize("command", ["validate", "report", "hattori", "pair"])
def test_non_json_whitespace_is_invalid_input(capsys, model_file, tmp_path, command, space):
    path = tmp_path / "spaced.json"
    path.write_text(space + pathlib.Path(model_file).read_text(), encoding="utf-8")
    before = [model_file] if command == "pair" else []
    code, out, err = run(capsys, command, *before, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed JSON document: ")


def test_a_crlf_separated_stream_is_read(capsys, tmp_path):
    text = serialize(linear_pn((0, 1, 3))) + serialize(linear_pn((0, 1)))
    path = tmp_path / "stream.json"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert run(capsys, "validate", str(path)) == (0, text, "")


@pytest.mark.parametrize("end", ["\r\n", "\r"])
@pytest.mark.parametrize("command", ["validate", "report", "hattori"])
def test_cr_and_crlf_line_ends_read_as_lf(capsys, model_file, tmp_path, command, end):
    text = pathlib.Path(model_file).read_text()
    for cut in (len(text), len(text) // 2):  # whole, then truncated mid-document
        twin, path = tmp_path / "lf.json", tmp_path / "cr.json"
        twin.write_bytes(text[:cut].encode())
        path.write_bytes(text[:cut].replace("\n", end).encode())
        expected = run(capsys, command, str(twin))
        assert run(capsys, command, str(path)) == expected
    assert expected[0] == 2 and " line " in expected[2]
