import json
import random
import subprocess
import sys

import pytest

from fpkit.cli import build_parser, main
from fpkit.core import dump, iter_documents, serialize, validate
from fpkit.models import linear_pn


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

    code, out, _ = run(
        capsys,
        "search",
        "--n",
        "2",
        "--bound",
        "2",
        "--require-condition-c",
        "--k0",
        "3/2",
    )
    assert code == 0
    assert json.loads(out)["survivor_count"] == 0


def test_search_respects_leaf_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("FPKIT_MAX_LEAVES", "10")
    code, _, err = run(capsys, "search", "--n", "2", "--bound", "4")
    assert code == 2
    assert "raise max_leaves" in err
    monkeypatch.setenv("FPKIT_MAX_LEAVES", "not-a-number")
    code, _, err = run(capsys, "search", "--n", "1", "--bound", "2")
    assert code == 2
    assert "FPKIT_MAX_LEAVES" in err


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


def test_module_entry_point_smoke():
    completed = subprocess.run(
        [sys.executable, "-m", "fpkit", "c1candidates", "--n", "5"],
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
