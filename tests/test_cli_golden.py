"""Golden bytes of the command line.

Each case runs ``fpkit.cli.main(argv)`` in process on fixed input files and
compares its exit code, stdout, stderr and any written files with the values
recorded in ``tests/data/cli_golden.json``.  ``{dir}`` in an argument stands
for the directory holding the inputs.  To record the file again, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff: a changed byte is a changed command line.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from fpkit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

CP2 = {
    "n": 2,
    "fixed_points": [
        {"label": "P1", "weights": [-3, -1]},
        {"label": "P2", "weights": [-2, 1]},
        {"label": "P3", "weights": [2, 3]},
    ],
    "bundle_weights": [0, 1, 3],
}
# unsorted weights, keys out of canonical order, no bundle
CP3_SCRAMBLED = {
    "fixed_points": [
        {"weights": [-7, -3, -1], "label": "P1"},
        {"weights": [1, -6, -2], "label": "P2"},
        {"weights": [3, 2, -4], "label": "P3"},
        {"weights": [6, 7, 4], "label": "P4"},
    ],
    "n": 3,
}
CP3 = {
    "n": 3,
    "fixed_points": [
        {"label": "P1", "weights": [-7, -3, -1]},
        {"label": "P2", "weights": [-6, -2, 1]},
        {"label": "P3", "weights": [-4, 2, 3]},
        {"label": "P4", "weights": [4, 6, 7]},
    ],
    "bundle_weights": [0, 1, 3, 7],
}
HYPERPLANE = {
    "n": 2,
    "fixed_points": [
        {"label": "P1", "weights": [-3, -1]},
        {"label": "P2", "weights": [-2, 1]},
        {"label": "P3", "weights": [2, 3]},
    ],
}
INCONSISTENT = {
    "n": 1,
    "fixed_points": [
        {"label": "A", "weights": [1]},
        {"label": "B", "weights": [1]},
    ],
}
PERTURBED_BUNDLE = dict(CP2, bundle_weights=[0, 2, 3])
UNDERIVABLE = {
    "n": 1,
    "fixed_points": [
        {"label": "A", "weights": [1]},
        {"label": "B", "weights": [2]},
    ],
}
ZERO_WEIGHT = {"n": 2, "fixed_points": [{"label": "P1", "weights": [0, 3]}]}
MISSING_N = {"fixed_points": [{"label": "P1", "weights": [1]}]}

# name -> (input files, argv, written files)
CASES = {
    "validate-canonical": ({"in.json": CP3_SCRAMBLED}, ["validate", "{dir}/in.json"], []),
    "validate-bundle": ({"in.json": CP2}, ["validate", "{dir}/in.json"], []),
    "report-cp2": ({"in.json": CP2}, ["report", "{dir}/in.json"], []),
    "report-cp3": ({"in.json": CP3_SCRAMBLED}, ["report", "{dir}/in.json"], []),
    "report-inconsistent": ({"in.json": INCONSISTENT}, ["report", "{dir}/in.json"], []),
    "c1candidates-2": ({}, ["c1candidates", "--n", "2"], []),
    "c1candidates-3": ({}, ["c1candidates", "--n", "3"], []),
    "hattori-pass": ({"in.json": CP3}, ["hattori", "{dir}/in.json"], []),
    "hattori-derived": ({"in.json": CP3_SCRAMBLED}, ["hattori", "{dir}/in.json"], []),
    "hattori-perturbed": ({"in.json": PERTURBED_BUNDLE}, ["hattori", "{dir}/in.json"], []),
    "hattori-underivable": ({"in.json": UNDERIVABLE}, ["hattori", "{dir}/in.json"], []),
    "model": ({}, ["model", "--weights", "0,1,3,7", "--n", "3"], []),
    "model-hyperplane": ({}, ["model", "--weights", "0,1,3,7", "--hyperplane"], []),
    "model-output": (
        {},
        ["model", "--weights", "0,1,3", "--output", "{dir}/out.json"],
        ["out.json"],
    ),
    "pair-pass": (
        {"a.json": CP3, "h.json": HYPERPLANE},
        ["pair", "{dir}/a.json", "{dir}/h.json"],
        [],
    ),
    "pair-fail": (
        {"a.json": CP2, "h.json": UNDERIVABLE},
        ["pair", "{dir}/a.json", "{dir}/h.json", "--embedding", "A=P1,B=P2"],
        [],
    ),
    "search-2-3": (
        {},
        ["search", "--n", "2", "--bound", "3", "--output", "{dir}/survivors.json"],
        ["survivors.json"],
    ),
    "search-2-3-profile": (
        {},
        ["search", "--n", "2", "--bound", "3", "--require-profile",
         "--require-condition-c"],
        [],
    ),
    "search-2-8": ({}, ["search", "--n", "2", "--bound", "8"], []),
    "invalid-zero-weight": ({"in.json": ZERO_WEIGHT}, ["validate", "{dir}/in.json"], []),
    "invalid-missing-n": ({"in.json": MISSING_N}, ["report", "{dir}/in.json"], []),
    "invalid-malformed": ({"in.json": '{"n": 2, "fixed_'}, ["hattori", "{dir}/in.json"], []),
}


def run_case(name, directory):
    inputs, argv, written = CASES[name]
    for file_name, content in inputs.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (directory / file_name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{dir}", str(directory)) for arg in argv])
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "files": {
            file_name: (directory / file_name).read_text(encoding="utf-8")
            for file_name in written
        },
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden_bytes(name, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_case(name, tmp_path) == expected


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


def record():
    golden = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as directory:
            golden[name] = run_case(name, pathlib.Path(directory))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
