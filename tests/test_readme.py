"""The README's Library example and `fpkit report` output, checked as written."""

import dataclasses
import json
import re
from pathlib import Path

import fpkit
from fpkit.cli import main
from fpkit.core import dump
from fpkit.models import linear_pn

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block_after(marker: str, language: str) -> str:
    start = README.index(marker)
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(README, start)
    assert match, f"no ```{language} block after {marker!r}"
    return match.group(1)


def test_readme_library_example_runs():
    exec(compile(_block_after("## Library", "python"), "README.md", "exec"), {})


def test_readme_report_example_matches_the_cli(capsys, tmp_path):
    data = linear_pn((0, 1, 3))
    assert list(data.bundle) == [0, 1, 3]
    path = tmp_path / "cp2.json"
    dump(data, path)
    assert main(["report", str(path)]) == 0
    expected = json.loads(_block_after("fpkit report cp2.json", "json"))
    assert json.loads(capsys.readouterr().out) == expected


def test_readme_field_lists_are_the_result_fields_in_the_goldens():
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    verdict, pair, roots = (
        json.loads(golden[name]["stdout"])
        for name in ("hattori-perturbed", "pair-fail", "c1candidates-3")
    )
    written = {  # each document's keys, after its schema version
        "RigidityVerdict": list(verdict)[1:],
        "PairRestrictionReport": list(pair)[1:],
        "PointRestriction": list(pair["points"][0]),
        "ChernClassCandidate": list(roots["candidates"][0]),
    }
    text = " ".join(README.split())
    for name, keys in written.items():
        listed = re.search(rf"`fpkit\.{name}`, in order \(([^)]*)\)", text).group(1)
        fields = [f.name for f in dataclasses.fields(getattr(fpkit, name))]
        assert [key.strip("` ") for key in listed.split(",")] == fields == keys, name
