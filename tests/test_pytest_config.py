"""The test configuration itself: a failing property test is reported as a
failure with its falsifying example, under the repository's warning filters."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_a_failing_property_test_reports_its_example_and_the_session_goes_on(tmp_path):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 1, completed.stdout + completed.stderr
    assert "Falsifying example: test_fails(" in completed.stdout
    assert "1 failed, 1 passed" in completed.stdout
