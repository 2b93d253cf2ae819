"""The test suite's own configuration: a failing test must be reported."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PLANTED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_planted(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_is_reported_under_the_warning_filters(tmp_path):
    # Hypothesis writes its failure report after the test, under the
    # suite's filterwarnings; a warning raised there must not end the run.
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_planted.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
