"""The test session's own configuration: ``pyproject.toml`` turns every
warning into an error, yet a failing Hypothesis test is still reported as a
failure, with its falsifying example, and the session goes on."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SAMPLE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None, max_examples=5)
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    child = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-q", "-p", "no:cacheprovider", "test_sample.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = child.stdout + child.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in child.stdout, output
    assert "Falsifying example: test_fails(" in child.stdout
