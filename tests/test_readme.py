"""README's Python API example runs as written and prints the final metrics
of the summary it writes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import celtibero

REPO = Path(__file__).resolve().parent.parent
# README.md's only Python block.
PYTHON_EXAMPLE = re.search(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S).group(1)


def test_python_example_runs_and_prints_its_summary(tmp_path):
    src = str(Path(celtibero.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error")
    done = subprocess.run(
        [sys.executable, "-c", PYTHON_EXAMPLE],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = tmp_path / "results" / "ulfa"
    assert sorted(path.name for path in out.iterdir()) == ["rounds.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    mta, asr = done.stdout.split()
    assert (float(mta), float(asr)) == (summary["final_mta"], summary["final_asr"])
