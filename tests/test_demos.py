"""Every script in demos/, and the README's python example, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "bipartite_deviation.py", "cayley_uniformity.py", "counterexample_graph.py",
    "group_fourier.py", "norm_sandwich.py", "transitive_lift.py",
)
# the filterwarnings of pyproject.toml
WARNINGS = ("-W", "error::RuntimeWarning", "-W", "error:Casting complex values to real")


def _run(args):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, *WARNINGS, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = _run([f"demos/{name}"])
    assert proc.returncode == 0, proc.stderr


def test_readme_example_runs():
    readme = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"
