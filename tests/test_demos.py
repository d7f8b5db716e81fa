"""The narrative demos run to completion against the current package, and
demo 04 reproduces the committed ``demos/out/`` files byte for byte.

``manifest.txt`` is not committed: it holds wall-clock timings and versions.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "demos" / "out"
UNCOMMITTED = {Path("manifest.txt")}


def run_demo(demo, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def files_under(root):
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()} - UNCOMMITTED


@pytest.mark.parametrize("demo", ["01_gbm_realized_volatility.py",
                                  "02_classical_models.py",
                                  "03_rnn_window_search.py"])
def test_demo_runs(demo):
    run_demo(demo)


def test_demo_04_reproduces_committed_outputs(tmp_path):
    run_demo("04_full_experiment.py", str(tmp_path))
    assert files_under(tmp_path) == files_under(GOLDEN)
    for rel in sorted(files_under(GOLDEN)):
        assert (tmp_path / rel).read_bytes() == (GOLDEN / rel).read_bytes(), rel
