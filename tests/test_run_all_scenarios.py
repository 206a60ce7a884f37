import os
import subprocess
import sys
from pathlib import Path

from poisson_lab.scenarios import CATALOG

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_scenarios.py"


def test_quick_catalog_runs_from_the_checkout(tmp_path):
    # No PYTHONPATH and a foreign working directory: the script must find
    # the package in the checkout's src/ by itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(_SCRIPT), str(tmp_path / "out"), "--quick"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = [ln.split()[0] for ln in proc.stdout.splitlines() if not ln.startswith(" ")]
    assert summary == list(CATALOG)
