"""Each script under scripts/ runs to completion on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT_ARGS = {
    "extremal_family_demo.py": ["--h", "6", "--m", "2", "--n", "2", "--r", "1", "--trials", "2"],
    "graph_parameter_sweep.py": ["--configs", "6,2,2,1"],
    "orbit_census_report.py": ["--moduli", "4", "--shapes", "2x2"],
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPT_ARGS)


@pytest.mark.parametrize("name", sorted(SCRIPT_ARGS))
def test_script_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *SCRIPT_ARGS[name]],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
