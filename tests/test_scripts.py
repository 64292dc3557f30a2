"""Each script under scripts/ runs to completion on tiny arguments."""

import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ringmat import orbits

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


def test_orbit_report_enumerates_each_ring_once(monkeypatch, capsys):
    """The product check prints from its own census: no second census of Z_h."""
    path = ROOT / "scripts" / "orbit_census_report.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, script)  # its dataclass looks itself up there
    spec.loader.exec_module(script)
    calls = Counter()
    real = orbits.census_by_enumeration

    def counting(ring, rows, cols, budget=None):
        calls[ring.h, rows, cols] += 1
        return real(ring, rows, cols, budget)

    monkeypatch.setattr(orbits, "census_by_enumeration", counting)
    monkeypatch.setattr(script, "census_by_enumeration", counting)
    config = script.CensusConfig(moduli=(4, 6), shapes=((2, 2), (1, 3)))
    assert script.report(config) == 0
    # Z_4 and Z_6 once per shape; the product check reads the components off their tables
    assert calls == {(h, m, n): 1 for h in (4, 6) for m, n in config.shapes}
    assert capsys.readouterr().out.count("product law: every orbit length") == 2
