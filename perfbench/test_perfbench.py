"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import ringmat  # noqa: E402
import ringmat.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.digest(workloads.generate(workload, 7))
    assert workloads.digest(workloads.generate(workload, 7)) == first
    assert workloads.digest(workloads.generate(workload, 8)) != first


def _small_ops(workload: str, ops: list[dict]) -> list[dict]:
    if workload == "smith-stream":
        return ops[:40]
    if workload == "census-sweep":
        return [op for op in ops if op["h"] ** (op["m"] * op["n"]) <= 5000]
    # the clique job over Z_6 2x2 and the code job over Z_12 2x2, in stream order
    return [op for op in ops if any("clique0_" in a or "code0" in a for a in op["argv"])]


def _digests(ops: list[dict], tmp: str) -> list[str]:
    out = []
    for op in ops:
        res = workloads.run_op(op, ringmat, ringmat.cli, tmp)
        if "out" in op:
            res["file"] = workloads.read_output_file(op, tmp)
        assert workloads.check_op(op, res, ringmat) is None
        out.append(workloads.digest_output(res))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_gives_the_untraced_digests(workload, tmp_path):
    inputs = workloads.generate(workload, 3)
    for name, text in inputs["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    ops = _small_ops(workload, inputs["ops"])
    assert len(ops) >= 4
    untraced = _digests(ops, str(tmp_path))
    original = ringmat.inner_rank
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ringmat.inner_rank is not original
        traced = _digests(ops, str(tmp_path))
    finally:
        tracer.uninstall()
    assert ringmat.inner_rank is original
    assert traced == untraced
    metrics = tracer.metrics(())
    layer = {"smith-stream": "smith.snf.calls", "census-sweep": "orbits.census_by_enumeration.calls",
             "certify-cli": "cliques.is_clique.calls"}[workload]
    assert metrics[layer] > 0
    assert tracer.stack == []


def test_rescale_divides_each_op_by_the_speed_around_it():
    ref = run.REF_SECONDS
    # chunks: three after set-up at reference speed, one after op 0 at half speed, one at the end
    refs = [[0, ref, ref]] * 3 + [[1, 2 * ref, 2 * ref], [2, 2 * ref, 2 * ref]]
    p = run._rescale({"wall": [0.3, 0.4], "cpu": [0.3, 0.4], "setup": 0.1, "refs": refs, "statuses": ["ok", "ok"],
                      "metrics": {"x.self_s": 0.7, "x.calls": 5}}, deadline=1.0)
    assert p["wall"] == pytest.approx([0.3 / 1.5, 0.4 / 2])
    assert p["cpu"] == pytest.approx(p["wall"])
    assert p["setup"] == pytest.approx(0.1)
    # self times scale by the pass's mean speed: here the span covers the whole stream
    assert p["metrics"]["x.self_s"] == pytest.approx(sum(p["wall"]))
    assert p["metrics"]["x.calls"] == 5
    assert p["raw_wall"] == [0.3, 0.4]
    stopped = run._rescale({"wall": [0.3, 0.4], "cpu": [0.3, 0.4], "setup": 0.1, "refs": refs,
                            "statuses": ["deadline", "ok"]}, deadline=1.0)
    assert stopped["wall"] == pytest.approx([1.0, 0.2])


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "smith-stream", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
