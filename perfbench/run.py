"""The ringmat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's inputs
(`workloads.py`); then passes of the whole op stream run one after another,
each in a fresh interpreter (`worker.py`), so kernel caches start cold and
peak RSS is per pass, until S seconds have gone (at least MIN_PASSES).

Every time the run reports is in reference seconds: each measured op time
is divided by the host's speed around it, the mean time of the worker's
reference chunks just before and just after the op over REF_SECONDS, and the
set-up time by the speed of the chunks that follow it.  The host is shared
and its speed switches by up to a factor of two from one second to the next
and drifts over minutes; the program and the reference loop slow down
together, so the ratio stays put.  The measured times are printed on
comment lines.

With --trace 0 the last stdout line holds the end-to-end metrics.  Each op
gets its median latency over the passes, so a burst of host noise that
slows a few passes is dropped, and wall_s and cpu_s sum those medians over
the stream.  op_p50_ms and op_tail_ms are percentiles of those per-op
medians; the tail percentile is the highest with 10 ops beyond it, so it
depends on the stream, not on the number of passes.  peak_rss_mb
and setup_s are medians over the passes.
With --trace 1 untraced and span-traced passes alternate and the line holds
the per-layer metrics (`spans.py`), medians over the traced passes, and the
tracing overhead: traced wall_s minus untraced wall_s.  Every pass must
produce the same output digest, traced or not.

Everything the run writes goes under .perfbench-out/ in the checkout: the
per-run input files (deleted at the end), the per-op output digests, and
the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
MIN_PASSES = 5        # per kind of pass: untraced, and traced when --trace 1
MAX_PASSES = 200
REF_SECONDS = 0.003   # one reference chunk's time at the speed reference seconds stand for
TIME_LIMIT = 165.0    # seconds; the run must end within 180


def _tail_share(n: int) -> float:
    """The highest percentile (as a share) with at least 10 of the n ops of a pass beyond it."""
    return max(0, n - 10) / n


def _quantile(values: list[float], share: float) -> float:
    """Linear interpolation between the order statistics around the share."""
    v = sorted(values)
    x = share * (len(v) - 1)
    i = int(x)
    return v[i] if i + 1 == len(v) else v[i] + (x - i) * (v[i + 1] - v[i])


def _speeds(refs: list, n_ops: int, col: int) -> list[float]:
    """Per op, how many times slower than the reference speed the host ran:
    the mean time of the reference chunks just before and after the op."""
    out, j = [], 0
    for i in range(n_ops):
        while refs[j + 1][0] <= i:
            j += 1
        out.append((refs[j][col] + refs[j + 1][col]) / (2 * REF_SECONDS))
    return out


def _rescale(p: dict, deadline: float) -> dict:
    """The pass with its times in reference seconds; the measured ones stay under raw_*.
    An op stopped at its deadline counts as taking the deadline: it ran for
    that much measured CPU time, however fast the host was."""
    n = len(p["wall"])
    stopped = [s == "deadline" for s in p["statuses"]]
    wall = [deadline if x else t / s for x, t, s in zip(stopped, p["wall"], _speeds(p["refs"], n, 1))]
    cpu = [deadline if x else t / s for x, t, s in zip(stopped, p["cpu"], _speeds(p["refs"], n, 2))]
    start = [r[1] for r in p["refs"] if r[0] == 0]
    speed = sum(p["wall"]) / sum(wall)
    out = dict(p, raw_wall=p["wall"], raw_setup=p["setup"], speed=speed, wall=wall, cpu=cpu,
               setup=p["setup"] * REF_SECONDS / statistics.mean(start))
    if "metrics" in p:
        out["metrics"] = {k: v / speed if k.endswith("_s") else v for k, v in p["metrics"].items()}
    return out


def _op_medians(passes: list[dict], key: str) -> list[float]:
    """Each op's median over the passes: a slow burst of the host hits an op in few passes."""
    return [statistics.median(col) for col in zip(*(p[key] for p in passes))]


class Runner:
    """Starts workers one at a time and keeps the whole run inside TIME_LIMIT."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def remaining(self) -> float:
        return TIME_LIMIT - (time.perf_counter() - self.start)

    def spawn(self, extra: list[str]) -> dict | None:
        """One worker; returns its result, or None if it failed."""
        result = self.tmp / "result.json"
        if result.exists():
            result.unlink()
        cmd = [sys.executable, str(HERE / "worker.py"), "--result", str(result)] + extra
        proc = subprocess.Popen(cmd, env=self.env, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            print(f"# worker timed out: {' '.join(extra)}", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not result.exists():
            print(f"# worker failed ({proc.returncode}): {err.decode(errors='replace')[-2000:]}", file=sys.stderr)
            return None
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ringmat benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = ROOT / "src" / "ringmat"
    if not (package / "__init__.py").is_file():
        print(f"error: the program is missing: no {package}/__init__.py", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        return _run(args, Runner(tmp), package)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, runner: Runner, package: Path) -> int:
    # The "build": compile the bytecode so set-up time never includes it.
    compileall.compile_dir(str(package), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    inputs = workloads.generate(args.workload, args.seed)
    for name, text in inputs["files"].items():
        (runner.tmp / name).write_text(text, encoding="utf-8")
    inputs_path = runner.tmp / "inputs.json"
    inputs_path.write_text(json.dumps({"ops": inputs["ops"]}), encoding="utf-8")

    tag = f"{args.workload}-seed{args.seed}"
    spans_path = OUT / f"spans-{tag}.jsonl"
    base = ["--workload", args.workload, "--inputs", str(inputs_path), "--tmp", str(runner.tmp)]
    untraced: list[dict] = []
    traced: list[dict] = []
    measure_start = time.perf_counter()
    last = 0.0
    ok_run = True
    while len(untraced) + len(traced) < MAX_PASSES:
        need_more = (len(untraced) < MIN_PASSES or (args.trace and len(traced) < MIN_PASSES)
                     or time.perf_counter() - measure_start < args.seconds)
        if not need_more or runner.remaining() < 2 * last + 5:
            break
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        t0 = time.perf_counter()
        res = runner.spawn(base + (["--trace", "--spans", str(spans_path)] if trace_this else []))
        last = time.perf_counter() - t0
        if res is None:
            ok_run = False
            break
        (traced if trace_this else untraced).append(_rescale(res, workloads.DEADLINES[args.workload]))
    passes = untraced + traced
    if not untraced or (args.trace and not traced):
        print("# no complete pass", file=sys.stderr)
        return 1

    n_ops = len(inputs["ops"])
    statuses = [s for p in passes for s in p["statuses"]]
    failed = sum(s != "ok" for s in statuses)
    wrong = sorted({s for s in statuses if s != "ok" and s != "deadline"})
    digests = {tuple(p["digests"]) for p in passes}
    correct = ok_run and not wrong and len(digests) == 1
    combined = workloads.digest(list(passes[0]["digests"]))

    (OUT / f"digests-{tag}.txt").write_text(
        "".join(f"{i} {s} {d}\n" for i, (s, d) in enumerate(zip(passes[0]["statuses"], passes[0]["digests"]))),
        encoding="utf-8")
    lat = _op_medians(untraced, "wall")
    tail = _tail_share(n_ops)
    print(f"# ringmat benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced, {len(traced)} traced; {n_ops} ops per pass")
    print(f"# input digest {workloads.digest(inputs)}")
    print(f"# output digest {combined} (per-op digests in {OUT.name}/digests-{tag}.txt)")
    print(f"# op_p50_ms and op_tail_ms are over the {n_ops} ops' median latencies over the untraced passes; "
          f"op_tail_ms is p{100 * tail:.2f}, which has {n_ops - round(tail * n_ops)} ops beyond it")
    print(f"# times are reference seconds: measured seconds over the host's speed around them, the time of "
          f"reference chunks over {REF_SECONDS} s")
    print("# untraced passes, measured stream wall s: " + " ".join(f"{sum(p['raw_wall']):.4f}" for p in untraced))
    print("# untraced passes, measured set-up s:      " + " ".join(f"{p['raw_setup']:.4f}" for p in untraced))
    print("# untraced passes, speed:                  " + " ".join(f"{p['speed']:.3f}" for p in untraced))
    print(f"# fail_frac {failed / len(statuses):.6f}: {failed} of {len(statuses)} ops failed")
    for s in wrong:
        print(f"# wrong: {s[:300]}")
    if len(digests) != 1:
        print("# passes disagree on the output digest")
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} git={sha}")

    if args.trace:
        metrics = {}
        for name, unit, _ in spans.PER_LAYER:
            if name == spans.OVERHEAD:
                value = sum(_op_medians(traced, "wall")) - sum(lat)
            else:
                value = statistics.median(p["metrics"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        print(f"# spans of the last traced pass in {OUT.name}/{spans_path.name}")
    else:
        metrics = {
            "wall_s": {"value": sum(lat), "unit": "s"},
            "cpu_s": {"value": sum(_op_medians(untraced, "cpu")), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * _quantile(lat, tail), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(p["rss_mb"] for p in untraced), "unit": "MB"},
            "setup_s": {"value": statistics.median(p["setup"] for p in untraced), "unit": "s"},
            "pass_frac": {"value": (len(statuses) - failed) / len(statuses), "unit": "ratio"},
        }
    print(json.dumps({"correct": correct, "attempted": len(statuses), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
