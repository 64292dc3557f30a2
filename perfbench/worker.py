"""One pass of a benchmark workload in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py --workload W --inputs FILE --tmp DIR --result FILE [--trace] [--spans FILE]

The set-up time runs from the first statement of this script to the end of
the imports of ringmat and ringmat.cli; the benchmark's own modules and
inputs are loaded after it.  Each op runs under a deadline in
process CPU time, so an op that hangs fails without stalling the pass.

Between ops, outside the timed intervals, the worker times chunks of a fixed
reference loop (`reference`), so that run.py can rescale the pass's times
to the speed the host had while the pass ran.
"""

import time

T_START = time.perf_counter()

import ringmat  # noqa: E402
import ringmat.cli  # noqa: E402

T_READY = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from ringmat import smith  # noqa: E402

REF_START = 3       # reference chunks timed right after set-up
REF_EVERY = 0.03    # seconds of op time between two reference chunks


class _Mat:
    __slots__ = ("h", "rows", "cols", "entries")

    def __init__(self, h: int, rows: int, cols: int, entries: tuple) -> None:
        self.h, self.rows, self.cols, self.entries = h, rows, cols, entries


def _reference_loop() -> int:
    """Fixed interpreter work like the program's: elimination on small
    integer matrices modulo a prime and, by gcd pivots, modulo big composite
    moduli, building lists, tuples, small objects and a dict."""
    rng = random.Random(12345)
    seen: dict[tuple, int] = {}
    p = 1000003
    for _ in range(20):
        a = [[rng.randrange(p) for _ in range(6)] for _ in range(6)]
        for c in range(6):
            piv = next((r for r in range(c, 6) if a[r][c]), None)
            if piv is None:
                continue
            a[c], a[piv] = a[piv], a[c]
            inv = pow(a[c][c], -1, p)
            for r in range(c + 1, 6):
                f = a[r][c] * inv % p
                if f:
                    a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
        t = tuple(tuple(row) for row in a)
        seen[t] = seen.get(t, 0) + 1
    for h in (2**63, 3**40, 510510, 2**8 * 3**5 * 7**3):
        for _ in range(6):
            m = _Mat(h, 4, 4, tuple(rng.randrange(h) for _ in range(16)))
            rows = [list(m.entries[i * 4 : (i + 1) * 4]) for i in range(4)]
            for c in range(4):
                best = min(range(c, 4), key=lambda r: math.gcd(rows[r][c], h))
                rows[c], rows[best] = rows[best], rows[c]
                g = math.gcd(rows[c][c], h)
                seen[(g, h)] = seen.get((g, h), 0) + 1
                for r in range(c + 1, 4):
                    rows[r] = [(x * g - y * rows[r][c]) % h for x, y in zip(rows[r], rows[c])]
            m = _Mat(h, 4, 4, tuple(x for row in rows for x in row))
            seen[m.entries] = seen.get(m.entries, 0) + 1
    return len(seen)


def reference(pos: int) -> tuple[int, float, float]:
    """One chunk of the reference loop after the first pos ops: (pos, wall s, CPU s).
    The garbage collector is off meanwhile, so the program's heap does not slow it."""
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.thread_time()
        _reference_loop()
        return pos, time.perf_counter() - t0, time.thread_time() - c0
    finally:
        gc.enable()


class Deadline(BaseException):
    """An op ran past its deadline; BaseException so no handler in the program catches it."""


_armed = False


def _on_deadline(signum, frame):
    if _armed:
        raise Deadline()


def run_stream(ops, deadline: float, tmp: str, tracer):
    """Run every op; return per-op wall and CPU seconds, statuses, output digests,
    the outputs cut to what their checks need, and the reference chunk times."""
    global _armed
    signal.signal(signal.SIGPROF, _on_deadline)
    wall, cpu, statuses, digests, outputs = [], [], [], [], []
    refs = [reference(0) for _ in range(REF_START)]
    since_ref = 0.0
    for op in ops:
        status, out = "ok", None
        # The program is single-threaded; the process CPU clock only moves in
        # scheduler ticks while the deadline timer is armed, the thread clock does not.
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            _armed = True
            signal.setitimer(signal.ITIMER_PROF, deadline)
            try:
                out = workloads.run_op(op, ringmat, ringmat.cli, tmp)
            finally:
                _armed = False
                signal.setitimer(signal.ITIMER_PROF, 0)
        except Deadline:
            status = "deadline"
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            status = f"error:{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.thread_time()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        if tracer is not None and tracer.stack:
            tracer.reset_stack()
        if status == "ok":
            if "out" in op:
                out["file"] = workloads.read_output_file(op, tmp)
            digests.append(workloads.digest_output(out))
            out = workloads.compact(op, out)
        else:
            digests.append(workloads.digest(status))
        statuses.append(status)
        outputs.append(out)
        since_ref += t1 - t0
        if since_ref >= REF_EVERY:
            refs.append(reference(len(statuses)))
            since_ref = 0.0
    refs.append(reference(len(ops)))
    return wall, cpu, statuses, digests, outputs, refs


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    origin = time.perf_counter()
    wall, cpu, statuses, digests, outputs, refs = run_stream(ops, workloads.DEADLINES[args.workload], args.tmp, tracer)
    result = {"setup": T_READY - T_START, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        result["metrics"] = tracer.metrics((smith._pp_smith_cached, smith._pp_exponents))
        if args.spans:
            tracer.write(args.spans, origin)
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if statuses[i] == "ok":
            try:
                reason = workloads.check_op(op, out, ringmat)
            except Exception as exc:  # a malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                statuses[i] = f"wrong: {reason}"
    result.update({"wall": wall, "cpu": cpu, "statuses": statuses, "digests": digests,
                   "refs": refs})
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
