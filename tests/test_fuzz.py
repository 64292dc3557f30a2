"""Seeded fuzzing of the matrix-file subcommands against the CLI contract.

Each case writes one matrix file (JSON, or CSV with its shape on the command
line) and runs `snf`, `rank`, `oracle omega` or `oracle rank` through
`cli.main`.  The contract: exit 0, 2 or 3 and never a traceback; on exit 3 an
empty stdout and under 2 s of CPU time; on exit 0 one JSON document on
stdout.  Each case runs under a deadline of process CPU time (SIGPROF), so a
hang fails its case instead of stalling the suite.
"""

import contextlib
import io
import json
import random
import signal
import time
from itertools import combinations

from hypothesis import HealthCheck, given, settings, strategies as st

from ringmat.cli import main
from ringmat.ring import factor_modulus

MAX_ENTRIES = 10**5
DEADLINE_S = 20.0  # CPU seconds per case
BUDGET_EXIT_S = 2.0
EXAMPLES = 40

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 251, 65521)
LARGE_PRIMES = (999983, 1000003, 2**31 - 1, 3037000493, 2**32 - 17, 2**32 - 5, 2**32 + 15, 2**61 - 1, 2**64 - 59)
PRIME_PAIRS = tuple((p, q) for p, q in combinations(LARGE_PRIMES, 2) if p * q < 2**64)
COMMANDS = (("snf",), ("rank",), ("oracle", "omega"), ("oracle", "rank"))
MODES = ("zero", "uniform", "low-rank", "prime-multiples", "out-of-range")


@st.composite
def moduli(draw):
    kind = draw(st.sampled_from(("prime", "prime power", "two large primes")))
    if kind == "prime":
        return draw(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES))
    if kind == "prime power":
        p = draw(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES[:6]))
        top = max(s for s in range(1, 64) if p**s < 2**64)
        return p ** draw(st.integers(min_value=min(2, top), max_value=top))
    p, q = draw(st.sampled_from(PRIME_PAIRS))
    return p * q


@st.composite
def shapes(draw):
    """rows x cols with at most MAX_ENTRIES entries: tiny, middling, 1 x k and k x 1, and the largest."""
    rows = draw(st.one_of(st.just(1), st.integers(1, 8), st.integers(1, 400), st.integers(1, MAX_ENTRIES)))
    cols = draw(st.one_of(st.integers(1, 8), st.integers(1, MAX_ENTRIES // rows), st.just(MAX_ENTRIES // rows)))
    return (cols, rows) if draw(st.booleans()) else (rows, cols)


def _entries(h: int, rows: int, cols: int, mode: str, seed: int) -> list[int]:
    rng = random.Random(seed)
    if mode == "zero":
        return [0] * (rows * cols)
    if mode == "low-rank":  # B @ C with inner width 1 or 2
        k = rng.choice((1, 2))
        b = [[rng.randrange(h) for _ in range(k)] for _ in range(rows)]
        c = [[rng.randrange(h) for _ in range(cols)] for _ in range(k)]
        return [sum(b[i][x] * c[x][j] for x in range(k)) % h for i in range(rows) for j in range(cols)]
    if mode == "prime-multiples":
        primes = factor_modulus(h)
        out = []
        for _ in range(rows * cols):
            p, s = rng.choice(primes)
            out.append(rng.randrange(h) * p ** rng.randrange(s + 1) % h)
        return out
    out = [rng.randrange(h) for _ in range(rows * cols)]
    if mode == "out-of-range":
        out[rng.randrange(len(out))] = h
    return out


class Deadline(BaseException):
    """The case ran past its CPU deadline; BaseException so the program cannot catch it."""


def _on_deadline(signum, frame):
    raise Deadline(f"case ran past {DEADLINE_S} s of CPU time")


def _run(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGPROF, _on_deadline)
    start = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    return code, out.getvalue(), err.getvalue(), time.process_time() - start


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=st.sampled_from(COMMANDS), h=moduli(), shape=shapes(), mode=st.sampled_from(MODES),
       seed=st.integers(0, 2**32), as_csv=st.booleans())
def test_matrix_commands_keep_the_cli_contract(tmp_path_factory, command, h, shape, mode, seed, as_csv):
    rows, cols = shape
    entries = _entries(h, rows, cols, mode, seed)
    directory = tmp_path_factory.mktemp("fuzz")
    if as_csv:
        path = directory / "a.csv"
        path.write_text(",".join(map(str, entries)) + "\n")
        argv = [*command, "--matrix", str(path), "--h", str(h), "--rows", str(rows), "--cols", str(cols)]
    else:
        path = directory / "a.json"
        grid = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
        path.write_text(json.dumps({"h": h, "rows": rows, "cols": cols, "entries": grid}))
        argv = [*command, "--matrix", str(path)]

    code, out, err, cpu = _run(argv)
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 3:
        assert out == "" and cpu < BUDGET_EXIT_S, (cpu, err)
    if code == 0:
        assert isinstance(json.loads(out), dict)
    if mode == "out-of-range":
        assert code == 2 and "out of range" in err
