"""Seeded fuzzing of the subcommands against the CLI contract.

A matrix case writes one matrix file (JSON, or CSV with its shape on the
command line) and runs `snf`, `rank`, `oracle omega` or `oracle rank`.  A
clique case runs `build-clique` on drawn parameters and optional S/T/B0
files, with a budget that builds cliques of at most 447 members, then `classify-clique` and `verify-ekr` on the written family, on it
with one member dropped and with one member added.  A code case runs
`build-mrd --out` on drawn parameters and budget, then `verify-code` on the
written code, on it with one word dropped and with one word added, and
`color` and `cover-complement` on drawn small parameters.  A census case
runs `orbits` (JSON or CSV, with or without `--verify-product`) and
`graph-stats` (with `--exact`, `--connectivity` and sampled symmetries) on
drawn parameters and budgets.  All run through `cli.main`.  The contract:
exit 0, 2 or 3, or 1 for a failed verification, and never a traceback; on
exit 3 an empty stdout, under 2 s of CPU time and, as all of stderr, the one
line "budget exceeded: <estimate> <what> exceed the budget <cap>"; on exit 0
one JSON document on stdout.  Each run has a deadline of process
CPU time (SIGPROF), so a hang fails its case instead of stalling the suite.
"""

import contextlib
import io
import json
import random
import re
import signal
import time
from itertools import combinations
from math import isqrt

from hypothesis import HealthCheck, event, given, settings, strategies as st

from ringmat.cli import main
from ringmat.errors import DEFAULT_PAIR_BUDGET, UsageError
from ringmat.io import load_family
from ringmat.matrix import random_invertible
from ringmat.ring import factor_modulus, ring_spec

MAX_ENTRIES = 10**5
DEADLINE_S = 20.0  # CPU seconds per case
BUDGET_EXIT_S = 2.0
BUDGET_LINE = re.compile(r"budget exceeded: \S*\d\S* .+ exceed the budget \d+\n")  # all of stderr
EXAMPLES = 40
CLIQUE_EXAMPLES = 150  # under 3 s of Tier-1
# N - 1 rank checks build N members: the N whose C(N, 2) pairs fit the default pair budget, as large
# cliques are built and checked in test_cli.py
BUILD_BUDGET = (1 + isqrt(1 + 8 * DEFAULT_PAIR_BUDGET)) // 2 - 1
CODE_EXAMPLES = 150  # about 1 s of Tier-1
CENSUS_EXAMPLES = 160  # 210 distinct CLI runs, about 1.5 s of Tier-1

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
        assert out == "" and cpu < BUDGET_EXIT_S and BUDGET_LINE.fullmatch(err), (cpu, err)
    if code == 0:
        assert isinstance(json.loads(out), dict)
    if mode == "out-of-range":
        assert code == 2 and "out of range" in err


FAULTS = (None, None, None, "alpha", "shape", "--S", "--T", "--B0")  # at most one per case
GOOD_FILES = {"--S": ("invertible",), "--T": ("invertible",), "--B0": ("random", "singular")}
BAD_FILES = {"--S": ("random", "singular", "wrong shape", "wrong h"),
             "--T": ("random", "singular", "wrong shape", "wrong h"),
             "--B0": ("wrong shape", "wrong h")}


def _matrix_file(directory, name: str, h: int, rows: int, cols: int, kind: str, seed: int) -> str:
    """A rows x cols matrix file of the given kind over Z_h."""
    rng = random.Random(seed)
    if kind == "wrong shape":
        rows += 1
    if kind == "invertible" and rows == cols:
        grid = random_invertible(ring_spec(h), rows, rng).to_rows()
    else:
        grid = [[rng.randrange(h) for _ in range(cols)] for _ in range(rows)]
        if kind == "singular":
            grid[-1] = [0] * cols
    path = directory / name
    path.write_text(json.dumps({"h": h + 1 if kind == "wrong h" else h, "rows": rows, "cols": cols,
                                "entries": grid}))
    return str(path)


def _alpha(h: int, valid: bool, square: bool, rng: random.Random) -> str:
    """--alpha text: exponents 0 or s per prime (0 unless square), or any exponents, a wrong count or junk."""
    try:
        exps = [s for _, s in factor_modulus(h)]
    except UsageError:
        exps = [1]
    if valid:
        return ",".join(str(rng.choice((0, s)) if square else 0) for s in exps)
    kind = rng.choice(("any exponent", "wrong count", "junk"))
    if kind == "junk":
        return rng.choice(("", "x", "0,", "1.5", "-1"))
    values = [rng.randint(-1, s + 1) for s in exps]
    if kind == "wrong count":
        values = values[1:] if len(values) > 1 and rng.random() < 0.5 else values + [0]
    return ",".join(map(str, values))


def _contract(code: int, out: str, err: str, cpu: float) -> None:
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 1:  # a failed verification: a verdict on stdout or its message on stderr
        assert err.startswith("verification failed:") or json.loads(out)["intersecting"] is False, (out, err)
    if code == 3:
        assert out == "" and cpu < BUDGET_EXIT_S and BUDGET_LINE.fullmatch(err), (cpu, err)
    if code == 0:
        assert isinstance(json.loads(out), dict)


@st.composite
def graph_params(draw, valid: bool) -> tuple[int, int, int, int]:
    """(h, m, n, r): small h mostly, sometimes h out of range or beyond every budget."""
    h = draw(st.one_of(*[st.integers(2, 7)] * 4, st.integers(0, 40), moduli()))
    m, n = sorted((draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    if valid:
        return h, m, n, draw(st.sampled_from((1, 1, 1, m)))
    if draw(st.booleans()):
        return h, n + 1, n, draw(st.integers(0, 5))  # m > n
    return h, m, n, draw(st.sampled_from((0, m + 1)))


@settings(max_examples=CLIQUE_EXAMPLES, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_clique_commands_keep_the_cli_contract(tmp_path_factory, data, seed):
    rng = random.Random(seed)
    fault = rng.choice(FAULTS)
    h, m, n, r = data.draw(graph_params(fault != "shape"))
    directory = tmp_path_factory.mktemp("fuzz")
    alpha = _alpha(h, fault != "alpha", m == n, rng)
    argv = ["build-clique", "--h", str(h), "--m", str(m), "--n", str(n), "--r", str(r), f"--alpha={alpha}",
            "--budget", str(BUILD_BUDGET)]
    if h >= 2:
        for flag, rows, cols in (("--S", m, m), ("--T", n, n), ("--B0", m, n)):
            kind = rng.choice(BAD_FILES[flag] if fault == flag else (None,) + GOOD_FILES[flag])
            if kind is not None:
                argv += [flag, _matrix_file(directory, flag[2:] + ".json", h, rows, cols, kind, seed)]
    family = directory / "fam.json"
    code, out, err, cpu = _run([*argv, "--out", str(family)])
    event(f"build-clique exit {code}")
    _contract(code, out, err, cpu)
    assert code != 1, err  # valid parameters always give a clique
    if code != 0:
        return

    ring, rows, cols, members = load_family(str(family))
    grids = [[list(x[i * cols:(i + 1) * cols]) for i in range(rows)] for x in members]
    obj = {"h": ring.h, "rows": rows, "cols": cols}
    variants = {"intact": grids, "dropped": grids[:-1]}
    if len(grids) < ring.h ** (rows * cols):  # otherwise every matrix is a member
        grid = grids[0]
        while grid in grids:
            grid = [[rng.randrange(ring.h) for _ in range(cols)] for _ in range(rows)]
        variants["added"] = grids + [grid]
    for name, fam in variants.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({**obj, "members": fam}))
        classified = _run(["classify-clique", "--family", str(path), "--r", str(r)])
        verified = _run(["verify-ekr", "--family", str(path), "--r", str(r)])
        _contract(*classified)
        _contract(*verified)
        # a maximum clique classifies; no other family of these sizes does
        assert classified[0] == (0 if name == "intact" else 1), (name, classified[2])
        if verified[0] == 3:  # no coset is charged all C(|F|, 2) pairs, past the budget the build's N - 1 fit
            assert name != "intact" and len(fam) * (len(fam) - 1) // 2 > DEFAULT_PAIR_BUDGET, (name, verified[2])
            continue
        report = json.loads(verified[1])
        assert report["intersecting"] is (name != "added"), (name, report)
        if name != "added":
            assert verified[0] == 0 and report["extremal"] is (name == "intact")


def _verdict_contract(code: int, out: str, err: str, cpu: float) -> bool | None:
    """verify-code's contract: exit 1 is its verdict on stdout; returns the verdict's meets on exit 0 or 1."""
    if code != 1:
        _contract(code, out, err, cpu)
    assert "Traceback" not in err
    return json.loads(out)["meets"] if code in (0, 1) else None


@st.composite
def small_graph_params(draw) -> tuple[int, int, int, int]:
    """(h, m, n, r) with h <= 5 and m <= n <= 3: codes of at most 5^6 words."""
    m, n = sorted((draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    return draw(st.integers(2, 5)), m, n, draw(st.integers(1, m))


@settings(max_examples=CODE_EXAMPLES, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_code_commands_keep_the_cli_contract(tmp_path_factory, data, seed):
    rng = random.Random(seed)
    kind = rng.random()  # small parameters, any valid ones, or invalid ones
    h, m, n, r = data.draw(small_graph_params() if kind < 0.4 else graph_params(kind < 0.8))
    graph = ["--h", str(h), "--m", str(m), "--n", str(n), "--r", str(r)]
    budget = ["--budget", str(data.draw(st.integers(0, 5000)))]
    directory = tmp_path_factory.mktemp("fuzz")
    code_file = directory / "code.json"
    code, out, err, cpu = _run(["build-mrd", *graph, *budget, "--out", str(code_file)])
    event(f"build-mrd exit {code}")
    _contract(code, out, err, cpu)
    assert code != 1, err  # a built code always verifies

    small = [f"--{k}={v}" for k, v in zip("hmnr", data.draw(small_graph_params()))]
    if data.draw(st.booleans()):  # the vertex budget, else its default
        small += ["--budget", str(data.draw(st.integers(0, 5000)))]
    for argv in (["color", *small, "--seed", str(seed)], ["cover-complement", *small]):
        result = _run(argv)
        event(f"{argv[0]} exit {result[0]}")
        _contract(*result)
        assert result[0] != 1, result[2]  # the certificates hold on every graph
    if code != 0:
        return

    ring, rows, cols, members = load_family(str(code_file))
    grids = [[list(x[i * cols:(i + 1) * cols]) for i in range(rows)] for x in members]
    variants = {"intact": grids}
    if len(grids) > 1:
        variants["dropped"] = grids[:-1]
    grid = grids[0]
    while grid in grids:
        grid = [[rng.randrange(ring.h) for _ in range(cols)] for _ in range(rows)]
    variants["added"] = grids + [grid]
    for name, fam in variants.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"h": ring.h, "rows": rows, "cols": cols, "members": fam}))
        meets = _verdict_contract(*_run(["verify-code", "--family", str(path), "--d", str(r + 1)]))
        event(f"verify-code {name} meets {meets}")
        if meets is not None:  # else exit 3: the pairs of a large code pass the budget
            # a maximum code loses nothing by dropping a word; any added word comes within rank r of one
            assert meets is (name != "added"), (name, meets)


def _budget(data) -> list[str]:
    """A drawn --budget, or none for the default."""
    return ["--budget", str(data.draw(st.integers(0, 5000)))] if data.draw(st.booleans()) else []


# argv lists of the census slice that already met the contract: the derandomized
# draws repeat many of them, and a repeat is not run again
_CENSUS_PASSED: set[tuple[str, ...]] = set()


@settings(max_examples=CENSUS_EXAMPLES, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_census_commands_keep_the_cli_contract(data, seed):
    rng = random.Random(seed)
    h, m, n, r = data.draw(graph_params(rng.random() < 0.875))
    fmt = data.draw(st.sampled_from(("json", "csv")))
    argv = ["orbits", "--h", str(h), "--m", str(m), "--n", str(n), "--format", fmt, *_budget(data)]
    if data.draw(st.booleans()):
        argv.append("--verify-product")
    if tuple(argv) not in _CENSUS_PASSED:
        code, out, err, cpu = _run(argv)
        event(f"orbits {fmt} exit {code}")
        assert code != 1, (out, err)  # the product law holds on every census
        if code == 0 and fmt == "csv":  # one CSV document: the header, then one label and length per line
            lines = out.splitlines()
            assert lines[0] == "label,length" and all(len(line.split(",")) == 2 for line in lines[1:]), out
        else:
            _contract(code, out, err, cpu)
        _CENSUS_PASSED.add(tuple(argv))

    argv = ["graph-stats", "--h", str(h), "--m", str(m), "--n", str(n), "--r", str(r), *_budget(data)]
    argv += [flag for flag in ("--exact", "--connectivity") if data.draw(st.booleans())]
    if data.draw(st.booleans()):
        argv += ["--transitivity-samples", str(data.draw(st.integers(0, 20)))]
        if data.draw(st.booleans()):
            argv += ["--seed", str(seed)]
    if tuple(argv) not in _CENSUS_PASSED:
        code, out, err, cpu = _run(argv)
        event(f"graph-stats exit {code}")
        _contract(code, out, err, cpu)
        assert code != 1, err  # the certificates and the exact search agree on every graph
        if code == 0:  # the graph is vertex-transitive, and connected as rank-1 matrices span every matrix
            report = json.loads(out)
            assert report.get("transitivity_ok", True) and report.get("connected", True), report
        _CENSUS_PASSED.add(tuple(argv))
