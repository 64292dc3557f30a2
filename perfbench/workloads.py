"""Workload generators, op runners and correctness checks for the ringmat benchmark.

A workload is a seeded list of ops.  The generators are plain Python and
import nothing from ringmat: the program receives only the inputs they
produce (moduli, shapes, entries, and for certify-cli the S/T/B0 and family
files plus the argv of each command).  Expected answers that can be stated
without the program (ranks agree, closed-form sizes, the exact family a
build must produce) are computed here too, so that checks do not trust the
code under test.

Ops are run by `run_op`, which reaches the program only through attribute
lookups on the ringmat package and ringmat.cli at call time, so the span
wrappers that `spans.Tracer` installs in those namespaces see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from itertools import product

WORKLOADS = ("smith-stream", "census-sweep", "certify-cli")

# Per-op deadline in seconds of process CPU time.  An op past its deadline
# is interrupted and counted as failed.  The smith-stream bound is about ten
# times its slowest legitimate op; the other two bound single jobs.
DEADLINES = {"smith-stream": 0.05, "census-sweep": 30.0, "certify-cli": 30.0}

# The graph budget ringmat applies by default: graphs with at most this many
# vertices are materialized and their colorings checked edge by edge.
VERTEX_BUDGET = 10**4

TMP = "{tmp}"  # placeholder for the per-run file directory in argv and paths


def _factor(h: int) -> tuple[tuple[int, int], ...]:
    """Trial division; only used on the small moduli of the generated jobs."""
    out = []
    d = 2
    while d * d <= h:
        e = 0
        while h % d == 0:
            h //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if h > 1:
        out.append((h, 1))
    return tuple(out)


def _label_count(h: int, m: int, n: int) -> int:
    k = min(m, n)
    out = 1
    for _, s in _factor(h):
        out *= math.comb(s + k, k)
    return out


# --- smith-stream ---------------------------------------------------------------

# (modulus, factorization): prime powers up to 2^63 and 3^40, products of
# many small primes, and mixed prime powers.
SMITH_MODULI = (
    (2**5, ((2, 5),)),
    (3**4, ((3, 4),)),
    (7**3, ((7, 3),)),
    (2**63, ((2, 63),)),
    (3**40, ((3, 40),)),
    (360, ((2, 3), (3, 2), (5, 1))),
    (30030, ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1))),
    (510510, ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1))),
    (2**8 * 3**5 * 7**3, ((2, 8), (3, 5), (7, 3))),
)
SMITH_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 4), (3, 5), (5, 3), (4, 6), (6, 4), (6, 8), (8, 6))
SMITH_REPEATS = 9          # every (modulus, shape) class appears this often per pass
SMITH_OPS = 1000           # ops per pass; p99 then has exactly 10 ops beyond it
PRIME64 = 2**64 - 59       # a prime inside the 64-bit contract; factoring it hangs today
PRIME64_OPS = 5
ORACLE_SHARE = 0.06        # share of small-shape ops also checked against the minor oracle


def _smith_entries(rng: random.Random, h: int, primes, m: int, n: int, mode: int) -> list[int]:
    if mode == 0:  # uniform
        return [rng.randrange(h) for _ in range(m * n)]
    if mode == 1:  # rank-deficient product B @ C with inner width min(m, n) - 1
        k = max(1, min(m, n) - 1)
        b = [rng.randrange(h) for _ in range(m * k)]
        c = [rng.randrange(h) for _ in range(k * n)]
        return [sum(b[i * k + x] * c[x * n + j] for x in range(k)) % h for i in range(m) for j in range(n)]
    # entries carrying random prime-power factors, so pivots are non-units
    out = []
    for _ in range(m * n):
        p, s = primes[rng.randrange(len(primes))]
        out.append(rng.randrange(h) * p ** rng.randrange(s + 1) % h)
    return out


def gen_smith_stream(seed: int) -> dict:
    rng = random.Random(f"smith-stream/{seed}")
    classes = [(mi, shape) for mi in range(len(SMITH_MODULI)) for shape in SMITH_SHAPES]
    plan = [(mi, shape, rep % 3) for mi, shape in classes for rep in range(SMITH_REPEATS)]
    while len(plan) < SMITH_OPS - PRIME64_OPS:
        mi, shape = classes[rng.randrange(len(classes))]
        plan.append((mi, shape, rng.randrange(3)))
    ops = []
    for mi, (m, n), mode in plan:
        h, primes = SMITH_MODULI[mi]
        check = min(m, n) <= 4 and rng.random() < ORACLE_SHARE
        ops.append({"kind": "smith", "h": h, "m": m, "n": n,
                    "entries": _smith_entries(rng, h, primes, m, n, mode), "oracle": check})
    for _ in range(PRIME64_OPS):
        ops.append({"kind": "smith", "h": PRIME64, "m": 3, "n": 3,
                    "entries": [rng.randrange(PRIME64) for _ in range(9)], "oracle": False})
    rng.shuffle(ops)
    return {"ops": ops, "files": {}}


# --- census-sweep ---------------------------------------------------------------

# Prime-power censuses: every kernel call is a miss and the cache grows.
CENSUS_PRIME_POWER = ((16, 2, 2), (3, 3, 3), (5, 2, 3), (2, 3, 4), (9, 2, 2), (8, 2, 2), (4, 2, 3), (3, 2, 3))
# Composite censuses with the product law: nearly every call hits.
CENSUS_COMPOSITE = ((12, 2, 2), (10, 2, 2), (6, 2, 3), (6, 2, 2))
# Rank table, degree and BFS connectivity (graph-stats --connectivity).
GRAPH_BFS = ((6, 2, 2, 1), (2, 3, 3, 2), (3, 2, 3, 1), (5, 2, 2, 1), (4, 2, 2, 1), (2, 2, 4, 1), (2, 3, 3, 1))
# Exact clique and independence numbers (graph-stats --exact), at most 256 vertices.
GRAPH_EXACT = ((4, 2, 2, 1), (3, 2, 2, 1), (2, 2, 3, 1), (2, 2, 3, 2), (2, 2, 2, 1))


def gen_census_sweep(seed: int) -> dict:
    """The censuses are exhaustive and run first, in a fixed order, because
    the kernel cache they grow slows every later op (its garbage collections
    grow with it).  The seed orders the graph jobs, which add little to it."""
    rng = random.Random(f"census-sweep/{seed}")
    graphs = [{"kind": "bfs", "h": h, "m": m, "n": n, "r": r} for h, m, n, r in GRAPH_BFS]
    graphs += [{"kind": "exact", "h": h, "m": m, "n": n, "r": r} for h, m, n, r in GRAPH_EXACT]
    rng.shuffle(graphs)
    return {"ops": [{"kind": "census", "h": h, "m": m, "n": n, "product": False} for h, m, n in CENSUS_PRIME_POWER]
            + [{"kind": "census", "h": h, "m": m, "n": n, "product": True} for h, m, n in CENSUS_COMPOSITE]
            + graphs, "files": {}}


# --- certify-cli ----------------------------------------------------------------

# (h, m, n, r, alpha) of the clique jobs: build-clique, classify-clique,
# verify-ekr, and verify-ekr on the family plus one matrix.  alpha is fixed
# per job, since the form it selects changes the work; every form occurs.
CLIQUE_JOBS = (
    (6, 2, 2, 1, (1, 0)),
    (12, 2, 2, 1, (2, 1)),
    (10, 2, 2, 1, (0, 0)),
    (6, 2, 3, 1, (0, 0)),
    (6, 3, 3, 1, (0, 1)),
    (9, 2, 2, 1, (2,)),
    (4, 2, 3, 1, (0,)),
)
# (h, m, n, r) of the code jobs: build-mrd --out, then verify-code.
MRD_JOBS = ((12, 2, 2, 1), (6, 2, 3, 1), (6, 3, 3, 2), (5, 2, 3, 1))
# (command, h, m, n, r): within the vertex budget every coloring edge is
# checked; above it (h=12 2x2, h=6 2x3) the structural path runs.
GRAPH_JOBS = (
    ("graph-stats", 6, 2, 2, 1),
    ("graph-stats", 6, 2, 3, 1),
    ("color", 5, 2, 2, 1),
    ("color", 12, 2, 2, 1),
    ("cover-complement", 6, 2, 2, 1),
    ("cover-complement", 5, 2, 2, 1),
)
TRANSITIVITY_SAMPLES = 10


def _random_invertible(rng: random.Random, h: int, k: int) -> list[int]:
    """L @ U with unit diagonals, rows permuted: determinant is a unit."""
    units = [u for u in range(1, h) if math.gcd(u, h) == 1]
    low = [1 if i == j else (rng.randrange(h) if j < i else 0) for i in range(k) for j in range(k)]
    up = [rng.choice(units) if i == j else (rng.randrange(h) if j > i else 0) for i in range(k) for j in range(k)]
    prod_ = _matmul(h, low, up, k, k, k)
    perm = list(range(k))
    rng.shuffle(perm)
    return [prod_[perm[i] * k + j] for i in range(k) for j in range(k)]


def _matmul(h: int, a: list[int], b: list[int], m: int, k: int, n: int) -> list[int]:
    return [sum(a[i * k + x] * b[x * n + j] for x in range(k)) % h for i in range(m) for j in range(n)]


def _rank_mod_p(ents, m: int, n: int, p: int) -> int:
    """Rank over the field Z_p, by Gaussian elimination."""
    a = [[x % p for x in ents[i * n : (i + 1) * n]] for i in range(m)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        for i in range(m):
            if i != rank and a[i][c]:
                f = a[i][c] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _ideal_step(h: int, primes, exps) -> int:
    g = 1
    for (p, _), a in zip(primes, exps):
        g *= p**a
    return g % h or h


def canonical_family(h: int, m: int, n: int, r: int, alpha, s_mat, t_mat, b0) -> list[tuple[int, ...]]:
    """S @ C_r(alpha) @ T + B0, computed independently of ringmat, sorted."""
    primes = _factor(h)
    upper = range(0, h, _ideal_step(h, primes, alpha))
    lower = range(0, h, _ideal_step(h, primes, [s - a for a, (_, s) in zip(alpha, primes)]))
    out = set()
    for x1 in product(range(h), repeat=r * r):
        for x2 in product(upper, repeat=r * (n - r)):
            for x3 in product(lower, repeat=(m - r) * r):
                x = [0] * (m * n)
                for i in range(r):
                    x[i * n : i * n + r] = x1[i * r : (i + 1) * r]
                    x[i * n + r : (i + 1) * n] = x2[i * (n - r) : (i + 1) * (n - r)]
                for i in range(m - r):
                    x[(r + i) * n : (r + i) * n + r] = x3[i * r : (i + 1) * r]
                y = _matmul(h, _matmul(h, s_mat, x, m, m, n), t_mat, m, n, n)
                out.add(tuple((v + w) % h for v, w in zip(y, b0)))
    return sorted(out)


def _rows(ents, m: int, n: int) -> list[list[int]]:
    return [list(ents[i * n : (i + 1) * n]) for i in range(m)]


def _matrix_file(h: int, ents, m: int, n: int) -> str:
    return json.dumps({"h": h, "rows": m, "cols": n, "entries": _rows(ents, m, n)})


def _graph_argv(cmd: str, h: int, m: int, n: int, r: int) -> list[str]:
    return [cmd, "--h", str(h), "--m", str(m), "--n", str(n), "--r", str(r)]


def gen_certify_cli(seed: int) -> dict:
    rng = random.Random(f"certify-cli/{seed}")
    files: dict[str, str] = {}
    ops: list[dict] = []
    for j, (h, m, n, r, alpha) in enumerate(CLIQUE_JOBS):
        primes = _factor(h)
        sat = tuple(s for _, s in primes)
        tag = "RowForm" if not any(alpha) else ("ColForm" if alpha == sat else "MixedForm")
        s_mat = _random_invertible(rng, h, m)
        t_mat = _random_invertible(rng, h, n)
        b0 = [rng.randrange(h) for _ in range(m * n)]
        family = canonical_family(h, m, n, r, alpha, s_mat, t_mat, b0)
        # The non-member differs from the family's first member by rank > r
        # already modulo the first prime, so the pairwise check rejects it at
        # its first pair whatever the seed.  A random non-member is rejected
        # after anywhere from one pair to every pair of that prime component,
        # which moved the op's time by a factor of ten from seed to seed.
        p0 = primes[0][0]
        while True:
            extra = tuple(rng.randrange(h) for _ in range(m * n))
            if _rank_mod_p([x - y for x, y in zip(extra, family[0])], m, n, p0) > r:
                break
        base = f"clique{j}"
        files[f"{base}_S.json"] = _matrix_file(h, s_mat, m, m)
        files[f"{base}_T.json"] = _matrix_file(h, t_mat, n, n)
        files[f"{base}_B0.json"] = _matrix_file(h, b0, m, n)
        files[f"{base}_ext.json"] = json.dumps({
            "h": h, "rows": m, "cols": n,
            "members": [_rows(x, m, n) for x in [extra] + family],
        })
        fam = f"{TMP}/{base}_fam.json"
        alpha_arg = ",".join(str(a) for a in alpha)
        ops += [
            {"kind": "cli", "argv": _graph_argv("build-clique", h, m, n, r) + [
                "--alpha", alpha_arg, "--S", f"{TMP}/{base}_S.json", "--T", f"{TMP}/{base}_T.json",
                "--B0", f"{TMP}/{base}_B0.json", "--out", fam],
             "out": fam, "expect": {"rc": 0, "family": [list(x) for x in family]}},
            {"kind": "cli", "argv": ["classify-clique", "--family", fam, "--r", str(r)],
             "expect": {"rc": 0, "tag": tag, "size": h ** (n * r)}},
            {"kind": "cli", "argv": ["verify-ekr", "--family", fam, "--r", str(r)],
             "expect": {"rc": 0, "extremal": True, "form.tag": tag}},
            {"kind": "cli", "argv": ["verify-ekr", "--family", f"{TMP}/{base}_ext.json", "--r", str(r)],
             "expect": {"rc": 1, "intersecting": False}},
        ]
    for j, (h, m, n, r) in enumerate(MRD_JOBS):
        code = f"{TMP}/code{j}.json"
        size = h ** (n * (m - r))
        ops += [
            {"kind": "cli", "argv": _graph_argv("build-mrd", h, m, n, r) + ["--out", code],
             "out": code, "expect": {"rc": 0, "code_size": size, "distance": r + 1}},
            {"kind": "cli", "argv": ["verify-code", "--family", code, "--d", str(r + 1)],
             "expect": {"rc": 0, "size": size, "computed_min_distance": r + 1, "meets": True}},
        ]
    for cmd, h, m, n, r in GRAPH_JOBS:
        argv = _graph_argv(cmd, h, m, n, r)
        edges = h ** (m * n) <= VERTEX_BUDGET
        if cmd == "graph-stats":
            argv += ["--transitivity-samples", str(TRANSITIVITY_SAMPLES), "--seed", str(rng.randrange(10**6))]
            expect = {"omega": h ** (n * r), "alpha": h ** (n * (m - r)), "chi": h ** (n * r),
                      "code_distance": r + 1, "sandwich_tight": True, "transitivity_ok": True,
                      "coloring_verification": "edges" if edges else "structural"}
        elif cmd == "color":
            argv += ["--seed", str(rng.randrange(10**6))]
            expect = {"n_colors": h ** (n * r), "verification": "edges" if edges else "structural"}
        else:
            expect = {"parts": h ** (n * (m - r)), "part_sizes": [h ** (n * r)], "partition": True}
        expect["rc"] = 0
        ops.append({"kind": "cli", "argv": argv, "expect": expect})
    # Fixed job order: the kernel cache and the heap grow along the stream and
    # garbage collections land on whichever op crosses a threshold, so a
    # shuffled order would move cost between ops from seed to seed.
    return {"ops": ops, "files": files}


GENERATORS = {"smith-stream": gen_smith_stream, "census-sweep": gen_census_sweep, "certify-cli": gen_certify_cli}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --- running ops --------------------------------------------------------------------


def run_op(op: dict, rm, cli, tmp: str):
    """Run one op against the program and return its output as plain data.

    rm is the ringmat package and cli the ringmat.cli module; names are looked
    up on them at call time.
    """
    kind = op["kind"]
    if kind == "smith":
        ring = rm.ring_spec(op["h"])
        a = rm.Mat(ring, op["m"], op["n"], tuple(op["entries"]))
        f = rm.snf(a)
        rm.verify_smith_form(a, f)
        rank = rm.inner_rank(a)
        routes = rm.rank_via_projections(a)
        return {"omega": f.omega.omega, "S": f.S.entries, "D": f.D.entries, "T": f.T.entries,
                "snf_rank": f.inner_rank, "inner_rank": rank, "via_pi": routes.via_pi, "via_theta": routes.via_theta}
    if kind == "census":
        ring = rm.ring_spec(op["h"])
        rep = rm.census_by_enumeration(ring, op["m"], op["n"])
        out = {"entries": rep.entries, "total": rep.total, "label_count": rep.label_count,
               "expected_label_count": rm.expected_label_count(ring, op["m"], op["n"])}
        if op["product"]:
            out["product_ok"] = rm.verify_orbit_product(ring, op["m"], op["n"]).ok
        return out
    if kind == "bfs":
        spec = rm.GraphSpec(rm.ring_spec(op["h"]), op["m"], op["n"], op["r"])
        return {"sandwich_tight": rm.sandwich_inequality(spec).tight,
                "degree": rm.build_graph(spec).degree,
                "connected": rm.check_connectivity(spec)}
    if kind == "exact":
        spec = rm.GraphSpec(rm.ring_spec(op["h"]), op["m"], op["n"], op["r"])
        return {"omega": rm.exact_clique_number(spec), "alpha": rm.exact_independence_number(spec)}
    if kind == "cli":
        argv = [arg.replace(TMP, tmp) for arg in op["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return {"rc": rc, "stdout": out.getvalue().replace(tmp, TMP), "stderr": err.getvalue()}
    raise ValueError(f"unknown op kind {kind!r}")


def read_output_file(op: dict, tmp: str) -> str | None:
    """Contents of the file a CLI op wrote with --out, with the run directory masked."""
    if "out" not in op:
        return None
    with open(op["out"].replace(TMP, tmp), encoding="utf-8") as fh:
        return fh.read().replace(tmp, TMP)


def digest_output(out) -> str:
    """Digest of what the program computed; stderr is diagnostics, not output."""
    if isinstance(out, dict) and "stderr" in out:
        out = {k: v for k, v in out.items() if k != "stderr"}
    return digest(out)


def compact(op: dict, out):
    """The part of an op's output its check reads; the worker keeps only that
    until the checks run, so peak RSS is mostly the program's.  Only the
    smith ops of the oracle sample need their S, D, T and omega tables."""
    if op["kind"] == "smith" and not op["oracle"]:
        return {k: out[k] for k in ("snf_rank", "inner_rank", "via_pi", "via_theta")}
    return out


# --- checks (run after the timed stream, with no span wrappers installed) ---------


def _flat(rows) -> tuple[int, ...]:
    return tuple(v for row in rows for v in row)


def check_op(op: dict, out, rm) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    kind = op["kind"]
    if kind == "smith":
        ranks = {out["snf_rank"], out["inner_rank"], out["via_pi"], out["via_theta"]}
        if len(ranks) != 1:
            return f"rank routes disagree: {out}"
        if op["oracle"]:
            h, m, n = op["h"], op["m"], op["n"]
            a = rm.Mat(rm.ring_spec(h), m, n, tuple(op["entries"]))
            if tuple(map(tuple, out["omega"])) != rm.oracle.omega_via_minors(a):
                return "omega differs from the minor oracle"
            sd = _matmul(h, list(out["S"]), list(out["D"]), m, m, n)
            if _matmul(h, sd, list(out["T"]), m, n, n) != list(op["entries"]):
                return "S @ D @ T does not reproduce the input"
        return None
    if kind == "census":
        h, m, n = op["h"], op["m"], op["n"]
        total = h ** (m * n)
        if out["total"] != total or sum(c for _, c in out["entries"]) != total:
            return "census total is not h^(mn)"
        if not out["label_count"] == out["expected_label_count"] == _label_count(h, m, n):
            return "label count differs from the closed form"
        if op["product"] and out["product_ok"] is not True:
            return "product law failed"
        return None
    if kind == "bfs":
        if out["connected"] is not True or out["sandwich_tight"] is not True or out["degree"] < 1:
            return f"graph check failed: {out}"
        return None
    if kind == "exact":
        h, m, n, r = op["h"], op["m"], op["n"], op["r"]
        if out["omega"] != h ** (n * r) or out["alpha"] != h ** (n * (m - r)):
            return f"exact search gave {out}"
        return None
    expect = dict(op["expect"])
    if out["rc"] != expect.pop("rc"):
        return f"exit code {out['rc']}: {out['stderr'].strip()}"
    obj = json.loads(out["stdout"])
    if "family" in expect:
        fam = json.loads(out["file"])
        got = sorted(_flat(x) for x in fam["members"])
        return None if got == [tuple(x) for x in expect["family"]] else "built family differs from S C T + B0"
    if "code_size" in expect:
        code = json.loads(out["file"])
        if code["size"] != expect["code_size"] or len(code["members"]) != expect["code_size"]:
            return "code has the wrong size"
        return None if code["verified_min_distance"] == expect["distance"] else "code distance is not r + 1"
    for key, want in expect.items():
        got = obj
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if got != want:
            return f"{key} = {got!r}, expected {want!r}"
    return None
