"""treeconn benchmark: one workload, measured end to end or traced by layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload kernel-search --seed 1 --seconds 55 --trace 0

The workload's seed fixes its query list (see ``queries.py``).  The run
runs one untimed warm-up round, then repeats the query list in timed rounds
until ``--seconds`` have passed, each round on one CPU in turn; between
rounds it measures set-up time in fresh processes.
Every answer of every round is checked against its expected answer, and the
deterministic counters of every round must equal those of the first.

``--trace 0`` prints the end-to-end metrics: set-up seconds, the seconds to
answer and re-verify the whole query list (``wall_ref_s``, the fastest timed
round), the median query latency, the tail latency (the highest
percentile with at least ten queries beyond it) and peak resident memory.
The three timings are scaled to a reference pace of the machine (see
``REF_PIECE_S``); the detail line gives the round times as measured.
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of the traced rounds, with the tracing overhead.  Details
(environment stamp, counters, every layer total) go to the lines before the
last, the spans of one traced round to ``.perfbench/``.  The last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 15
MIN_ROUNDS = 3
# The machine's pace.  On a shared 2-vCPU host the same rounds ran up to
# twice as slow for minutes at a time, far past the 25% bounds.  Every round
# therefore also times a fixed piece of Python work (``pace_piece``) every
# PACE_INTERVAL seconds, and the ``*_ref_s`` metrics scale the round's
# timings by REF_PIECE_S over the round's median piece time: they read as
# seconds at the pace at which the piece takes REF_PIECE_S, its time on that
# host when it was quiet.
PACE_INTERVAL = 0.2
REF_PIECE_S = 0.0005

# Per-layer metrics printed with --trace 1.  Every traced round ends with
# the probe calls (``queries.probe``), so each of these is measured on every
# workload, also where the workload's own queries never call the function.
LAYER_TIMES = (
    "kernels.s",
    "kernels.doubling_pair_sweep.s", "kernels.dfs_bad_coloring.s", "kernels.dfs_degree.s",
    "kernels.pair_filter.s", "kernels.rigid_fill.s", "kernels.rigid_count.s",
    "kernels.pair_caps.s", "kernels.embedding_search.s",
    "homsets.s", "homsets.self_s",
    *(f"homsets.{c}.s" for c in ("conn", "psc", "conn-linear", "conn-root",
                                  "incinj", "rigid", "emb")),
    "search.s", "search.self_s", "search.copy_family.s", "search.copy_family.self_s",
    "search.arrow_check.self_s", "search.degree_at_witness.self_s",
    "search.verify_lower_bound.self_s",
    "morphisms.compose.s", "colorings.powerset_coloring.s",
    "constructions.doubling_tree.s", "cli.main.self_s",
)
LAYER_COUNTS = (
    "kernels.doubling_pair_sweep.pairs", "kernels.dfs_bad_coloring.nodes",
    "kernels.dfs_degree.nodes", "kernels.pair_filter.cells", "kernels.rigid_fill.rows",
    "kernels.embedding_search.calls", "kernels.embedding_search.rows",
    "homsets.calls", "homsets.morphisms",
    "search.copy_family.composites", "search.copy_family.copies",
    "morphisms.compose.calls", "colorings.powerset_coloring.calls",
    "constructions.doubling_tree.calls", "cli.main.calls", "trace.spans",
)
# Useful outcomes per attempt: ratio name -> (numerator, denominator).
LAYER_RATIOS = {
    "kernels.pair_filter.hit_ratio": ("kernels.pair_filter.hits", "kernels.pair_filter.cells"),
    "kernels.doubling_pair_sweep.feasible_ratio": (
        "kernels.doubling_pair_sweep.feasible", "kernels.doubling_pair_sweep.pairs"),
    "search.copy_family.dedup_ratio": ("search.copy_family.distinct", "search.copy_family.copies"),
}
# Search speed: rate name -> (node counter, time).
LAYER_RATES = {
    "kernels.dfs_bad_coloring.nodes_per_s": (
        "kernels.dfs_bad_coloring.nodes", "kernels.dfs_bad_coloring.s"),
    "kernels.dfs_degree.nodes_per_s": ("kernels.dfs_degree.nodes", "kernels.dfs_degree.s"),
}


def import_treeconn():
    """Import treeconn from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "treeconn" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'treeconn'} not found; run from a treeconn checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import treeconn
    if Path(treeconn.__file__).resolve().parent != SRC / "treeconn":
        sys.exit(f"error: imported treeconn from {treeconn.__file__}, not {SRC}")
    return treeconn


def probe(workload: str) -> None:
    """Set-up probe, run in a fresh process: import and warm up, print seconds."""
    t0 = time.perf_counter()
    import_treeconn()
    import queries
    queries.warm_up(workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str) -> float:
    """Seconds one fresh process takes to import and warm up."""
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def pace_piece() -> float:
    """Seconds taken by a fixed piece of work that does not touch treeconn:
    dict and tuple churn, like the library's own Python loops."""
    t0 = time.perf_counter()
    table = {}
    for i in range(2000):
        table[i, i * 7 % 13] = len(table) & 7
    return time.perf_counter() - t0


class Round:
    """One pass over the query list: latencies, answers and counters, and
    ``scale``, which turns its timings into seconds at the reference pace."""

    def __init__(self, query_list, tracer=None):
        self.latency = []
        self.results = []
        self.failures = []
        # Every round starts from the same heap, so it runs the same garbage
        # collections as every other round.
        gc.collect()
        pieces = [pace_piece()]
        start = last_piece = time.perf_counter()
        for q in query_list:
            if time.perf_counter() - last_piece >= PACE_INTERVAL:
                pieces.append(pace_piece())
                last_piece = time.perf_counter()
            if tracer is not None:
                tracer.query = q.qid
            t0 = time.perf_counter()
            try:
                answer, counters = q.call()
            except Exception as exc:  # a raising query is a failed query, not a crash
                answer, counters = f"error: {type(exc).__name__}: {exc}", {}
            self.latency.append(time.perf_counter() - t0)
            self.results.append((answer, counters))
            if answer != q.expected:
                self.failures.append(f"{q.qid}: got {answer!r}, expected {q.expected!r}")
        self.wall = time.perf_counter() - start - sum(pieces[1:])
        pieces.append(pace_piece())
        self.scale = REF_PIECE_S / statistics.median(pieces)
        self.wall_ref = self.wall * self.scale


@contextlib.contextmanager
def on_cpu(cpu, cpus):
    """Run the block on one CPU, then allow all of ``cpus`` again.

    Timed rounds rotate over the CPUs this process may use.  On a shared
    machine a neighbour can slow one CPU for many seconds; rotating gives
    every query timings on each CPU.  Only
    this process's own affinity changes.
    """
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def query_latencies(rounds):
    """Each query's latency at the reference pace, for ``query_tail_ref_s``:
    the median of its scaled timings over the rounds."""
    return [statistics.median(vals)
            for vals in zip(*([x * r.scale for x in r.latency] for r in rounds))]


def tail(values):
    """Value with exactly ten values beyond it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def source_digest() -> str:
    """Digest of the library and benchmark sources: runs of other code are
    not compared."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "treeconn").glob("*.py"), *HERE.glob("*.py"), HERE / "pinned.json"]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_history(key: str, kind: str, value: str) -> str | None:
    """Compare a counter digest with the one an earlier run of the same
    source and seed recorded in ``.perfbench/``; record it when new."""
    path = OUT / f"counters-{source_digest()}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    old = seen.get(key, {}).get(kind)
    if old is not None and old != value:
        return f"{kind} counters differ from an earlier run of this seed ({old} != {value})"
    if old is None:
        seen.setdefault(key, {})[kind] = value
        OUT.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, sort_keys=True, indent=1))
        tmp.replace(path)
    return None


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def stamp(treeconn) -> dict:
    import numpy
    return {
        "backend": treeconn.kernels.BACKEND,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="treeconn benchmark")
    ap.add_argument("--workload", required=False)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe:
        probe(args.probe)
        return 0
    treeconn = import_treeconn()
    import queries
    import tracing
    if args.workload not in queries.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(queries.WORKLOADS)}")

    query_list = queries.build(args.workload, args.seed)
    env = stamp(treeconn)
    print("stamp " + json.dumps({**env, "workload": args.workload, "seed": args.seed,
                                 "queries": len(query_list), "trace": args.trace}))

    tracer = tracing.Tracer() if args.trace else None
    rounds = [Round(query_list)]  # warm-up round: checked, not timed
    timed, traced, layer_rounds = [], [], []
    problems = []
    # Set-up probes run between rounds, so they sample the whole run.
    setup_times = [measure_setup(args.workload)]
    cpus = sorted(os.sched_getaffinity(0))
    t_start = time.perf_counter()
    while True:
        if tracer is not None and len(timed) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                with on_cpu(cpus[len(traced) % len(cpus)], cpus):
                    r = Round(query_list, tracer)
                    tracer.query = "probe"
                    queries.probe()
            finally:
                tracer.uninstall()
            traced.append(r)
            layer_rounds.append(tracing.aggregate(tracer.spans))
        else:
            with on_cpu(cpus[len(timed) % len(cpus)], cpus):
                r = Round(query_list)
            timed.append(r)
        rounds.append(r)
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(measure_setup(args.workload))
        elapsed = time.perf_counter() - t_start
        enough = len(timed) >= MIN_ROUNDS and (tracer is None or len(traced) >= MIN_ROUNDS)
        if enough and elapsed + r.wall > args.seconds:
            break

    while len(setup_times) < SETUP_PROBES:
        setup_times.append(measure_setup(args.workload))
    setup_s = statistics.median(setup_times)

    # Deterministic counters: every round must repeat the first exactly.
    first = [c for _, c in rounds[0].results]
    for i, r in enumerate(rounds[1:], 1):
        if [c for _, c in r.results] != first:
            problems.append(f"round {i}: result counters differ from round 0")
    key = f"{args.workload}/{args.seed}"
    problems.append(check_history(key, "result", digest_of(first)))
    if layer_rounds:
        counts = [lr["counts"] for lr in layer_rounds]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("traced rounds disagree on span counters")
        problems.append(check_history(key, "trace", digest_of(counts[0])))
    problems = [p for p in problems if p]

    attempted = sum(len(r.results) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    for line in sorted(set(failures)) + problems:
        print("FAIL " + line)

    per_query = query_latencies(timed)
    tail_s, tail_pct = tail(per_query)
    # wall_ref_s is the fastest timed round at the reference pace.  Every
    # round does the same deterministic work from the same heap; in the
    # slower ones a busy neighbour slowed the queries more than the pieces.
    wall_ref_s = min(r.wall_ref for r in timed)
    walls = sorted(r.wall for r in timed)
    paces = sorted(REF_PIECE_S / r.scale for r in timed)
    print(f"rounds timed={len(timed)} traced={len(traced)} queries={len(per_query)} "
          f"round_s min={walls[0]:.4f} median={statistics.median(walls):.4f} max={walls[-1]:.4f} "
          f"piece_s min={paces[0]:.6f} max={paces[-1]:.6f} "
          f"query_tail_ref_s=p{tail_pct:.1f} of {len(per_query)} queries "
          f"failed_ratio={len(failures) / attempted:.6f}")
    if args.trace:
        metrics = layer_metrics(layer_rounds, traced, wall_ref_s)
        write_trace(args, env, tracer.spans, layer_rounds[-1])
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref_s": (wall_ref_s, "s"),
            # The median of every scaled timing of every timed round.
            "query_p50_ref_s": (
                statistics.median(x * r.scale for r in timed for x in r.latency), "s"),
            "query_tail_ref_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(layer_rounds, traced, untraced_wall) -> dict:
    """Per-layer metrics: each time is its median over the traced rounds,
    counts are those of every traced round; plus the tracing overhead, the
    fastest traced round minus the untraced one, both at the reference pace.  Times and counts include the
    probe calls that end every traced round; the round times do not."""
    keys = {k for lr in layer_rounds for k in lr["times"]}
    times = {k: statistics.median(lr["times"].get(k, 0.0) for lr in layer_rounds) for k in keys}
    counts = layer_rounds[0]["counts"]
    round_s = statistics.median(r.wall for r in traced)
    busiest = sorted((k for k in times if k.count(".") == 2 and k.endswith(".self_s")),
                     key=times.get, reverse=True)[:3]
    print("dominant " + ", ".join(
        f"{k[:-len('.self_s')]} {times[k] / round_s:.0%}" for k in busiest)
        + f" of a traced round ({round_s:.3f} s, median)")
    for k in sorted(times, key=times.get, reverse=True):
        print(f"layer {k} {times[k]:.6f} s")
    for k in sorted(counts):
        print(f"count {k} {counts[k]}")
    metrics = {k: (times.get(k, 0.0), "s") for k in LAYER_TIMES}
    metrics.update({k: (counts.get(k, 0), "count") for k in LAYER_COUNTS})
    for k, (num, den) in LAYER_RATIOS.items():
        metrics[k] = (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0, "ratio")
    for k, (num, den) in LAYER_RATES.items():
        metrics[k] = (counts.get(num, 0) / times[den] if times.get(den) else 0.0, "1/s")
    metrics["trace.overhead_s"] = (min(r.wall_ref for r in traced) - untraced_wall, "s")
    return metrics


def write_trace(args, env, spans, aggregate) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "stamp": env,
        "fields": ["name", "start", "end", "parent", "query", "counters", "category"],
        "spans": spans,
        "aggregate": aggregate,
    }))
    print(f"trace {path.relative_to(ROOT)} ({len(spans)} spans of the last traced round)")


if __name__ == "__main__":
    sys.exit(main())
