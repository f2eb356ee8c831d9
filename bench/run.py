"""Benchmark of the cayleynorms library: one workload, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The process generates the workload's inputs from the seed (set-up,
repeated SETUP_REPS times), then runs passes over the workload's operations
one after another, each operation starting when the previous one has
returned and been checked.  The number of passes is round(S / pass_s), at
least 1, where pass_s is the workload's pass time on the machine described
in conditions.json: a count fixed by the arguments, so every run of a
workload has the same number of latency samples and its percentiles the
same rank.  Every output is checked; a wrong output, a failed check, an
exception or a missed deadline is a failed operation.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same passes
traced and reports the per-layer metrics: self times and work counts per
pass, taken by wrapping the library's public functions from outside (see
tracer.py).  For the centered workload it then runs one known-hanging
transitivity probe under PROBE_DEADLINE_S; the probe is not one of the
workload's operations.  The metric names and units are those of
BENCHMARK.json.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import os

# Pin the BLAS thread count before numpy loads, so timings do not depend on
# how many cores happen to be free.  The machine this was tuned on has 2.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# setup_s is the median import time of IMPORT_REPS fresh interpreters plus
# the median of SETUP_REPS set-ups (inputs, input files, one warm-up).
IMPORT_REPS = 3
SETUP_REPS = 3
# Every operation runs under OP_DEADLINE_S, about 6x the slowest one
# (verify abelian, 4.5 s).  A hang probe gets PROBE_DEADLINE_S, about 5x the
# slowest transitivity search that completes (paley37, 1.9 s).
OP_DEADLINE_S = 30.0
PROBE_DEADLINE_S = 10.0

# Public functions whose self time per pass is reported as <name>.s.
TIMED = (
    "norms.cut_norm_exact", "norms.infty_one_exact",
    "cayley.find_transitive_automorphisms",
    "norms.symmetric_spectrum", "norms.spectral_norm", "norms.grothendieck_bm",
    "fourier.build_irrep_table", "fourier.fourier_transform",
    "fourier.spectral_via_irreps", "fourier.svd_witness",
    "groups.parse_group_spec", "groups.convolve",
    "serial.parse_matrix", "serial.report_to_text",
)
SELF_TIMED = ("cli.main", "norms.analyze")
# Reported per set-up, from the traced set-up repetitions.
SETUP_TIMED = ("families.random_regular", "families.example1_graph", "families.paley_graph")
SUITES = ("sandwich", "grothendieck", "factor4", "fourier", "witness", "abelian",
          "mixing", "theorem3", "random-sign")
CALLS = ("cayley.find_transitive_automorphisms", "norms.spectral_norm")
COUNTS = (
    "norms.cut_subsets", "norms.infty_one_signs",
    "norms.cut_matmul_flops_computed", "norms.cut_matmul_bytes_computed",
    "norms.infty_one_matmul_flops_computed", "norms.infty_one_matmul_bytes_computed",
    "cayley.transitive_yes", "cayley.transitive_no",
    "norms.bm_restarts", "serial.bytes_written",
)
# Work counters: they must repeat exactly between runs of the same seed.
EXACT = ([f"{n}.calls" for n in CALLS] + list(COUNTS)
         + ["cayley.deadline_probes", "cayley.deadline_misses"])
SOLVERS = ("norms.symmetric_spectrum", "norms.spectral_norm", "norms.grothendieck_bm")


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, from BENCHMARK.json."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in config["end_to_end"]},
            {m["name"]: m["unit"] for m in config["per_layer"]})


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM when an operation's deadline expires.

    A BaseException, like KeyboardInterrupt, so that an ``except Exception``
    in the code it interrupts cannot swallow it: ``np.array_equal``, which
    the transitivity search calls in its inner loop, has one, and a
    swallowed expiry leaves the hang probe running.
    """


def _alarm(signum, frame):
    raise DeadlineExceeded()


class Stats:
    """Outcomes of every operation run, and latencies of the measured ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.deadline_misses = 0
        self.latencies: list[float] = []

    def run(self, op, deadline: float = OP_DEADLINE_S, measured: bool = True) -> bool:
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, deadline)
        start = time.perf_counter()
        try:
            try:
                out = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            latency = time.perf_counter() - start
            op.check(out)
        except DeadlineExceeded:
            self.failed += 1
            self.deadline_misses += 1
            print(f"deadline: {op.label} did not finish in {deadline:g} s", file=sys.stderr)
            return False
        except Exception:
            self.failed += 1
            print(f"failed: {op.label}\n{traceback.format_exc()}", file=sys.stderr)
            return False
        if measured:
            self.latencies.append(latency)
        return True


def run_passes(ops, stats: Stats, passes: int) -> list[float]:
    walls: list[float] = []
    for _ in range(passes):
        t0 = time.perf_counter()
        for op in ops:
            stats.run(op)
        walls.append(time.perf_counter() - t0)
    return walls


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above it."""
    lat = sorted(latencies)
    if not lat:
        return 0.0, 0.0
    if len(lat) <= 10:
        return lat[-1], 100.0
    return lat[-11], 100.0 * (len(lat) - 10) / len(lat)


def layer_metrics(tr, passes: int, setup_tr, traced_wall: float,
                  probes: Stats) -> dict[str, float]:
    from cayleynorms import verify
    from tracer import ANALYZE_TIMING_SPANS, LAYERS

    def per_pass(key: str) -> dict[str, float]:
        return {k: v / passes for k, v in tr[key].items()}

    s, calls, counts = per_pass("self_s"), per_pass("calls"), per_pass("counts")
    m: dict[str, float] = {}
    for n in TIMED:
        m[f"{n}.s"] = s.get(n, 0.0)
    for n in SELF_TIMED:
        m[f"{n}.self_s"] = s.get(n, 0.0)
    for n in SETUP_TIMED:
        m[f"{n}.s"] = setup_tr["self_s"].get(n, 0.0) / SETUP_REPS
    for suite in SUITES:
        m[f"verify.{suite}.s"] = s.get(f"verify.{verify.SUITES[suite].__name__}", 0.0)
    for n in CALLS:
        m[f"{n}.calls"] = calls.get(n, 0.0)
    for n in COUNTS:
        m[n] = counts.get(n, 0.0)
    by_margins = per_pass("enum_by_margins")
    for kind in ("centered", "general"):
        m[f"norms.enum_{kind}.s"] = by_margins.get(kind, 0.0)
    subsets, signs = m["norms.cut_subsets"], m["norms.infty_one_signs"]
    m["norms.cut_ns_per_subset"] = 1e9 * m["norms.cut_norm_exact.s"] / subsets if subsets else 0.0
    m["norms.infty_one_ns_per_sign"] = (1e9 * m["norms.infty_one_exact.s"] / signs
                                        if signs else 0.0)
    m["cayley.deadline_probes"] = probes.attempted
    m["cayley.deadline_misses"] = probes.deadline_misses
    for layer in LAYERS:
        m[f"layer.{layer}.s"] = sum(t for k, t in s.items() if k.startswith(layer + "."))
    # time outside every traced span: the benchmark's own loop and checks
    m["layer.other.s"] = max(traced_wall - sum(s.values()), 0.0)
    m["split.enum_share"] = (m["norms.cut_norm_exact.s"] + m["norms.infty_one_exact.s"]) / traced_wall
    m["split.search_share"] = m["cayley.find_transitive_automorphisms.s"] / traced_wall
    m["split.solver_share"] = (sum(m[f"{n}.s"] for n in SOLVERS) + m["layer.fourier.s"]) / traced_wall
    m["trace.wall_s"] = traced_wall
    # NormReport.timings against the traced spans directly under analyze
    timings, inside = per_pass("analyze_timings"), per_pass("in_analyze_s")
    for part, keys in (("norms", ("spectral", "cut", "infty_one", "bm")),
                       ("cayley", ("transitivity",))):
        recorded = sum(timings.get(k, 0.0) for k in keys)
        traced = sum(inside.get(ANALYZE_TIMING_SPANS[k], 0.0) for k in keys)
        m[f"crosscheck.timings_{part}_s"] = recorded
        m[f"crosscheck.traced_{part}_s"] = traced
        m[f"crosscheck.{part}_rel_diff"] = abs(traced - recorded) / recorded if recorded else 0.0
    return m


def _snapshot(tr) -> dict:
    snap = {k: dict(getattr(tr, k)) for k in
            ("self_s", "calls", "counts", "in_analyze_s", "analyze_timings",
             "enum_by_margins")}
    tr.reset()
    return snap


def import_seconds() -> float:
    """Median time to import numpy and the library in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import numpy, cayleynorms; print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                                  capture_output=True, text=True, timeout=60).stdout)
             for _ in range(IMPORT_REPS)]
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (SRC / "cayleynorms" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'cayleynorms'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    import_s = import_seconds()
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ref_path = BENCH / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}

    signal.signal(signal.SIGALRM, _alarm)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tr = tracer.Tracer() if args.trace else None
    stats = Stats()
    probes = Stats()
    try:
        if tr:
            tr.install()
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            w = workloads.build(args.workload, args.seed, workdir, reference)
            stats.run(w.ops[0], measured=False)
            setup_times.append(time.perf_counter() - t0)
        passes = max(1, round(args.seconds / w.pass_s))
        if tr:
            setup_tr = _snapshot(tr)
        walls = run_passes(w.ops, stats, passes)
        if tr:
            pass_tr = _snapshot(tr)
            tr.uninstall()
            for probe in w.probes:
                probes.run(probe, PROBE_DEADLINE_S, measured=False)
    finally:
        if tr:
            tr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if tr:
        values = layer_metrics(pass_tr, len(walls), setup_tr, statistics.median(walls), probes)
        units = layer_units
        print(f"# {args.workload} seed {args.seed}: {len(walls)} traced passes; "
              f"probes {probes.attempted}, deadline misses {probes.deadline_misses}")
    else:
        tail_s, tail_pct = tail(stats.latencies)
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(stats.latencies) if stats.latencies else 0.0,
            "op_tail_s": tail_s,
            "ops_ok_frac": (stats.attempted - stats.failed) / stats.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = e2e_units
        print(f"# {args.workload} seed {args.seed}: {len(walls)} passes, "
              f"{len(stats.latencies)} op samples; op_tail_s is p{tail_pct:.1f}; "
              f"BLAS threads {BLAS_THREADS}")
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
