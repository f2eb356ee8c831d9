"""Run every workload over ten seeds and check that the benchmark is steady.

    python3 bench/steady.py

For each workload this runs ``bench/run.py --trace 0`` on seeds 0-9, prints
every end-to-end metric by name and unit with its median, quartiles and
spread (interquartile distance over median, as the bound in BENCHMARK.json
is read), and flags a spread above the bound or above a third of it.  It
then runs ``--trace 1`` twice on seed 0, checks that every work counter
repeats exactly, and prints the traced split and the tracing overhead
(traced pass time minus the untraced seed-0 pass time).  Failed operations
are reported per run.  Exits 1 when any run fails, is incorrect, or breaks
a bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SEEDS = range(10)
TRACED_RUNS = 2


def bench_run(config: dict, workload: str, seed: int, trace: int) -> tuple[dict, float]:
    argv = [*config["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in config["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in e2e}
        longest = 0.0
        for seed in SEEDS:
            result, elapsed = bench_run(config, workload, seed, 0)
            longest = max(longest, elapsed)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
            for name in e2e:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.4g}" for name in e2e), flush=True)
        print(f"\n== {workload}: seeds {SEEDS.start}-{SEEDS.stop - 1}, "
              f"longest run {longest:.1f} s")
        print(f"{'metric':14s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, spec in e2e.items():
            vals = values[name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > spec["bound"]:
                flag, ok = "OVER BOUND", False
            elif spread > spec["bound"] / 3:
                flag = "over bound/3"
            print(f"{name:14s} {spec['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {spec['bound']:6.2f} {flag}")

        traced = []
        for _ in range(TRACED_RUNS):
            result, elapsed = bench_run(config, workload, SEEDS.start, 1)
            traced.append(result["metrics"])
            longest = max(longest, elapsed)
            if not result["correct"]:
                ok = False
                print(f"{workload} traced: {result['failed']} operations failed")
        differ = [name for name in run.EXACT if len({t[name]["value"] for t in traced}) > 1]
        if differ:
            ok = False
            print(f"{workload}: counters differ between traced runs: {differ}")
        m = traced[0]
        print(f"traced seed {SEEDS.start} x{TRACED_RUNS}: counters repeat exactly: "
              f"{not differ}; longest run {longest:.1f} s")
        overhead = m["trace.wall_s"]["value"] - values["wall_s"][0]
        print(f"  {'trace.overhead_s':32s} {overhead:12.6g} s")
        for name in ("split.enum_share", "split.search_share", "split.solver_share",
                     "trace.wall_s", "crosscheck.norms_rel_diff",
                     "crosscheck.cayley_rel_diff", "cayley.deadline_misses"):
            print(f"  {name:32s} {m[name]['value']:12.6g} {m[name]['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
