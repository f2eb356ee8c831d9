"""Record the reference values the benchmark compares analyze outputs with.

    python3 bench/record_reference.py

For each analyze workload on seeds 0 and 1, runs every distinct operation
once and stores its cut value, infinity-to-one norm and transitivity flag in
``bench/reference.json``.  Run it only at a commit whose outputs are trusted;
later runs of the benchmark on those seeds require the same values within
workloads.REF_TOL relative.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

ANALYZE_WORKLOADS = ("centered", "general")
SEEDS = (0, 1)


def main() -> int:
    reference: dict = {}
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in ANALYZE_WORKLOADS:
            for seed in SEEDS:
                w = workloads.build(name, seed, workdir, {})
                values = {}
                for op in w.ops:
                    if op.label in values:
                        continue
                    op.run()
                    op.check(None)
                    r = json.loads((workdir / f"{op.label}.report.json").read_text())
                    values[op.label] = {
                        "cut": None if r["cut"] is None else r["cut"]["value"],
                        "infty_one": r["infty_one"],
                        "transitive": r["transitive"],
                    }
                reference.setdefault(name, {})[str(seed)] = values
                print(f"{name} seed {seed}: {len(values)} operations recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
