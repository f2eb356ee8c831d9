#!/usr/bin/env python3
"""Walk through the four matrix norms and the inequalities chaining them.

cut <= infinity-to-one <= 4 cut, infinity-to-one <= G <= 1.783 infinity-to-one,
and G <= sqrt(mn) ||A||.  The 2x2 matrix [[1,-1],[-1,1]] shows the factor 4
between cut and infinity-to-one is real.  A report's Grothendieck bracket is
one certified Bracket, `report.groth`; the exact cut norm is a one-point
Bracket whose witness is its (row set, column set).
"""

import numpy as np

from cayleynorms import (
    BMConfig,
    analyze,
    cut_norm_exact,
    grothendieck_bm,
    infty_one_exact,
    spectral_norm,
)

print("=== the factor-4 example ===")
a = np.array([[1.0, -1.0], [-1.0, 1.0]])
cut = cut_norm_exact(a)
rows, cols = cut.witness
print(f"matrix:\n{a}")
print(f"cut norm          = {cut.value}  (rows {rows}, cols {cols})")
print(f"infinity-to-one   = {infty_one_exact(a)}   <- exactly 4x the cut norm")
print(f"spectral norm     = {spectral_norm(a)}")
bm, assignment = grothendieck_bm(a, BMConfig(rank=2))
print(f"grothendieck rank-2 ascent = {bm:.12f}")
print(f"upper bound sqrt(mn)||A||  = {2 * spectral_norm(a)}")
print("so ||A||_G = 4 exactly: the bracket closes.\n")

print("=== a random matrix: the full report ===")
rng = np.random.Generator(np.random.Philox(1))
m = rng.standard_normal((6, 8))
report = analyze(m)
print(f"spectral   = {report.spectral:.6f}")
print(f"cut        = {report.cut.value:.6f}")
print(f"infty->1   = {report.infty_one:.6f}")
print(f"G bracket  = [{report.groth.lower:.6f}, {report.groth.upper:.6f}] "
      f"(ascent rank {report.bm_rank})")
print("verified inequalities:")
for c in report.checks:
    print(f"  [{'ok' if c.passed else 'VIOLATED'}] {c.name}: "
          f"{c.lhs:.6f} <= {c.rhs:.6f}  (margin {c.margin:.3g})")
