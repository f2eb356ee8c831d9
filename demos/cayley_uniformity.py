#!/usr/bin/env python3
"""Quasirandomness of the Paley graph on 13 vertices.

Small discrepancy and small second eigenvalue are equivalent for Cayley
graphs: lambda <= 8 epsilon d, and the mixing lemma gives the converse
direction.  Paley graphs sit near the optimum on both counts.  Epsilon comes
as an exact Bracket below the enumeration cap, and theorem3_check returns the
inequality's Check together with that Bracket.
"""

import math

from cayleynorms import (
    center_regular,
    cut_norm_exact,
    epsilon_uniformity,
    mixing_lemma_check,
    paley_graph,
    second_eigenvalue,
    spectral_norm,
    theorem3_check,
)

g = paley_graph(13)
n, d = g.n, g.degree
print(f"Paley graph: n = {n}, degree d = {d}")

lam = second_eigenvalue(g.matrix)
print(f"lambda_2 = {lam:.9f}  (conference matrix: (1+sqrt(13))/2 = "
      f"{(1 + math.sqrt(13)) / 2:.9f})")

eps = epsilon_uniformity(g.matrix, d)
print(f"epsilon  = {eps.value:.9f}  (exact, via the cut norm of A - (d/n)J)")

centered = center_regular(g.matrix, d)
print(f"||A - (d/n)J||     = {spectral_norm(centered):.9f}  (equals lambda_2)")
print(f"||A - (d/n)J||_cut = {cut_norm_exact(centered).value:.9f}  (= eps*d*n)")

check, eps = theorem3_check(g.matrix, d)
print(f"\nlambda <= 8 eps d?  {check.lhs:.4f} <= {check.rhs:.4f}  ->  {check.passed}")
print(f"dimensionless ratio lambda/(eps d) = {check.lhs / (eps.value * d):.4f}  "
      "(the bound allows 8)")

ok = mixing_lemma_check(g.matrix, d, lam)
print(f"\nmixing lemma |e(S,T) - (d/n)|S||T|| <= lambda sqrt(|S||T|), "
      f"all 2^13 x 2^13 pairs: {ok}")
ok_tight = mixing_lemma_check(g.matrix, d, lam * 0.35)
print(f"same check with lambda shrunk to 35%: {ok_tight}  "
      "(the inequality is genuinely tight-ish)")
