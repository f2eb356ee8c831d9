#!/usr/bin/env python3
"""Lift a vertex-transitive matrix to a group function and watch the norms match.

The Petersen graph is vertex-transitive but not a Cayley graph.  Still, any
transitive group of automorphisms lets us transport the matrix to a function
on that group with n ||f|| = ||A||, and on groups the spectral and
Grothendieck norms coincide, which pins ||A||_G = n ||A|| for the matrix.
The search returns a few generator rows; `group_closure` makes the group.
"""

import numpy as np

from cayleynorms import (
    BMConfig,
    center_regular,
    cut_norm_exact,
    find_transitive_automorphisms,
    grothendieck_bm,
    group_closure,
    group_spectral,
    lift_to_group,
    petersen_graph,
    spectral_norm,
)

g = petersen_graph()
a = g.matrix
print(f"Petersen: n = {g.n}, d = {g.degree}")

rows = find_transitive_automorphisms(a)
subgroup = group_closure(g.n, rows)
order = subgroup.order
print(f"transitive? {rows is not None}; the closure of the {len(rows)} "
      f"generators the orbit search found has order {order}")

f = lift_to_group(a, subgroup)
print(f"lifted f lives on a group of order {order}; "
      f"it takes the value 1 on {int(f.values.sum())} elements "
      f"(= |G| d / n = {order * g.degree // g.n})")

print(f"n * ||f||  = {g.n * group_spectral(f):.9f}")
print(f"||A||      = {spectral_norm(a):.9f}")

centered = center_regular(a, g.degree)
ns = g.n * spectral_norm(centered)
bm, _ = grothendieck_bm(centered, BMConfig(rank=16, restarts=8))
cut = cut_norm_exact(centered).value
print(f"\ncentered matrix: n ||A_c|| = {ns:.9f}")
print(f"grothendieck ascent        = {bm:.9f}  (reaches n ||A_c||)")
print(f"cut norm                   = {cut:.9f}")
print(f"sandwich: {cut:.4f} <= {ns:.4f} <= {8 * cut:.4f}")

print("\nand a non-transitive contrast: the star K_1,3")
star = np.zeros((4, 4))
star[0, 1:] = star[1:, 0] = 1.0
print(f"generator rows: {find_transitive_automorphisms(star)}")
