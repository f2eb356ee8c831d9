#!/usr/bin/env python3
"""Bipartite Cayley graphs: the singular-value analogue of lambda_2.

Between two copies of a group, the weight f(g h^-1) needs no symmetry
assumption at all, so the norm identity ||B - pJ||_G = n ||B - pJ|| applies
directly to the density-centered matrix, with the largest singular value
playing the eigenvalue's role.  The identity is pinned when the certified
Grothendieck bracket lies within 1e-6 relative of n sigma_max.
"""

import numpy as np

from cayleynorms import (
    BMConfig,
    GroupFunction,
    bipartite_cayley_deviation,
    cyclic_group,
)


def pinned(n_sigma, bracket):
    """Does the bracket pin ||B - pJ||_G = n sigma_max within 1e-6 relative?"""
    scale = max(n_sigma, 1e-300)
    return (bracket.lower >= n_sigma - 1e-6 * scale
            and bracket.upper <= n_sigma + 1e-6 * scale)


g = cyclic_group(8)
f = GroupFunction.indicator(g, [1, 2, 5])  # deliberately asymmetric
print(f"bipartite Cayley on Z8 with a 3-element (asymmetric) set; "
      f"density p = {f.values.sum() / g.order}")

sigma, bracket = bipartite_cayley_deviation(f, BMConfig(rank=16, restarts=8))
print(f"sigma_max(B - pJ)     = {sigma:.9f}")
print(f"n * sigma_max         = {g.order * sigma:.9f}")
print(f"grothendieck bracket  = [{bracket.lower:.9f}, {bracket.upper:.9f}]")
print(f"identity ||B - pJ||_G = n sigma_max pinned to 1e-6? "
      f"{pinned(g.order * sigma, bracket)}")

print("\nweighted case (real-valued f, centered by hand at p = 0):")
rng = np.random.Generator(np.random.Philox(7))
fw = GroupFunction(g, rng.standard_normal(8))
sigma, bracket = bipartite_cayley_deviation(fw, BMConfig(rank=16, restarts=8), p=0.0)
print(f"sigma = {sigma:.9f}, bracket = [{bracket.lower:.9f}, "
      f"{bracket.upper:.9f}], equality ok: {pinned(g.order * sigma, bracket)}")
