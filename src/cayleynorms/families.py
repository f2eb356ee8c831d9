"""Named graph families: Paley graphs, cycles, complete graphs, the
eigenvalue-versus-uniformity counterexample construction, random regular
graphs, and bipartite Cayley graphs.

Samplers use the counter-based Philox generator so seeded output is
platform independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import cayley_matrix
from .groups import GroupFunction, cyclic_group
from .norms import BMConfig, grothendieck_bounds, spectral_norm

CONFIG_MODEL_MAX_TRIES = 10_000


@dataclass(frozen=True)
class RegularGraph:
    """A simple d-regular graph as a symmetric 0/1 matrix with zero diagonal."""

    n: int
    degree: int
    matrix: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        a = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if a.shape != (self.n, self.n):
            raise ValueError(f"matrix shape {a.shape} does not match n = {self.n}")
        if not np.isin(a, (0.0, 1.0)).all():
            raise ValueError("entries must be 0/1")
        if np.any(np.diag(a) != 0.0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix must be symmetric")
        if not np.all(a.sum(axis=1) == self.degree):
            raise ValueError(f"row sums must all equal {self.degree}")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            return False
    return True


def quadratic_residues(p: int) -> list[int]:
    """Nonzero quadratic residues mod p, ascending."""
    return sorted({(x * x) % p for x in range(1, p)})


def paley_graph(p: int) -> RegularGraph:
    """The Paley graph on Z_p: x ~ y iff x - y is a nonzero square mod p.

    Needs p prime with p = 1 mod 4 so that -1 is a residue and the
    generating set is symmetric; the degree is (p-1)/2.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"p = {p} is {p % 4} mod 4; need 1 mod 4 for a symmetric set")
    a = cayley_matrix(GroupFunction.indicator(cyclic_group(p), quadratic_residues(p)))
    return RegularGraph(n=p, degree=(p - 1) // 2, matrix=a, provenance=f"paley p={p}")


def cycle_graph(n: int) -> RegularGraph:
    """The n-cycle C_n (n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    a = cayley_matrix(GroupFunction.indicator(cyclic_group(n), {1 % n, (n - 1) % n}))
    return RegularGraph(n=n, degree=2, matrix=a, provenance=f"cycle n={n}")


def complete_graph(n: int) -> RegularGraph:
    """The complete graph K_n."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    a = np.ones((n, n)) - np.eye(n)
    return RegularGraph(n=n, degree=n - 1, matrix=a, provenance=f"complete n={n}")


def petersen_graph() -> RegularGraph:
    """The Petersen graph: 2-subsets of a 5-set, adjacent when disjoint.

    The standard example of a vertex-transitive graph that is not a Cayley
    graph.
    """
    import itertools

    pairs = list(itertools.combinations(range(5), 2))
    a = np.zeros((10, 10))
    for i, p in enumerate(pairs):
        for j, q in enumerate(pairs):
            if not set(p) & set(q):
                a[i, j] = 1.0
    return RegularGraph(n=10, degree=3, matrix=a, provenance="petersen")


def _suitable(edges: set[tuple[int, int]], potential: dict[int, int]) -> bool:
    """Can any pair of leftover stubs still form a new simple edge?"""
    if not potential:
        return True
    nodes = list(potential)
    for i, s in enumerate(nodes):
        for t in nodes[:i]:
            a, b = (s, t) if s < t else (t, s)
            if (a, b) not in edges:
                return True
    return False


def _pairing_attempt(degrees: np.ndarray, rng) -> Optional[set[tuple[int, int]]]:
    """One configuration-model attempt: pair stubs, re-shuffling rejects.

    Loops and multi-edges are rejected and their stubs re-paired; the
    attempt fails (None) when the leftover stubs can no longer form a new
    simple edge.  Adapted from the standard NetworkX sampler.
    """
    n = degrees.shape[0]
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(n), degrees)
    while stubs.size:
        rng.shuffle(stubs)
        potential: dict[int, int] = {}
        it = iter(stubs.tolist())
        for s, t in zip(it, it):
            if s > t:
                s, t = t, s
            if s != t and (s, t) not in edges:
                edges.add((s, t))
            else:
                potential[s] = potential.get(s, 0) + 1
                potential[t] = potential.get(t, 0) + 1
        if not _suitable(edges, potential):
            return None
        stubs = np.array(
            [node for node, cnt in potential.items() for _ in range(cnt)],
            dtype=np.int64,
        )
    return edges


def _random_graph_with_degrees(degrees: np.ndarray, rng) -> np.ndarray:
    """Simple graph with the given degree sequence by stub pairing with rejection."""
    n = degrees.shape[0]
    if int(degrees.sum()) % 2:
        raise ValueError("degree sequence has odd sum")
    if np.any(degrees < 0) or np.any(degrees >= n):
        raise ValueError("degrees must lie in [0, n)")
    for _ in range(CONFIG_MODEL_MAX_TRIES):
        edges = _pairing_attempt(degrees, rng)
        if edges is not None:
            a = np.zeros((n, n))
            for s, t in edges:
                a[s, t] = a[t, s] = 1.0
            return a
    raise RuntimeError(
        f"configuration model failed to produce a simple graph in "
        f"{CONFIG_MODEL_MAX_TRIES} tries; try another seed"
    )


def random_regular(n: int, d: int, seed: int = 0) -> RegularGraph:
    """A random d-regular simple graph via configuration-model pairing."""
    if (n * d) % 2:
        raise ValueError("n * d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    rng = np.random.Generator(np.random.Philox(seed))
    a = _random_graph_with_degrees(np.full(n, d, dtype=np.int64), rng)
    return RegularGraph(n=n, degree=d, matrix=a,
                        provenance=f"random_regular n={n} d={d} seed={seed}")


def example1_graph(d: int, n: int, seed: int = 0) -> RegularGraph:
    """A d-regular graph with eigenvalue -d/2 despite small discrepancy.

    Three parts: U and V of size t = d/2 joined completely; a set W1 of
    d^2/4 vertices, each joined to both endpoints of its own U-V edge
    (edges in lexicographic order against ascending W1 indices); the rest
    W0 sees nothing outside W.  Inside W a random graph fills degrees up to
    d (W0) and d-2 (W1).  The vector +1 on U, -1 on V is an eigenvector
    with eigenvalue -d/2.
    """
    if d <= 0 or d % 2:
        raise ValueError(f"d must be even and positive, got {d}")
    t = d // 2
    w1_size = d * d // 4
    if n < 2 * t + w1_size:
        raise ValueError(
            f"n = {n} is too small: need at least 2t + d^2/4 = {2 * t + w1_size}"
        )
    w_size = n - 2 * t
    w0_size = w_size - w1_size
    inner = np.concatenate([
        np.full(w1_size, d - 2, dtype=np.int64),
        np.full(w0_size, d, dtype=np.int64),
    ])
    if int(inner.sum()) % 2:
        raise ValueError(
            f"infeasible (d, n) = ({d}, {n}): internal degree sum is odd"
        )
    if np.any(inner >= w_size):
        raise ValueError(
            f"infeasible (d, n) = ({d}, {n}): internal degree exceeds |W| - 1"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    w_graph = _random_graph_with_degrees(inner, rng)

    a = np.zeros((n, n))
    u = range(0, t)
    v = range(t, 2 * t)
    for i in u:
        for j in v:
            a[i, j] = a[j, i] = 1.0
    # W1 occupies indices 2t .. 2t + t^2 - 1, one per (u, v) edge in lex order
    idx = 2 * t
    for i in u:
        for j in v:
            a[idx, i] = a[i, idx] = 1.0
            a[idx, j] = a[j, idx] = 1.0
            idx += 1
    a[2 * t:, 2 * t:] = w_graph
    return RegularGraph(n=n, degree=d, matrix=a,
                        provenance=f"example1 d={d} n={n} seed={seed}")


# ---------------------------------------------------------------------------
# Bipartite analogues


def bipartite_deviation(b: np.ndarray, p: float) -> float:
    """Largest singular value of B - pJ, the bipartite analogue of lambda_2."""
    b = np.asarray(b, dtype=np.float64)
    return spectral_norm(b - p)


@dataclass(frozen=True)
class BipartiteDeviationReport:
    """sigma_max(B - pJ) with the Grothendieck bracket of the centered matrix."""

    sigma: float
    groth_lower: float
    groth_upper: float
    n_sigma: float

    @property
    def transitive_equality_ok(self) -> bool:
        """Does the bracket pin ||B - pJ||_G = n sigma_max within 1e-6 relative?"""
        scale = max(self.n_sigma, 1e-300)
        return (
            self.groth_lower >= self.n_sigma - 1e-6 * scale
            and self.groth_upper <= self.n_sigma + 1e-6 * scale
        )


def bipartite_cayley_deviation(f: GroupFunction, cfg: Optional[BMConfig] = None,
                               p: Optional[float] = None) -> BipartiteDeviationReport:
    """Deviation report for the bipartite Cayley matrix B = cayley_matrix(f).

    Centers by the edge density sum f / n of a 0/1 function (or a supplied
    p), computes sigma_max, and checks the bitransitive identity
    ||B - pJ||_G = n ||B - pJ|| via the Grothendieck bracket.  Complex f is a
    ValueError: the Grothendieck bracket is for real matrices.
    """
    n = f.group.order
    if p is None:
        if np.iscomplexobj(f.values) or not np.isin(f.values, (0.0, 1.0)).all():
            raise ValueError("function is weighted; pass the centering density p")
        p = float(f.values.sum() / n)
    centered = cayley_matrix(f) - p
    sigma = spectral_norm(centered)
    lower, upper = grothendieck_bounds(centered, cfg)
    return BipartiteDeviationReport(
        sigma=sigma, groth_lower=lower, groth_upper=upper, n_sigma=n * sigma,
    )
