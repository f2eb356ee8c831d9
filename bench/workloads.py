"""The benchmark's workloads: seeded inputs, the operations run on them, and
the checks every operation's output must pass.

Every operation enters the library the way a user does: through
``cayleynorms.cli.main`` (``analyze``, ``fourier``, ``verify``) or through the
public uniformity functions.  Library functions are looked up on their module
at call time, so a tracer that wraps them sees every call.

The first operation of each workload doubles as the set-up warm-up, so its
cost does not depend on the seed.  The lists are built so that the median
operation and the tail percentile fall inside a group of operations of one
seed-independent cost, not on the edge between two groups (see
``conditions.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from cayleynorms import cayley, cli, families, groups, norms, serial

WORKLOADS = ("centered", "general", "spectra")

# Relative tolerance for comparing a library value with its LAPACK reference.
REL_TOL = 1e-9
# Relative tolerance against the values recorded at the reference commit.
REF_TOL = 1e-12
# Above this size the library does not attempt the automorphism search
# (norms.analyze transitivity_limit), so the flag may be None.
SEARCH_CAP = 64

# Seeded random 4-regular graphs (n, graph seed) on which the automorphism
# search did not finish within 30 s at the reference commit.  The centered
# workload runs one of them per traced run under PROBE_DEADLINE_S.
HANG_CASES = ((28, 1), (30, 0), (30, 1), (30, 2), (32, 0), (32, 1), (32, 2))


class Mismatch(Exception):
    """An operation's output failed one of its checks."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op]
    # Median seconds per pass on the machine described in conditions.json.
    pass_s: float


def _close(got: float, want: float, rel: float, what: str) -> None:
    if not abs(got - want) <= rel * max(1.0, abs(want)):
        raise Mismatch(f"{what}: got {got!r}, want {want!r} (rel tol {rel})")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def surely_intransitive(adj: np.ndarray) -> Optional[bool]:
    """True when some vertex invariant differs between two vertices, else None.

    The invariants are the sorted row, the sorted column, the diagonal entry
    and the closed-walk counts diag(A^k), k <= 10; an automorphism preserves
    each, so two distinct values prove the matrix is not vertex-transitive.
    """
    a = np.asarray(adj)
    if len({np.sort(r).tobytes() for r in a}) > 1:
        return True
    if len({np.sort(c).tobytes() for c in a.T}) > 1 or len(set(np.diag(a))) > 1:
        return True
    if np.array_equal(a, np.round(a)):
        walks = a.astype(np.int64)
        power = walks.copy()
        for _ in range(9):
            power = power @ walks
            if len(set(np.diag(power))) > 1:
                return True
    return None


def _cli(argv: list[str]) -> Callable[[], int]:
    def run() -> int:
        code = cli.main(argv)
        if code != 0:
            raise Mismatch(f"cayleynorms {argv[0]} exited with {code}")
        return code
    return run


class Builder:
    """Creates one workload's input files and operations in a work directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference.get(workload, {}).get(str(seed), {})
        self.groups: dict[str, groups.GroupTable] = {}

    def graph_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def rng(self, k: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.graph_seed(k)))

    def analyze(self, label: str, a: np.ndarray, transitive: Optional[bool],
                extra: tuple[str, ...] = ()) -> Op:
        """CLI analyze on matrix `a`; `transitive` is the known answer (None: unknown)."""
        path = self.workdir / f"{label}.json"
        out = self.workdir / f"{label}.report.json"
        path.write_text(serial.matrix_to_text(a))
        m, n = a.shape
        sigma = float(np.linalg.norm(a, 2))
        ref = self.reference.get(label)

        def check(_) -> None:
            r = json.loads(out.read_text())
            _require(r["kind"] == "norm_report" and (r["rows"], r["cols"]) == (m, n),
                     f"{label}: wrong report header")
            _close(r["spectral"], sigma, REL_TOL, f"{label} spectral vs LAPACK")
            cut = r["cut"]
            if cut is not None:
                rows, cols = cut["row_set"], cut["col_set"]
                value = abs(float(a[np.ix_(rows, cols)].sum())) if rows and cols else 0.0
                _close(value, cut["value"], REL_TOL, f"{label} cut from its witness sets")
            lo, hi = r["groth_lower"], r["groth_upper"]
            _require(lo <= hi * (1 + 1e-12), f"{label}: bracket [{lo}, {hi}] inverted")
            if transitive and m == n:
                target = n * sigma
                _require(lo <= target * (1 + REL_TOL) and hi >= target * (1 - REL_TOL),
                         f"{label}: bracket [{lo}, {hi}] misses n||A|| = {target}")
            flag = r["transitive"]
            if transitive is not None and m == n:
                allowed = (transitive,) if n <= SEARCH_CAP else (transitive, None)
                _require(flag in allowed, f"{label}: transitive = {flag}, known {transitive}")
            failed = [c["name"] for c in r["checks"] if not c["passed"]]
            _require(not failed, f"{label}: report checks failed: {failed}")
            if ref is not None:
                for key in ("cut", "infty_one"):
                    got = None if r[key] is None else (
                        r[key]["value"] if key == "cut" else r[key])
                    want = ref[key]
                    _require((got is None) == (want is None),
                             f"{label} {key}: {got} vs recorded {want}")
                    if want is not None:
                        _close(got, want, REF_TOL, f"{label} {key} vs recorded")
                _require(flag == ref["transitive"],
                         f"{label}: transitive {flag} vs recorded {ref['transitive']}")

        argv = ["analyze", str(path), "--out", str(out), "--quiet", *extra]
        return Op(label, _cli(argv), check)

    def graph(self, label: str, g, transitive: Optional[bool] = None,
              extra: tuple[str, ...] = ()) -> Op:
        """CLI analyze on the degree-centered matrix of a regular graph."""
        if transitive is None:
            transitive = False if surely_intransitive(g.matrix) else None
        centered = cayley.center_regular(g.matrix, g.degree)
        return self.analyze(label, centered, transitive, extra)

    def matrix(self, label: str, a: np.ndarray) -> Op:
        known = False if a.shape[0] == a.shape[1] and surely_intransitive(a) else None
        return self.analyze(label, a, known)

    def verify(self, suite: str) -> Op:
        out = self.workdir / f"verify-{suite}.json"

        def check(_) -> None:
            r = json.loads(out.read_text())
            failed = [c["name"] for c in r["checks"] if not c["passed"]]
            _require(r["passed"] and r["checks"] and not failed,
                     f"verify {suite}: failed checks {failed}")

        argv = ["verify", suite, "--out", str(out), "--quiet"]
        return Op(f"verify-{suite}", _cli(argv), check)

    def fourier(self, spec: str, k: int) -> Op:
        if spec not in self.groups:
            self.groups[spec] = groups.parse_group_spec(spec)
        g = self.groups[spec]
        f = groups.GroupFunction(g, self.rng(k).standard_normal(g.order))
        path = self.workdir / f"fourier-{spec}-{k}.json"
        out = self.workdir / f"fourier-{spec}-{k}.report.json"
        path.write_text(serial.function_to_text(f))
        want = float(np.linalg.norm(f.values[g.ghinv], 2)) / g.order

        def check(_) -> None:
            r = json.loads(out.read_text())
            _require(sum(d * d for d in r["irrep_dims"]) == g.order,
                     f"fourier {spec}: irrep dimensions do not match the order")
            _close(r["spectral_via_irreps"], want, REL_TOL, f"fourier {spec} via irreps")
            _close(r["spectral_dense"], want, REL_TOL, f"fourier {spec} dense")
            _close(r["svd_witness_objective"], want, 1e-8, f"fourier {spec} witness")

        argv = ["fourier", str(path), "--out", str(out), "--quiet"]
        return Op(f"fourier-{spec}-{k}", _cli(argv), check)

    def uniformity(self, label: str, g) -> Op:
        """second_eigenvalue plus the epsilon_uniformity bracket of a d-regular graph."""
        a, d, n = g.matrix, float(g.degree), g.n
        eig = np.linalg.eigvalsh(a)
        lam2 = float(np.sort(np.abs(eig))[-2])
        sigma_c = float(np.linalg.norm(a - d / n, 2))

        def run():
            return norms.second_eigenvalue(a), norms.epsilon_uniformity(a, d)

        def check(result) -> None:
            lam, est = result
            _close(lam, lam2, REL_TOL, f"{label} lambda_2 vs eigvalsh")
            _require(0.0 < est.lower <= est.upper,
                     f"{label}: epsilon bracket [{est.lower}, {est.upper}]")
            # epsilon <= cut(A - dJ/n) / (dn) <= sigma_max(A - dJ/n) / d
            _require(est.lower <= sigma_c / d * (1 + REL_TOL),
                     f"{label}: epsilon lower {est.lower} above sigma/d = {sigma_c / d}")

        return Op(label, run, check)


def build(workload: str, seed: int, workdir: Path, reference: dict) -> Workload:
    """Generate the inputs of one workload and return its operations."""
    b = Builder(workload, seed, workdir, reference)
    if workload == "centered":
        # Degree-centered regular graphs: enumeration at n <= 20 and the
        # automorphism search, certifying (Paley, cycle) and refuting (random
        # graphs), up to Paley 37; Paley 113 and random n = 80 sit past the
        # search cap, so only spectral and ascent run there.  The searches
        # cost the same on every seed except on the random graphs, which stay
        # few and under 0.5 s.  At 3 passes the 27 enumerations of 0.7-0.9 s
        # (cycle20, example1) hold the median and, under the three Paley-37
        # searches, the tail.  The warm-up is paley17, the same on every seed.
        example1 = [b.graph(f"example1-6-20-{k}",
                            families.example1_graph(6, 20, seed=b.graph_seed(k)))
                    for k in range(2, 10)]
        ops = [
            b.graph("paley17", families.paley_graph(17), True),
            b.graph("cycle20", families.cycle_graph(20), True),
            b.graph("paley29", families.paley_graph(29), True),
            b.graph("rr17-a", families.random_regular(17, 4, seed=b.graph_seed(0))),
            b.graph("paley113", families.paley_graph(113), True),
            b.graph("paley37", families.paley_graph(37), True),
            b.graph("rr17-b", families.random_regular(17, 4, seed=b.graph_seed(1))),
            b.graph("rr80", families.random_regular(80, 4, seed=b.graph_seed(2))),
        ]
        # one enumeration after each of the others
        ops = [op for pair in zip(ops, example1) for op in pair]
        n, s = HANG_CASES[seed % len(HANG_CASES)]
        probe = b.graph(f"hang-rr{n}-seed{s}", families.random_regular(n, 4, seed=s))
        return Workload(ops, [probe], pass_s=10.4)
    if workload == "general":
        def gauss(k, m, n):
            return b.rng(k).standard_normal((m, n))

        def signs(k, m, n):
            return b.rng(k).choice([-1.0, 1.0], size=(m, n))

        # Nonzero margins and no symmetry.  The warm-up is the same +-1
        # matrix on every seed: the ascent's cost varies up to 10x between
        # random inputs of that size.  At 6 passes the five 20-row matrices
        # (0.7-1.0 s) hold the median and the tail.
        fixed = np.random.Generator(np.random.Philox(0)).choice([-1.0, 1.0], size=(18, 18))
        ops = [
            b.matrix("sign-18x18-fixed", fixed),
            b.matrix("gauss-19x16", gauss(1, 19, 16)),
            b.matrix("gauss-20x20", gauss(2, 20, 20)),
            b.matrix("sign-20x22", signs(3, 20, 22)),
            b.matrix("gauss-20x18", gauss(4, 20, 18)),
            b.matrix("sign-20x20", signs(5, 20, 20)),
            b.matrix("gauss-20x24", gauss(6, 20, 24)),
        ]
        return Workload(ops, [], pass_s=4.8)
    if workload == "spectra":
        # Twelve Fourier reports (each of four random functions three times)
        # put the median operation inside a group of similar ones.  At 2
        # passes the tail (the 11th slowest) falls in the middle of the eight
        # samples of 1.0-1.3 s (theorem3, sandwich and the D384 report twice a
        # pass): six are slower (abelian, random-sign, the n = 128 bracket;
        # two more on seeds where the n = 64 bracket is slow), and the next
        # faster operation (verify fourier) takes about 0.75 s.
        fourier = [b.fourier(spec, 10 + 2 * k + j)
                   for k in range(2) for j, spec in enumerate(("D128", "Z16xZ16"))]
        d384 = b.fourier("D384", 20)
        ops = [b.verify(suite) for suite in ("factor4", "mixing", "witness")]
        ops += fourier * 3
        ops += [
            b.uniformity("uniformity-rr64", families.random_regular(64, 4, seed=b.graph_seed(4))),
            b.verify("fourier"),
            d384,
            b.verify("grothendieck"),
            b.verify("sandwich"),
            b.verify("theorem3"),
            d384,
            b.verify("random-sign"),
            b.uniformity("uniformity-rr128", families.random_regular(128, 4, seed=b.graph_seed(5))),
            b.verify("abelian"),
        ]
        return Workload(ops, [], pass_s=16.6)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
