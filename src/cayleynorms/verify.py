"""Named verification suites: every headline identity and inequality,
checked end to end on concrete families.  Inequalities are decided by
`norms._check`, the factor-4 bracket is `grothendieck_bounds`' certified
`Bracket`, and the Grothendieck equality on transitive graphs rests on the
proved lower end of the singular-subspace witness; Fourier errors and the
ascent on random-sign matrices have fixed budgets.

Each suite returns a list of SuiteCheck records; `run_suite` dispatches by
name (with or without a "-suite" suffix).  The suites are what the CLI
`verify` subcommand executes and what the acceptance tests assert.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import serial
from .cayley import cayley_from_set, cayley_matrix, center_regular
from .families import RegularGraph, complete_graph, cycle_graph, example1_graph, \
    paley_graph, petersen_graph
from .fourier import build_irrep_table, fourier_transform, schur_average, \
    spectral_via_irreps, svd_witness, abelian_character_norm, fourier_inverse
from .groups import GroupFunction, convolve, cyclic_group, dihedral_group, \
    parse_group_spec, symmetric_group
from .norms import K_G, BMConfig, cut_norm_exact, grothendieck_bounds, group_spectral, \
    infty_one_exact, mixing_lemma_check, second_eigenvalue, spectral_norm, theorem3_check, \
    translate_witness, _check as _inequality, _grothendieck_bm_stack, _subspace_witness


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> SuiteCheck:
    return SuiteCheck(name=name, passed=bool(passed), detail=detail)


def _dihedral4_graphs() -> list[tuple[str, RegularGraph]]:
    d4 = dihedral_group(4)
    # r, r^3, s  and  the four reflections: both symmetric generating sets
    a1 = cayley_from_set(d4, [1, 3, 4])
    a2 = cayley_from_set(d4, [4, 5, 6, 7])
    return [
        ("cay(D4,{r,r3,s})", RegularGraph(8, 3, a1, "cayley D4 {1,3,4}")),
        ("cay(D4,reflections)", RegularGraph(8, 4, a2, "cayley D4 {4,5,6,7}")),
    ]


def transitive_suite_graphs() -> Iterator[tuple[str, RegularGraph, bool]]:
    """The vertex-transitive benchmark family: (name, graph, is_cayley)."""
    for n in range(4, 21):
        yield f"cycle{n}", cycle_graph(n), True
    for n in range(4, 17):
        yield f"complete{n}", complete_graph(n), True
    yield "paley13", paley_graph(13), True
    yield "paley17", paley_graph(17), True
    for name, g in _dihedral4_graphs():
        yield name, g, True
    yield "petersen", petersen_graph(), False


def suite_sandwich() -> list[SuiteCheck]:
    """Cut/spectral sandwich cut <= n||A|| <= 8 cut on centered transitive graphs."""
    out = []
    for name, g, _ in transitive_suite_graphs():
        ac = center_regular(g.matrix, g.degree)
        cut = cut_norm_exact(ac).value
        ns = g.n * spectral_norm(ac)
        lo = _inequality("cut_le_n_spectral", cut, ns)
        hi = _inequality("n_spectral_le_8cut", ns, 8.0 * cut)
        out.append(_check(
            f"sandwich:{name}", lo.passed and hi.passed,
            f"cut={cut:.9g} n||A||={ns:.9g} margins=({lo.margin:.3g}, {hi.margin:.3g})",
        ))
    return out


def suite_grothendieck() -> list[SuiteCheck]:
    """The singular-subspace witness proves ||A||_G >= (1 - 1e-12) n||A|| on
    centered transitive graphs; with the upper bound n||A|| this pins ||A||_G."""
    out = []
    for name, g, _ in transitive_suite_graphs():
        ac = center_regular(g.matrix, g.degree)
        ns = g.n * spectral_norm(ac)
        lower, _ = _subspace_witness(ac)
        out.append(_check(
            f"grothendieck:{name}", lower >= (1.0 - 1e-12) * ns,
            f"lower={lower:.9g} n||A||={ns:.9g} relgap={(ns - lower) / ns if ns else 0:.2e}",
        ))
    return out


def suite_factor4() -> list[SuiteCheck]:
    """The 2x2 matrix showing the factor-4 tightness of cut vs infinity-to-one."""
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cut = cut_norm_exact(a)
    io1 = infty_one_exact(a)
    spec = spectral_norm(a)
    groth = grothendieck_bounds(a, BMConfig(rank=4, restarts=8, seed=0))
    a_f = cayley_matrix(GroupFunction(cyclic_group(2), np.array([1.0, -1.0])))
    checks = [
        ("factor4:cut", abs(cut.value - 1.0) <= 1e-9, f"cut={cut.value!r}"),
        ("factor4:infty_one", abs(io1 - 4.0) <= 1e-9, f"io1={io1!r}"),
        ("factor4:spectral", abs(spec - 2.0) <= 1e-9, f"spectral={spec!r}"),
        ("factor4:bracket", abs(groth.lower - 4.0) <= 1e-9 and abs(groth.upper - 4.0) <= 1e-9,
         f"bracket=[{groth.lower!r}, {groth.upper!r}]"),
        ("factor4:cayley_match", np.array_equal(a_f, a)
         and abs(2 * spec - 4.0) <= 1e-9,
         "A = A(f) for f=(1,-1) on Z2 and n||A|| = 4"),
    ]
    return [_check(n, p, d) for n, p, d in checks]


_FOURIER_GROUPS = ("Z12", "Z2xZ2", "D4", "D5")


def suite_fourier() -> list[SuiteCheck]:
    """Plancherel, inversion, convolution theorem, spectral norm via irreps, Schur."""
    out = []
    for spec in _FOURIER_GROUPS:
        g = parse_group_spec(spec)
        table = build_irrep_table(g)
        n = g.order
        rng = np.random.Generator(np.random.Philox(0))
        plancherel = roundtrip = convo = spec_err = schur = 0.0
        for _ in range(50):
            f = GroupFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            co = fourier_transform(f, table)
            lhs = float(np.mean(np.abs(f.values) ** 2))
            rhs = sum(float(r.dim * np.sum(np.abs(c) ** 2))
                      for r, c in zip(table.irreps, co.coeffs))
            plancherel = max(plancherel, abs(lhs - rhs) / max(lhs, 1e-300))
            back = fourier_inverse(co)
            roundtrip = max(roundtrip, float(np.abs(back.values - f.values).max()))
            f2 = GroupFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            conv_co = fourier_transform(convolve(f, f2), table)
            co2 = fourier_transform(f2, table)
            convo = max(convo, max(
                float(np.abs(cc - c1 @ c2).max())
                for cc, c1, c2 in zip(conv_co.coeffs, co.coeffs, co2.coeffs)
            ))
            via, dense = spectral_via_irreps(f, table), group_spectral(f)
            spec_err = max(spec_err, abs(via - dense) / max(dense, 1e-300))
        for rho in table.irreps:
            for sig in table.irreps:
                m = rng.standard_normal((rho.dim, sig.dim)) \
                    + 1j * rng.standard_normal((rho.dim, sig.dim))
                avg = schur_average(rho, sig, m, g)
                want = np.trace(m) / rho.dim * np.eye(rho.dim) if rho is sig \
                    else np.zeros((rho.dim, sig.dim))
                schur = max(schur, float(np.abs(avg - want).max()))
        out.append(_check(
            f"fourier:{spec}:plancherel", plancherel <= 1e-10, f"max rel err {plancherel:.2e}"))
        out.append(_check(
            f"fourier:{spec}:roundtrip", roundtrip <= 1e-12, f"max abs err {roundtrip:.2e}"))
        out.append(_check(
            f"fourier:{spec}:convolution", convo <= 1e-10, f"max abs err {convo:.2e}"))
        out.append(_check(
            f"fourier:{spec}:spectral_via_irreps", spec_err <= 1e-8, f"max rel err {spec_err:.2e}"))
        out.append(_check(
            f"fourier:{spec}:schur", schur <= 1e-10, f"max abs err {schur:.2e}"))
    return out


def load_s3_irreps():
    """The S_3 irrep table shipped as data, ingested through parse_irreps."""
    text = importlib.resources.files("cayleynorms").joinpath(
        "data/s3_irreps.json").read_text()
    return serial.parse_irreps(text, symmetric_group(3))


def suite_witness() -> list[SuiteCheck]:
    """SVD and translate witnesses achieve the spectral norm."""
    out = []
    cases = [("D4", dihedral_group(4), build_irrep_table(dihedral_group(4))),
             ("S3", symmetric_group(3), load_s3_irreps())]
    for name, g, table in cases:
        n = g.order
        rng = np.random.Generator(np.random.Philox(0))
        svd_err = 0.0
        for _ in range(20):
            f = GroupFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            w = svd_witness(f, table)
            target = spectral_via_irreps(f, table)
            svd_err = max(svd_err, abs(w.objective - target) / max(target, 1e-300))
        out.append(_check(
            f"witness:{name}:svd", svd_err <= 1e-8, f"max rel err {svd_err:.2e}"))

        tr_err = 0.0
        for _ in range(20):
            f = GroupFunction(g, rng.standard_normal(n))
            a = cayley_matrix(f)
            u, s, vt = np.linalg.svd(a)
            x = GroupFunction(g, math.sqrt(n) * u[:, 0])
            y = GroupFunction(g, math.sqrt(n) * vt[0])
            w = translate_witness(f, x, y)
            tr_err = max(tr_err, abs(abs(w.objective) - s[0] / n) / max(s[0] / n, 1e-300))
        out.append(_check(
            f"witness:{name}:translate", tr_err <= 1e-10, f"max rel err {tr_err:.2e}"))
    return out


def suite_abelian() -> list[SuiteCheck]:
    """Character norm equals the dense spectral norm on cyclic groups."""
    out = []
    for n in range(1, 25):
        g = cyclic_group(n)
        table = build_irrep_table(g)
        rng = np.random.Generator(np.random.Philox(0))
        err = 0.0
        for _ in range(50):
            f = GroupFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            cn_val = abelian_character_norm(f, table).value
            dense = group_spectral(f)
            err = max(err, abs(cn_val - dense) / max(dense, 1e-300))
        out.append(_check(f"abelian:Z{n}", err <= 1e-10, f"max rel err {err:.2e}"))
    return out


def suite_example1() -> list[SuiteCheck]:
    """The counterexample construction: regular, eigenvalue -d/2, measured ratio."""
    out = []
    d, n = 8, 24
    y = np.zeros(n)
    y[: d // 2] = 1.0
    y[d // 2: d] = -1.0
    for seed in range(5):
        g = example1_graph(d, n, seed=seed)
        regular = bool(np.all(g.matrix.sum(axis=1) == d))
        resid = float(np.abs(g.matrix @ y - (-d / 2) * y).max())
        ac = center_regular(g.matrix, d)
        cut = cut_norm_exact(ac).value
        ns = n * spectral_norm(ac)
        ratio = ns / cut if cut else math.inf
        out.append(_check(
            f"example1:seed{seed}", regular and resid <= 1e-12,
            f"regular={regular} residual={resid:.2e} n||A||/cut={ratio:.4f} (informational)",
        ))
    return out


def suite_mixing() -> list[SuiteCheck]:
    """Exhaustive mixing-lemma check on Paley-13 at lambda = lambda_2."""
    g = paley_graph(13)
    lam = second_eigenvalue(g.matrix)
    ok = mixing_lemma_check(g.matrix, g.degree, lam)
    return [_check("mixing:paley13", ok,
                   f"lambda={lam:.9g}, all 2^13 x 2^13 pairs")]


def suite_theorem3() -> list[SuiteCheck]:
    """lambda <= 8 epsilon d with exact epsilon on every Cayley benchmark graph."""
    out = []
    for name, g, is_cayley in transitive_suite_graphs():
        if not is_cayley:
            continue
        check, eps = theorem3_check(g.matrix, g.degree)
        ratio = check.lhs / (eps.value * g.degree) if eps.value else math.inf
        out.append(_check(
            f"theorem3:{name}", check.passed,
            f"lambda={check.lhs:.6g} eps={eps.value:.6g} ratio={ratio:.4f} (<= 8)",
        ))
    return out


def suite_random_sign() -> list[SuiteCheck]:
    """Random sign matrices: ascent reaches the sign optimum, stays under K_G."""
    cfg = BMConfig(rank=16, restarts=8, seed=0)
    mats = [np.random.Generator(np.random.Philox(1000 + i)).integers(0, 2, size=(8, 8))
            .astype(np.float64) * 2.0 - 1.0 for i in range(100)]
    lb_fail = ub_fail = 0
    worst_lb = worst_ub = 0.0
    for a, (bm, _) in zip(mats, _grothendieck_bm_stack(mats, cfg)):
        io1 = infty_one_exact(a)
        if not io1 <= bm + 1e-9:
            lb_fail += 1
        if not bm <= K_G * io1 + 1e-9:
            ub_fail += 1
        worst_lb = max(worst_lb, io1 - bm)
        worst_ub = max(worst_ub, bm / (K_G * io1))
    return [
        _check("random_sign:bm_reaches_sign_optimum", lb_fail == 0,
               f"failures={lb_fail}/100, worst io1-bm={worst_lb:.2e}"),
        _check("random_sign:bm_below_kg_bound", ub_fail == 0,
               f"failures={ub_fail}/100, worst bm/(K_G io1)={worst_ub:.4f}"),
    ]


SUITES: dict[str, Callable[[], list[SuiteCheck]]] = {
    "sandwich": suite_sandwich,
    "grothendieck": suite_grothendieck,
    "factor4": suite_factor4,
    "fourier": suite_fourier,
    "witness": suite_witness,
    "abelian": suite_abelian,
    "example1": suite_example1,
    "mixing": suite_mixing,
    "theorem3": suite_theorem3,
    "random-sign": suite_random_sign,
}


def suite_names() -> list[str]:
    return list(SUITES) + ["all"]


def run_suite(name: str) -> list[SuiteCheck]:
    """Run one suite (or 'all') by name; accepts an optional '-suite' suffix."""
    key = name.lower().removesuffix("-suite")
    if key == "all":
        checks = []
        for fn in SUITES.values():
            checks.extend(fn())
        return checks
    if key not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    return SUITES[key]()
