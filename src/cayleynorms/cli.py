"""Command-line front end: construct families, analyze matrices, lift
transitive matrices to group functions, run Fourier reports, and execute
the verification suites.

Exit status: 0 on success, 1 on verification/construction failure, 2 on
usage or input-parse errors.  Reports are deterministic for a fixed
command line (including --seed), byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, serial, verify
from .cayley import cayley_from_set, find_transitive_automorphisms, lift_to_group
from .errors import CapacityError, GroupAxiomError
from .families import complete_graph, cycle_graph, example1_graph, paley_graph, \
    petersen_graph, random_regular
from .fourier import build_irrep_table, svd_witness
from .groups import parse_group_spec
from .norms import BMConfig, analyze, group_spectral, spectral_norm


class _UsageError(Exception):
    pass


def _write_out(text: str, out: Optional[str], quiet: bool) -> None:
    if out:
        Path(out).write_text(text)
        if not quiet:
            print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _provenance(args, family: str, params: list) -> dict:
    return {
        "family": family,
        "params": params,
        "seed": args.seed,
        "tool_version": __version__,
    }


# Families built from a fixed number of integer parameters: (builder, arity).
_FIXED_FAMILIES = {
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "paley": (paley_graph, 1),
    "petersen": (petersen_graph, 0),
}


def _cmd_construct(args) -> int:
    family = args.family.lower().replace("_", "-")
    params = list(args.params)

    def need(k: int) -> list[str]:
        if len(params) != k:
            raise _UsageError(f"family {family!r} takes {k} positional parameter(s)")
        return params

    if family in _FIXED_FAMILIES:
        build, arity = _FIXED_FAMILIES[family]
        g = build(*map(int, need(arity)))
        obj = serial.matrix_to_obj(g.matrix, _provenance(args, family, params))
    elif family == "random-regular":
        if args.n is None or args.d is None:
            raise _UsageError("random-regular needs --n and --d")
        g = random_regular(args.n, args.d, seed=args.seed)
        obj = serial.matrix_to_obj(g.matrix, _provenance(args, family, [args.n, args.d]))
    elif family == "example1":
        if args.n is None or args.d is None:
            raise _UsageError("example1 needs --n and --d")
        g = example1_graph(args.d, args.n, seed=args.seed)
        obj = serial.matrix_to_obj(g.matrix, _provenance(args, family, [args.d, args.n]))
        t = args.d // 2
        vector = [0.0] * args.n
        for i in range(t):
            vector[i] = 1.0
        for i in range(t, 2 * t):
            vector[i] = -1.0
        obj["eigen_certificate"] = {"eigenvalue": -args.d / 2.0, "vector": vector}
    elif family == "group":
        g = parse_group_spec(need(1)[0])
        obj = serial.group_to_obj(g, _provenance(args, family, params))
    elif family == "cayley":
        spec = need(1)[0]
        if args.set is None:
            raise _UsageError("cayley needs --set with comma-separated element indices")
        group = parse_group_spec(spec)
        subset = [int(x) for x in args.set.split(",") if x != ""]
        a = cayley_from_set(group, subset)
        obj = serial.matrix_to_obj(a, _provenance(args, family, [spec, args.set]))
        # a[g, h] = f(g h^-1), so a == a.T exactly when the set is closed under inverses
        obj["symmetric_set"] = bool(np.array_equal(a, a.T))
    else:
        raise _UsageError(
            f"unknown family {args.family!r}; known: cycle, complete, paley, "
            "petersen, random-regular, example1, group, cayley"
        )
    _write_out(serial.dumps(obj), args.out, args.quiet)
    return 0


def _read_matrix(path: str) -> np.ndarray:
    try:
        return serial.parse_matrix(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read matrix from {path}: {exc}") from exc


def _cmd_analyze(args) -> int:
    a = _read_matrix(args.input)
    report = analyze(a, BMConfig(rank=args.rank, restarts=args.restarts, seed=args.seed))
    text = serial.report_to_text(report, provenance={
        "input": str(args.input), "seed": args.seed, "tool_version": __version__,
    })
    if not args.quiet:
        cut = "n/a" if report.cut is None else f"{report.cut.value:.9g}"
        io1 = "n/a" if report.infty_one is None else f"{report.infty_one:.9g}"
        print(f"spectral      {report.spectral:.9g}")
        print(f"cut           {cut}")
        print(f"infty_one     {io1}")
        print(f"grothendieck  [{report.groth_lower:.9g}, {report.groth_upper:.9g}] "
              f"(rank {report.bm_rank})")
        print(f"transitive    {report.transitive}")
        for c in report.checks:
            print(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: "
                  f"{c.lhs:.9g} <= {c.rhs:.9g} (margin {c.margin:.3g})")
        for note in report.notes:
            print(f"  note: {note}")
    if args.out:
        _write_out(text, args.out, args.quiet)
    elif args.quiet:
        sys.stdout.write(text)
    return 0


def _cmd_lift(args) -> int:
    a = _read_matrix(args.input)
    cert = find_transitive_automorphisms(a)
    if cert is None:
        print("matrix is not vertex-transitive; nothing to lift", file=sys.stderr)
        return 1
    f = lift_to_group(a, cert.subgroup)
    n = a.shape[0]
    lhs = n * group_spectral(f)
    rhs = spectral_norm(a)
    obj = serial.function_to_obj(f, provenance={
        "input": str(args.input), "subgroup_order": cert.subgroup.order,
        "tool_version": __version__,
    })
    obj["lift_checks"] = {
        "n_times_f_norm": lhs,
        "matrix_spectral": rhs,
        "agree_1e8": bool(abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))),
    }
    if not args.quiet:
        print(f"transitive subgroup of order {cert.subgroup.order}; "
              f"n||f|| = {lhs:.9g}, ||A|| = {rhs:.9g}")
    _write_out(serial.dumps(obj), args.out, args.quiet)
    return 0


def _cmd_fourier(args) -> int:
    try:
        f = serial.parse_function(Path(args.input).read_text())
        table = None
        if args.irreps:
            table = serial.parse_irreps(Path(args.irreps).read_text(), f.group)
    except (OSError, ValueError, GroupAxiomError) as exc:
        raise _UsageError(f"cannot read inputs: {exc}") from exc
    if table is None:
        table = build_irrep_table(f.group)
    wit = svd_witness(f, table)  # one transform: ||f||, the witness and the coefficients
    via = float(wit.fhat.sigma1.max())
    dense = group_spectral(f)
    obj = {
        "kind": "fourier_report",
        "group_label": f.group.label,
        "order": f.group.order,
        "irrep_dims": list(table.dims),
        "spectral_via_irreps": via,
        "spectral_dense": dense,
        "svd_witness_objective": wit.objective,
        "svd_witness_irrep": wit.irrep_index,
        "coefficients": [
            {"dim": int(c.shape[0]), "matrix": serial._complex_pairs(c.ravel())}
            for c in wit.fhat.coeffs
        ],
        "provenance": {"input": str(args.input), "tool_version": __version__},
    }
    if not args.quiet:
        print(f"||f|| via irreps = {via:.9g}, dense = {dense:.9g}, "
              f"witness objective = {wit.objective:.9g}")
    _write_out(serial.dumps(obj), args.out, args.quiet)
    return 0


def _cmd_verify(args) -> int:
    try:
        checks = verify.run_suite(args.suite)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0])) from exc
    failed = [c for c in checks if not c.passed]
    lines = []
    for c in checks:
        lines.append(f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    summary = (f"{len(checks) - len(failed)}/{len(checks)} checks passed "
               f"in suite {args.suite!r}")
    if not args.quiet:
        print("\n".join(lines))
        print(summary)
    if args.out:
        obj = {
            "kind": "verify_report",
            "suite": args.suite,
            "passed": not failed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in checks],
        }
        _write_out(serial.dumps(obj), args.out, args.quiet)
    return 0 if not failed else 1


def _build_parser() -> argparse.ArgumentParser:
    flags = {
        "seed": dict(type=int, default=0, help="seed for anything random"),
        "out": dict(type=str, default=None, help="output file path"),
        "quiet": dict(action="store_true", help="suppress chatter"),
        "rank": dict(type=int, default=None,
                     help="rank for the Grothendieck ascent (default: auto)"),
        "restarts": dict(type=int, default=BMConfig.restarts,
                         help="restarts for the Grothendieck ascent"),
    }
    parser = argparse.ArgumentParser(
        prog="cayleynorms",
        description="norms and quasirandomness checks for Cayley graphs and "
                    "vertex-transitive matrices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *names: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
        p.set_defaults(func=func)
        return p

    p = command("construct", _cmd_construct, "build a named family and write it to a file",
                "seed", "out", "quiet")
    p.add_argument("family", help="cycle | complete | paley | petersen | "
                                  "random-regular | example1 | group | cayley")
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--set", type=str, default=None,
                   help="comma-separated generating set for cayley")

    p = command("analyze", _cmd_analyze, "compute all norms and checks for a matrix file",
                "seed", "out", "quiet", "rank", "restarts")
    p.add_argument("input", help="matrix or edge-list file")

    p = command("lift", _cmd_lift, "lift a vertex-transitive matrix to a group function",
                "out", "quiet")
    p.add_argument("input", help="matrix or edge-list file")

    p = command("fourier", _cmd_fourier, "Fourier-analyze a group function file",
                "out", "quiet")
    p.add_argument("input", help="group function file")
    p.add_argument("--irreps", type=str, default=None,
                   help="user-supplied irrep table file")

    p = command("verify", _cmd_verify, "run a named verification suite", "out", "quiet")
    p.add_argument("suite", help=f"one of: {', '.join(verify.suite_names())}")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, GroupAxiomError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
