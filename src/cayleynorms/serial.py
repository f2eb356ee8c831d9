"""Structured-text (JSON) serialization for every artifact the library emits.

Emission is deterministic: fixed field order, floats printed with 17
significant digits so parsing reproduces the exact double.  Identical
inputs therefore serialize to identical bytes.  Parsers re-validate what
they read and ignore an optional "provenance" block, which callers may
attach to record how a file was produced.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

import numpy as np

from .fourier import Irrep, IrrepTable, ensure_valid_irreps
from .groups import GroupFunction, GroupTable, PermGroup, _finish_table, group_closure
from .norms import NormReport


# ---------------------------------------------------------------------------
# Deterministic JSON emission


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v}")
    return "%.17g" % v


def _emit(obj: Any, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_emit(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()  # Python scalars, nested lists
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        kinds = set(map(type, items))
        if kinds == {int}:
            return "[" + ", ".join(map(str, items)) + "]"
        if kinds == {float}:
            return "[" + ", ".join(map(_fmt_float, items)) + "]"
        if all(not isinstance(x, (dict, list, tuple, np.ndarray)) for x in items):
            return "[" + ", ".join(_emit(x, indent) for x in items) + "]"
        inner = ",\n".join(f"{pad}  {_emit(x, indent + 1)}" for x in items)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: dict) -> str:
    return _emit(obj, 0) + "\n"


def loads(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object at top level")
    return obj


def _expect_kind(obj: dict, kind: str) -> None:
    if obj.get("kind") != kind:
        raise ValueError(f"expected kind {kind!r}, found {obj.get('kind')!r}")


def _complex_pairs(values: np.ndarray) -> list:
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _from_pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def _integer(value, field: str, lo: int = 0, hi: Optional[int] = None) -> int:
    """A count or index read from a file: an integer in [lo, hi) (hi None: no
    upper end), else a ValueError naming the field.  Booleans and strings are
    not integers; an integral float such as 2.0 is, as for table entries."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer))
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        raise ValueError(f"{field} must be an integer, found {value!r}")
    if value < lo or (hi is not None and value >= hi):
        raise ValueError(f"{field} = {int(value)} out of range "
                         f"[{lo}, {'inf' if hi is None else hi})")
    return int(value)


# ---------------------------------------------------------------------------
# Groups


def group_to_obj(g: GroupTable, provenance: Optional[dict] = None) -> dict:
    obj = {
        "kind": "group",
        "label": g.label,
        "order": g.order,
        "mul": g.mul.ravel().tolist(),
        "inv": g.inv.tolist(),
    }
    if provenance:
        obj["provenance"] = provenance
    return obj


def group_to_text(g: GroupTable, provenance: Optional[dict] = None) -> str:
    return dumps(group_to_obj(g, provenance))


def parse_group(source: str | dict) -> GroupTable:
    obj = loads(source) if isinstance(source, str) else source
    _expect_kind(obj, "group")
    n = _integer(obj["order"], "order", lo=1)
    mul = np.array(obj["mul"])
    if mul.shape != (n * n,):
        raise ValueError(f"mul must list order**2 = {n * n} entries, found shape {mul.shape}")
    g = _finish_table(mul.reshape(n, n), str(obj.get("label", "")))
    inv = np.array(obj["inv"])
    if not np.array_equal(inv, g.inv):
        raise ValueError("stored inverse table disagrees with the multiplication table")
    return g


def perm_group_to_obj(pg: PermGroup, provenance: Optional[dict] = None) -> dict:
    obj = {
        "kind": "perm_group",
        "degree": pg.degree,
        "generators": pg.generators.tolist(),
    }
    if provenance:
        obj["provenance"] = provenance
    return obj


def parse_perm_group(source: str | dict) -> PermGroup:
    obj = loads(source) if isinstance(source, str) else source
    _expect_kind(obj, "perm_group")
    degree = _integer(obj["degree"], "degree")
    gens = [[_integer(x, f"generators[{k}][{j}]", hi=degree) for j, x in enumerate(images)]
            for k, images in enumerate(obj["generators"])]
    return group_closure(degree, gens)


# ---------------------------------------------------------------------------
# Matrices and graphs


def matrix_to_obj(a: np.ndarray, provenance: Optional[dict] = None) -> dict:
    a = np.asarray(a, dtype=np.float64)
    obj = {
        "kind": "matrix",
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": a.ravel().tolist(),
    }
    if provenance:
        obj["provenance"] = provenance
    return obj


def matrix_to_text(a: np.ndarray, provenance: Optional[dict] = None) -> str:
    return dumps(matrix_to_obj(a, provenance))


def parse_matrix(source: str | dict) -> np.ndarray:
    """Read a dense matrix, or an edge list expanded to a symmetric 0/1 matrix."""
    obj = loads(source) if isinstance(source, str) else source
    kind = obj.get("kind")
    if kind == "matrix":
        m, n = _integer(obj["rows"], "rows"), _integer(obj["cols"], "cols")
        entries = np.array(obj["entries"], dtype=np.float64)
        if entries.size != m * n:
            raise ValueError(f"expected {m * n} entries, found {entries.size}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix entries must be finite")
        return entries.reshape(m, n)
    if kind == "edge_list":
        n = _integer(obj["n"], "n")
        a = np.zeros((n, n))
        for k, edge in enumerate(obj["edges"]):
            s, t = (_integer(v, f"edges[{k}][{j}]", hi=n) for j, v in enumerate(edge))
            a[s, t] = a[t, s] = 1.0
        return a
    raise ValueError(f"expected kind 'matrix' or 'edge_list', found {kind!r}")


# ---------------------------------------------------------------------------
# Group functions


def function_to_obj(f: GroupFunction, provenance: Optional[dict] = None) -> dict:
    complex_valued = bool(np.iscomplexobj(f.values))
    obj = {
        "kind": "group_function",
        "group": group_to_obj(f.group),
        "complex": complex_valued,
        "values": _complex_pairs(f.values) if complex_valued else f.values.tolist(),
    }
    if provenance:
        obj["provenance"] = provenance
    return obj


def function_to_text(f: GroupFunction, provenance: Optional[dict] = None) -> str:
    return dumps(function_to_obj(f, provenance))


def parse_function(source: str | dict) -> GroupFunction:
    obj = loads(source) if isinstance(source, str) else source
    _expect_kind(obj, "group_function")
    group = parse_group(obj["group"])
    if obj.get("complex"):
        values = _from_pairs(obj["values"])
    else:
        values = np.array(obj["values"], dtype=np.float64)
    return GroupFunction(group, values)


# ---------------------------------------------------------------------------
# Irrep tables


def irreps_to_obj(table: IrrepTable, provenance: Optional[dict] = None) -> dict:
    obj = {
        "kind": "irrep_table",
        "group_label": table.group.label,
        "order": table.group.order,
        "irreps": [
            {
                "dim": r.dim,
                "matrices": [_complex_pairs(m.ravel()) for m in r.matrices],
            }
            for r in table.irreps
        ],
    }
    if provenance:
        obj["provenance"] = provenance
    return obj


def irreps_to_text(table: IrrepTable, provenance: Optional[dict] = None) -> str:
    return dumps(irreps_to_obj(table, provenance))


def parse_irreps(source: str | dict, group: GroupTable) -> IrrepTable:
    """Read an irrep table for the given group; every invariant is re-checked."""
    obj = loads(source) if isinstance(source, str) else source
    _expect_kind(obj, "irrep_table")
    if _integer(obj["order"], "order", lo=1) != group.order:
        raise ValueError(
            f"irrep table is for a group of order {obj['order']}, not {group.order}"
        )
    irreps = []
    for k, entry in enumerate(obj["irreps"]):
        d = _integer(entry["dim"], f"irreps[{k}].dim", lo=1)
        mats = np.stack([
            _from_pairs(flat).reshape(d, d) for flat in entry["matrices"]
        ])
        irreps.append(Irrep(dim=d, matrices=mats))
    return ensure_valid_irreps(IrrepTable(group=group, irreps=tuple(irreps)))


# ---------------------------------------------------------------------------
# Norm reports


def report_to_obj(report: NormReport, provenance: Optional[dict] = None) -> dict:
    cut = report.cut
    obj = {
        "kind": "norm_report",
        "rows": report.rows,
        "cols": report.cols,
        "spectral": report.spectral,
        "cut": None if cut is None else {
            "value": cut.value,
            "row_set": list(cut.row_set),
            "col_set": list(cut.col_set),
        },
        "infty_one": report.infty_one,
        "groth_lower": report.groth_lower,
        "groth_upper": report.groth_upper,
        "bm_rank": report.bm_rank,
        "bm_restarts": report.bm_restarts,
        "transitive": report.transitive,
        "checks": [
            {
                "name": c.name,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "margin": c.margin,
                "tol": c.tol,
                "passed": c.passed,
            }
            for c in report.checks
        ],
        "notes": list(report.notes),
        "work": dict(report.work),
    }
    if report.assignment is not None:
        obj["witness"] = {
            "objective": report.assignment.objective,
            "left": report.assignment.left.tolist(),
            "right": report.assignment.right.tolist(),
        }
    if provenance:
        obj["provenance"] = provenance
    return obj


def report_to_text(report: NormReport, provenance: Optional[dict] = None) -> str:
    return dumps(report_to_obj(report, provenance))


def parse_report(source: str | dict) -> dict:
    obj = loads(source) if isinstance(source, str) else source
    _expect_kind(obj, "norm_report")
    return obj
