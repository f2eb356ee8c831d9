"""Structured-text (JSON) serialization for every artifact the library emits.

Emission is deterministic: fixed field order, floats printed with 17
significant digits so parsing reproduces the exact double (-0.0 as
``-0.0``, since JSON reads ``-0`` as the integer 0).  Identical inputs
therefore serialize to identical bytes.  Parsers re-validate what they read
and ignore an optional "provenance" block, which callers may attach to
record how a file was produced.

A group file embeds its multiplication table (``mul``, ``inv``).  A group
function names its group instead, as ``{"kind": "group", "label": L,
"order": n}`` with no table, when the group is built in: when
`groups.parse_group_spec` rebuilds the same label and table from L (``Z6``,
``D384``, ``Z2xZ3``, ``S3``).  Any other group, such as a lifted permutation
group or a table whose label names a different group, is embedded.
`parse_group` reads both forms, so files that embed a built-in group's table
still parse.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache, reduce
from itertools import islice
from typing import Any, Optional

import numpy as np

from .fourier import Irrep, IrrepTable, ensure_valid_irreps
from .errors import CapacityError
from .groups import GroupFunction, GroupTable, PermGroup, _finish_table, group_closure, \
    parse_group_spec, spec_order
from .norms import NormReport


# ---------------------------------------------------------------------------
# Deterministic JSON emission


def _fmt_floats(values: list) -> list[str]:
    """Each float with 17 significant digits; -0.0 keeps a decimal point, since
    JSON reads ``-0`` as the integer 0 and the sign would be lost."""
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"cannot serialize non-finite value {bad}")
    text = list(map("%.17g".__mod__, values))
    if "-0" in text:
        text = ["-0.0" if t == "-0" else t for t in text]
    return text


@lru_cache(maxsize=1024)
def _key(k: str) -> str:
    return json.dumps(k)


def _emit_float_lists(items: list, indent: int) -> Optional[str]:
    """Lists of floats, such as [re, im] pairs, or lists of such lists to any
    depth, as `_emit_list` writes them item by item; None unless every leaf is
    a float at one depth.  The floats are formatted in one call, and each
    level is joined from the one below."""
    levels = [items]  # levels[k]: every list at depth k + 1, in order
    while True:
        inner = [v for x in levels[-1] for v in x]
        kinds = set(map(type, inner))
        if kinds <= {float}:
            break
        if kinds != {list} or not all(levels[-1]):
            return None  # a leaf that is not a float, or an empty list above the leaves
        levels.append(inner)
    text = iter(_fmt_floats(inner))
    rows = ["[" + ", ".join(islice(text, len(x))) + "]" for x in levels[-1]]
    for depth in range(len(levels) - 1, 0, -1):
        pad = "  " * (indent + depth)
        sep, below = f",\n{pad}  ", iter(rows)
        rows = [f"[\n{pad}  " + sep.join(islice(below, len(x))) + f"\n{pad}]"
                for x in levels[depth - 1]]
    pad = "  " * indent
    return f"[\n{pad}  " + f",\n{pad}  ".join(rows) + f"\n{pad}]"


def _emit_list(items: list, indent: int) -> str:
    if not items:
        return "[]"
    kinds = set(map(type, items))
    if kinds == {int}:
        return "[" + ", ".join(map(str, items)) + "]"
    if kinds == {float}:
        return "[" + ", ".join(_fmt_floats(items)) + "]"
    if kinds == {list} and (text := _emit_float_lists(items, indent)) is not None:
        return text
    if all(not isinstance(x, (dict, list, tuple, np.ndarray)) for x in items):
        return "[" + ", ".join(_emit(x, indent) for x in items) + "]"
    pad = "  " * indent
    inner = ",\n".join(f"{pad}  {_emit(x, indent + 1)}" for x in items)
    return "[\n" + inner + "\n" + pad + "]"


def _emit(obj: Any, indent: int) -> str:
    if type(obj) is list:
        return _emit_list(obj, indent)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_floats([float(obj)])[0]
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * indent
        inner = ",\n".join(
            f'{pad}  {_key(str(k))}: {_emit(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist(), indent)  # Python scalars, nested lists
    if isinstance(obj, (list, tuple)):
        return _emit_list(list(obj), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: dict) -> str:
    return _emit(obj, 0) + "\n"


def loads(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object at top level")
    return obj


def _expect_kind(obj: dict, kind: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"expected kind {kind!r}, found a JSON {type(obj).__name__}")
    if obj.get("kind") != kind:
        raise ValueError(f"expected kind {kind!r}, found {obj.get('kind')!r}")


def _field(obj, key: str, name: Optional[str] = None):
    """obj[key], else a ValueError naming the missing field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {name or key!r}")
    return obj[key]


def _numbers(raw, field: str) -> np.ndarray:
    """Nested lists of finite numbers read from a file, as float64; a null, a
    NaN, a string or a ragged list is a ValueError naming the field."""
    try:
        a = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{field} must be numbers in lists of equal length") from None
    bad = ~np.isfinite(a)
    if bad.any():
        at = tuple(map(int, np.argwhere(bad)[0]))
        found = reduce(lambda item, i: item[i], at, raw)
        raise ValueError(f"{field}{''.join(f'[{i}]' for i in at)} = {found!r} "
                         "is not a finite number")
    return a


def _complex_pairs(values: np.ndarray) -> list:
    return np.stack([values.real, values.imag], axis=-1).tolist()


def stacked_pairs(table: IrrepTable, arrays) -> list:
    """The [re, im] pairs of arrays aligned with `table.stacks` (first axis:
    the stack's irreps; last two: a d x d matrix, flattened row by row), one
    entry per table position."""
    return table.in_table_order(_complex_pairs(a.reshape(a.shape[:-2] + (-1,))) for a in arrays)


def _from_pairs(pairs, field: str) -> np.ndarray:
    """Complex numbers stored as [re, im] pairs, read exactly (signed zeros
    too); anything else is a ValueError naming the field."""
    xy = _numbers(pairs, field)
    if xy.ndim < 2 or xy.shape[-1] != 2:
        raise ValueError(f"{field} must hold [re, im] pairs, found shape {xy.shape}")
    return xy.view(np.complex128)[..., 0]


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


def _names_builtin(g: GroupTable) -> bool:
    """Whether `parse_group_spec` rebuilds g, label and table, from g's label."""
    try:
        if spec_order(g.label) != g.order:
            return False
        built = parse_group_spec(g.label)
    except (ValueError, CapacityError):
        return False
    return built.label == g.label and built.same_as(g)


def _builtin_group(label, n: int) -> GroupTable:
    """The built-in group a table-less group entry names, of order n."""
    if not isinstance(label, str):
        raise ValueError(f"group label must be a string, found {label!r}")
    try:
        order = spec_order(label)
    except ValueError as exc:
        raise ValueError(f"group {label!r} has no table and its label names no built-in "
                         f"group ({exc})") from None
    if order != n:
        raise ValueError(f"group label {label!r} names a group of order {order}, not {n}")
    return parse_group_spec(label)


def parse_group(source: str | dict) -> GroupTable:
    """Read a group: its embedded table (``mul`` and ``inv``), re-validated, or,
    with neither, the built-in group its label names, of the stated order."""
    obj = loads(source) if isinstance(source, str) else source
    _expect_kind(obj, "group")
    n = _integer(_field(obj, "order"), "order", lo=1)
    if "mul" not in obj and "inv" not in obj:
        return _builtin_group(_field(obj, "label"), n)
    mul = np.array(_field(obj, "mul"))
    if mul.shape != (n * n,):
        raise ValueError(f"mul must list order**2 = {n * n} entries, found shape {mul.shape}")
    g = _finish_table(mul.reshape(n, n), str(obj.get("label", "")))
    inv = np.array(_field(obj, "inv"))
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
    degree = _integer(_field(obj, "degree"), "degree")
    gens = [[_integer(x, f"generators[{k}][{j}]", hi=degree) for j, x in enumerate(images)]
            for k, images in enumerate(_field(obj, "generators"))]
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
        m, n = _integer(_field(obj, "rows"), "rows"), _integer(_field(obj, "cols"), "cols")
        entries = np.array(_field(obj, "entries"), dtype=np.float64)
        if entries.size != m * n:
            raise ValueError(f"expected {m * n} entries, found {entries.size}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix entries must be finite")
        return entries.reshape(m, n)
    if kind == "edge_list":
        n = _integer(_field(obj, "n"), "n")
        a = np.zeros((n, n))
        for k, edge in enumerate(_field(obj, "edges")):
            s, t = (_integer(v, f"edges[{k}][{j}]", hi=n) for j, v in enumerate(edge))
            a[s, t] = a[t, s] = 1.0
        return a
    raise ValueError(f"expected kind 'matrix' or 'edge_list', found {kind!r}")


# ---------------------------------------------------------------------------
# Group functions


def function_to_obj(f: GroupFunction, provenance: Optional[dict] = None) -> dict:
    """The function with its values; a built-in group is named by its label
    and order, any other group embeds its table."""
    complex_valued = bool(np.iscomplexobj(f.values))
    g = f.group
    obj = {
        "kind": "group_function",
        "group": ({"kind": "group", "label": g.label, "order": g.order}
                  if _names_builtin(g) else group_to_obj(g)),
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
    group = parse_group(_field(obj, "group"))
    values = _field(obj, "values")
    return GroupFunction(group, _from_pairs(values, "values") if obj.get("complex")
                         else _numbers(values, "values"))


# ---------------------------------------------------------------------------
# Irrep tables


def irreps_to_obj(table: IrrepTable, provenance: Optional[dict] = None) -> dict:
    obj = {
        "kind": "irrep_table",
        "group_label": table.group.label,
        "order": table.group.order,
        "irreps": [
            {"dim": d, "matrices": m}
            for d, m in zip(table.dims, stacked_pairs(table, [b.matrices for b in table.stacks]))
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
    if _integer(_field(obj, "order"), "order", lo=1) != group.order:
        raise ValueError(
            f"irrep table is for a group of order {obj['order']}, not {group.order}"
        )
    irreps = []
    for k, entry in enumerate(_field(obj, "irreps")):
        field = f"irreps[{k}]"
        d = _integer(_field(entry, "dim", f"{field}.dim"), f"{field}.dim", lo=1)
        field += ".matrices"
        mats = _from_pairs(_field(entry, "matrices", field), field)
        if mats.ndim != 2 or mats.shape[1] != d * d:
            raise ValueError(f"{field} must list {d * d} [re, im] pairs per element, "
                             f"found shape {mats.shape + (2,)}")
        irreps.append(Irrep(dim=d, matrices=mats.reshape(-1, d, d)))
    return ensure_valid_irreps(IrrepTable.from_irreps(group, irreps))


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
            "row_set": list(cut.witness[0]),
            "col_set": list(cut.witness[1]),
        },
        "infty_one": report.infty_one,
        "groth_lower": report.groth.lower,
        "groth_upper": report.groth.upper,
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
