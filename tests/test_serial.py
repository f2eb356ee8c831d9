"""Serialization round trips and deterministic emission."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from cayleynorms import (
    CapacityError,
    GroupAxiomError,
    GroupFunction,
    analyze,
    build_from_table,
    build_irrep_table,
    cyclic_group,
    dihedral_group,
    group_closure,
    parse_group_spec,
    product_group,
    symmetric_group,
)
from cayleynorms import cli, serial


def test_float_formatting_is_lossless():
    for v in (math.pi, 1 / 3, 0.1, -2.5e-13, 123456789.123456789, 4.0):
        text = serial.dumps({"kind": "probe", "v": float(v)})
        assert serial.loads(text)["v"] == v


def test_signed_zero_round_trips():
    # JSON reads -0 as the integer 0; -0.0 keeps the sign through every parser
    assert serial.dumps({"v": -0.0, "w": 0.0}) == '{\n  "v": -0.0,\n  "w": 0\n}\n'
    assert math.copysign(1.0, serial.loads(serial.dumps({"v": -0.0}))["v"]) == -1.0
    a = np.array([[-0.0, 1.0], [0.0, -0.0]])
    text = serial.matrix_to_text(a)
    back = serial.parse_matrix(text)
    assert np.array_equal(np.signbit(back), np.signbit(a))
    assert serial.matrix_to_text(back) == text
    g = cyclic_group(2)
    for values in (np.array([-0.0, 1.0]), np.array([complex(-0.0, 1.0), complex(1.0, -0.0)])):
        text = serial.function_to_text(GroupFunction(g, values))
        assert "-0.0" in text
        back = serial.parse_function(text).values
        assert np.array_equal(np.signbit(back.view(np.float64)),
                              np.signbit(values.view(np.float64)))
        assert serial.function_to_text(GroupFunction(g, back)) == text
    # D5's rotation matrices hold -0.0 entries
    d5 = dihedral_group(5)
    table = build_irrep_table(d5)
    text = serial.irreps_to_text(table)
    assert "-0.0" in text
    back = serial.parse_irreps(text, d5)
    for r, r2 in zip(table.irreps, back.irreps, strict=True):
        assert np.array_equal(np.signbit(r2.matrices.view(np.float64)),
                              np.signbit(r.matrices.view(np.float64)))
    assert serial.irreps_to_text(back) == text


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        serial.dumps({"kind": "probe", "v": math.inf})


def test_list_emission_text_is_pinned():
    # lists of only int or only float, and lists nesting float lists to one
    # depth, are joined in one pass; bool, mixed and other nested lists take
    # the per-item path; arrays are emitted as their tolist(); -0.0 keeps its
    # point
    obj = {
        "ints": [3, -1, 0, 10**20],
        "floats": [0.1, -0.0, 1e300, 2.5],
        "bools": [True, False],
        "mixed": [1, 2.5, True, None, "s", np.int64(4), np.float64(0.5)],
        "nested": [[1, 2], [0.5, -0.0], []],
        "rows": [[0.5, -0.0], [], [2.0]],
        "deep": [[[1.5, -0.0], [0.25, 3.0]], [[], [-1.0]]],
        "ragged": [[[1.5]], [], [2.0]],
        "array": np.array([[1.0, -0.0], [3.0, 0.25]]),
        "iarray": np.arange(3),
        "empty": [],
        "tuple": (1, 2),
    }
    assert serial.dumps(obj) == (
        '{\n'
        '  "ints": [3, -1, 0, 100000000000000000000],\n'
        '  "floats": [0.10000000000000001, -0.0, 1.0000000000000001e+300, 2.5],\n'
        '  "bools": [true, false],\n'
        '  "mixed": [1, 2.5, true, null, "s", 4, 0.5],\n'
        '  "nested": [\n'
        '    [1, 2],\n'
        '    [0.5, -0.0],\n'
        '    []\n'
        '  ],\n'
        '  "rows": [\n'
        '    [0.5, -0.0],\n'
        '    [],\n'
        '    [2]\n'
        '  ],\n'
        '  "deep": [\n'
        '    [\n'
        '      [1.5, -0.0],\n'
        '      [0.25, 3]\n'
        '    ],\n'
        '    [\n'
        '      [],\n'
        '      [-1]\n'
        '    ]\n'
        '  ],\n'
        '  "ragged": [\n'
        '    [\n'
        '      [1.5]\n'
        '    ],\n'
        '    [],\n'
        '    [2]\n'
        '  ],\n'
        '  "array": [\n'
        '    [1, -0.0],\n'
        '    [3, 0.25]\n'
        '  ],\n'
        '  "iarray": [0, 1, 2],\n'
        '  "empty": [],\n'
        '  "tuple": [1, 2]\n'
        '}\n'
    )
    for bad in ([math.nan, 1.0], np.array([1.0, math.nan]), [1, math.nan]):
        with pytest.raises(ValueError, match="non-finite"):
            serial.dumps({"v": bad})


def test_group_round_trip():
    g = dihedral_group(5)
    text = serial.group_to_text(g)
    g2 = serial.parse_group(text)
    assert np.array_equal(g2.mul, g.mul)
    assert serial.group_to_text(g2) == text


def test_group_parse_rejects_tampered_inverse():
    g = cyclic_group(4)
    obj = serial.group_to_obj(g)
    obj["inv"] = [0, 1, 2, 3]
    with pytest.raises(ValueError, match="inverse"):
        serial.parse_group(obj)


def test_perm_group_round_trip_regenerates_closure():
    gens = [[1, 0, 2, 3], [1, 2, 3, 0]]
    pg = group_closure(4, gens)
    text = serial.dumps(serial.perm_group_to_obj(pg))
    assert serial.loads(text)["generators"] == gens
    pg2 = serial.parse_perm_group(text)
    assert pg2.order == pg.order == 24
    assert np.array_equal(pg2.elements, pg.elements)


def test_matrix_round_trip_and_edge_list():
    rng = np.random.Generator(np.random.Philox(1))
    a = rng.standard_normal((3, 5))
    text = serial.matrix_to_text(a)
    assert np.array_equal(serial.parse_matrix(text), a)
    edges = {"kind": "edge_list", "n": 4, "edges": [[0, 1], [2, 3], [1, 2]]}
    m = serial.parse_matrix(edges)
    assert np.array_equal(m, m.T)
    assert m.sum() == 6.0
    with pytest.raises(ValueError, match="out of range"):
        serial.parse_matrix({"kind": "edge_list", "n": 2, "edges": [[0, 5]]})


def test_matrix_parse_validates_shape_and_kind():
    with pytest.raises(ValueError, match="entries"):
        serial.parse_matrix({"kind": "matrix", "rows": 2, "cols": 2, "entries": [1.0]})
    with pytest.raises(ValueError, match="kind"):
        serial.parse_matrix({"kind": "group", "rows": 1})


def test_function_round_trip_real_and_complex():
    g = cyclic_group(6)
    f = GroupFunction(g, np.arange(6.0))
    f2 = serial.parse_function(serial.function_to_text(f))
    assert np.array_equal(f2.values, f.values)
    fc = GroupFunction(g, np.arange(6.0) * (1 + 2j))
    fc2 = serial.parse_function(serial.function_to_text(fc))
    assert np.array_equal(fc2.values, fc.values)


def test_irreps_round_trip_with_validation():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    text = serial.irreps_to_text(table)
    table2 = serial.parse_irreps(text, g)
    assert table2.dims == table.dims
    with pytest.raises(ValueError, match="order"):
        serial.parse_irreps(text, cyclic_group(3))


@pytest.mark.parametrize("spec", ["Z12", "D5", "D128"])
def test_irrep_text_is_unchanged_by_a_parse(spec):
    g = parse_group_spec(spec)
    text = serial.irreps_to_text(build_irrep_table(g))
    assert serial.irreps_to_text(serial.parse_irreps(text, g)) == text


def test_irreps_parse_rejects_invalid_table():
    g = dihedral_group(4)
    table = build_irrep_table(g)
    obj = serial.loads(serial.irreps_to_text(table))
    obj["irreps"] = obj["irreps"][:-1]  # drop one irrep: incomplete
    with pytest.raises(ValueError, match="invalid irrep table"):
        serial.parse_irreps(obj, g)


def test_shipped_s3_irreps_load_and_validate():
    from cayleynorms.verify import load_s3_irreps

    table = load_s3_irreps()
    assert sorted(table.dims) == [1, 1, 2]
    assert table.group.order == symmetric_group(3).order


def test_report_round_trip():
    report = analyze(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    text = serial.report_to_text(report)
    obj = serial.parse_report(text)
    assert obj["spectral"] == report.spectral
    assert obj["cut"]["value"] == report.cut.value
    assert obj["groth_lower"] == report.groth.lower
    assert all(c["passed"] for c in obj["checks"])
    # wall-clock timings never enter the serialized form
    assert "timings" not in obj
    assert "bm_rank" in obj["work"] or obj["work"]


def test_provenance_is_attached_and_ignored_by_parsers():
    g = cyclic_group(3)
    text = serial.group_to_text(g, provenance={"family": "cyclic", "params": [3]})
    obj = serial.loads(text)
    assert obj["provenance"]["family"] == "cyclic"
    g2 = serial.parse_group(text)
    assert g2.order == 3


def test_emission_is_deterministic():
    g = dihedral_group(4)
    assert serial.group_to_text(g) == serial.group_to_text(g)
    report_a = serial.report_to_text(analyze(np.ones((3, 3))))
    report_b = serial.report_to_text(analyze(np.ones((3, 3))))
    assert report_a == report_b


# every count and index a parser reads is an integer in range, or a ValueError
# naming the field; int() would truncate 2.7 to 2
_Z2 = {"kind": "group", "order": 2, "mul": [0, 1, 1, 0], "inv": [0, 1]}


@pytest.mark.parametrize("order", [2.7, True, "2"])
def test_group_parse_rejects_non_integer_order(order):
    with pytest.raises(ValueError, match="order"):
        serial.parse_group(dict(_Z2, order=order))


def test_group_parse_rejects_mul_of_wrong_length():
    with pytest.raises(ValueError, match="mul"):
        serial.parse_group(dict(_Z2, mul=[0, 1, 1, 0, 1]))


@pytest.mark.parametrize("rows, cols, field", [(2.5, 2, "rows"), (-2, -2, "rows"),
                                               (2, "2", "cols")])
def test_matrix_parse_rejects_bad_counts(rows, cols, field):
    obj = {"kind": "matrix", "rows": rows, "cols": cols, "entries": [1.0, 0.0, 0.0, 1.0]}
    with pytest.raises(ValueError, match=field):
        serial.parse_matrix(obj)


@pytest.mark.parametrize("n, edge", [(3.9, [0, 1]), (3, [0, 1.5]), (3, [False, 1])])
def test_edge_list_parse_rejects_non_integers(n, edge):
    with pytest.raises(ValueError, match="must be an integer"):
        serial.parse_matrix({"kind": "edge_list", "n": n, "edges": [edge]})


@pytest.mark.parametrize("obj, field", [
    ({"kind": "matrix", "rows": 2}, "cols"),
    ({"kind": "matrix", "cols": 2, "entries": []}, "rows"),
    ({"kind": "matrix", "rows": 1, "cols": 1}, "entries"),
    ({"kind": "edge_list", "edges": []}, "n"),
    ({"kind": "edge_list", "n": 2}, "edges"),
    ({"kind": "perm_group", "generators": []}, "degree"),
    ({"kind": "perm_group", "degree": 2}, "generators"),
])
def test_matrix_and_perm_group_parse_name_a_missing_field(obj, field):
    parse = serial.parse_perm_group if obj["kind"] == "perm_group" else serial.parse_matrix
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        parse(obj)


def test_perm_group_parse_rejects_non_integer_image():
    with pytest.raises(ValueError, match=r"generators\[0\]\[0\]"):
        serial.parse_perm_group({"kind": "perm_group", "degree": 2, "generators": [[1.7, 0]]})


def test_irreps_parse_rejects_non_integer_dim():
    g = dihedral_group(4)
    obj = serial.loads(serial.irreps_to_text(build_irrep_table(g)))
    obj["irreps"][0]["dim"] = 1.9
    with pytest.raises(ValueError, match="dim"):
        serial.parse_irreps(obj, g)


def test_integral_float_counts_still_parse():
    assert serial.parse_group(dict(_Z2, order=2.0)).order == 2
    a = serial.parse_matrix({"kind": "matrix", "rows": 2.0, "cols": 2, "entries": [1, 2, 3, 4]})
    assert a.shape == (2, 2)
    m = serial.parse_matrix({"kind": "edge_list", "n": 3.0, "edges": [[0.0, 2]]})
    assert m[0, 2] == m[2, 0] == 1.0
    pg = serial.parse_perm_group({"kind": "perm_group", "degree": 2.0, "generators": [[1.0, 0]]})
    assert pg.order == 2


# a group function names a built-in group by label and order; other groups,
# and files written before, embed the table
@pytest.mark.parametrize("spec", ["Z6", "D4", "Z2xZ3", "S3"])
def test_function_of_a_builtin_group_names_it_and_round_trips_bit_for_bit(spec):
    g = parse_group_spec(spec)
    values = np.linspace(-1.0, 1.0, g.order) / 3
    for f in (GroupFunction(g, values), GroupFunction(g, values - 1j * values[::-1])):
        text = serial.function_to_text(f)
        assert serial.loads(text)["group"] == {"kind": "group", "label": spec, "order": g.order}
        f2 = serial.parse_function(text)
        assert f2.group.label == spec and np.array_equal(f2.group.mul, g.mul)
        assert f2.values.tobytes() == f.values.tobytes()
        assert serial.function_to_text(f2) == text


def test_legacy_function_file_with_embedded_table_still_parses():
    g = dihedral_group(4)
    f = GroupFunction(g, np.arange(8.0))
    obj = serial.function_to_obj(f)
    obj["group"] = serial.group_to_obj(g)
    f2 = serial.parse_function(serial.dumps(obj))
    assert np.array_equal(f2.group.mul, g.mul) and np.array_equal(f2.values, f.values)
    assert serial.function_to_text(f2) == serial.function_to_text(f)
    obj["group"]["mul"][9] = 0  # row 1 of D4 now holds the identity twice
    with pytest.raises(GroupAxiomError):
        serial.parse_function(obj)


@pytest.mark.parametrize("group, error, match", [
    ({"label": "D4", "order": 6}, ValueError, "'D4' names a group of order 8, not 6"),
    ({"label": "Q8", "order": 8}, ValueError, "'Q8' has no table and its label names no built-in"),
    ({"order": 8}, ValueError, "missing field 'label'"),
    ({"label": "Z5041", "order": 5041}, CapacityError, "5041 exceeds the table cap 5040"),
], ids=["wrong-order", "unknown-label", "no-label", "over-cap"])
def test_tableless_group_is_rejected_with_a_clear_error(group, error, match):
    obj = {"kind": "group_function", "group": dict(group, kind="group"),
           "complex": False, "values": [0.0] * group["order"]}
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            serial.parse_function(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # rejected before any table is built


def test_groups_that_are_not_built_in_keep_their_table():
    klein = product_group(cyclic_group(2), cyclic_group(2))
    lifted = group_closure(3, [[1, 0, 2], [1, 2, 0]]).table  # S3 as a permutation group
    for g in (build_from_table(klein.mul, label="Z4"), lifted,
              build_from_table(cyclic_group(5).mul)):
        obj = serial.function_to_obj(GroupFunction(g, np.ones(g.order)))
        assert obj["group"] == serial.group_to_obj(g)
        assert np.array_equal(serial.parse_function(obj).group.mul, g.mul)


# a malformed group-function or irrep file is a ValueError naming the field
def malformed_function_text(case: str) -> str:
    """A D4 function file with one fault; json.dumps writes a NaN as NaN."""
    values = np.arange(8.0) if case == "null" else np.arange(8.0) * (1 + 1j)
    obj = serial.function_to_obj(GroupFunction(dihedral_group(4), values))
    if case == "not-pairs":
        obj["values"] = list(range(8))
    elif case == "no-group":
        del obj["group"]
    elif case == "null":
        obj["values"][3] = None
    else:
        obj["values"][3][1] = math.nan
    return json.dumps(obj)


MALFORMED_FUNCTIONS = {
    "not-pairs": "values must hold \\[re, im\\] pairs, found shape \\(8,\\)",
    "no-group": "missing field 'group'",
    "null": "values\\[3\\] = None is not a finite number",
    "nan": "values\\[3\\]\\[1\\] = nan is not a finite number",
}


@pytest.mark.parametrize("case", list(MALFORMED_FUNCTIONS))
def test_malformed_function_file_names_the_field(case, tmp_path, capsys):
    with pytest.raises(ValueError, match=MALFORMED_FUNCTIONS[case]):
        serial.parse_function(malformed_function_text(case))
    src = tmp_path / "f.json"
    src.write_text(malformed_function_text(case))
    assert cli.main(["fourier", str(src), "--quiet"]) == 2  # a usage error, no traceback
    assert re.search(MALFORMED_FUNCTIONS[case], capsys.readouterr().err)


@pytest.mark.parametrize("case, match", [
    ("not-pairs", "irreps\\[4\\].matrices must hold \\[re, im\\] pairs, found shape \\(8, 4\\)"),
    ("no-matrices", "missing field 'irreps\\[4\\].matrices'"),
    ("null", "irreps\\[4\\].matrices\\[2\\]\\[3\\]\\[0\\] = None is not a finite number"),
    ("nan", "irreps\\[4\\].matrices\\[2\\]\\[3\\]\\[0\\] = nan is not a finite number"),
], ids=["not-pairs", "no-matrices", "null", "nan"])
def test_malformed_irrep_file_names_the_field(case, match):
    g = dihedral_group(4)
    obj = serial.irreps_to_obj(build_irrep_table(g))
    entry = obj["irreps"][4]  # the 2-dimensional irrep
    if case == "not-pairs":
        entry["matrices"] = [[1.0, 0.0, 0.0, 1.0]] * 8
    elif case == "no-matrices":
        del entry["matrices"]
    else:
        entry["matrices"][2][3][0] = None if case == "null" else math.nan
    with pytest.raises(ValueError, match=match):
        serial.parse_irreps(json.dumps(obj), g)
