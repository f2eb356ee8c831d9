"""End-to-end command-line behaviour: files, reports, exit codes."""

import hashlib
import sys

import numpy as np
import pytest

from cayleynorms import GroupFunction, parse_group_spec, serial
from cayleynorms.cli import main
from cayleynorms.norms import default_bm_rank, spectral_norm


def run(argv):
    return main(argv)


def test_construct_paley_file_revalidates(tmp_path):
    out = tmp_path / "p13.json"
    assert run(["construct", "paley", "13", "--out", str(out), "--quiet"]) == 0
    a = serial.parse_matrix(out.read_text())
    assert a.shape == (13, 13)
    assert np.all(a.sum(axis=1) == 6)
    obj = serial.loads(out.read_text())
    assert obj["provenance"]["family"] == "paley"
    assert obj["provenance"]["seed"] == 0


def test_construct_cycle(tmp_path):
    out = tmp_path / "c12.json"
    assert run(["construct", "cycle", "12", "--out", str(out), "--quiet"]) == 0
    a = serial.parse_matrix(out.read_text())
    assert np.all(a.sum(axis=1) == 2)


def test_construct_example1_eigen_certificate(tmp_path):
    out = tmp_path / "ex1.json"
    assert run(["construct", "example1", "--d", "8", "--n", "24",
                "--seed", "1", "--out", str(out), "--quiet"]) == 0
    obj = serial.loads(out.read_text())
    a = serial.parse_matrix(obj)
    cert = obj["eigen_certificate"]
    y = np.array(cert["vector"])
    # recompute the certified eigenvalue on load
    assert np.abs(a @ y - cert["eigenvalue"] * y).max() <= 1e-12
    assert cert["eigenvalue"] == -4.0


def test_construct_group_and_cayley(tmp_path):
    gout = tmp_path / "d4.json"
    assert run(["construct", "group", "D4", "--out", str(gout), "--quiet"]) == 0
    g = serial.parse_group(gout.read_text())
    assert g.order == 8
    cout = tmp_path / "cay.json"
    assert run(["construct", "cayley", "D4", "--set", "1,3,4",
                "--out", str(cout), "--quiet"]) == 0
    a = serial.parse_matrix(cout.read_text())
    assert np.all(a.sum(axis=1) == 3)
    assert serial.loads(cout.read_text())["symmetric_set"] is True
    # {1, 2, 5} in Z8 lacks the inverse 7 of 1
    assert run(["construct", "cayley", "Z8", "--set", "1,2,5",
                "--out", str(cout), "--quiet"]) == 0
    assert serial.loads(cout.read_text())["symmetric_set"] is False


def test_construct_errors_exit_one(tmp_path, capsys):
    assert run(["construct", "paley", "7", "--quiet"]) == 1
    assert "mod 4" in capsys.readouterr().err


def test_construct_unknown_family_exits_two(tmp_path):
    assert run(["construct", "moebius", "3", "--quiet"]) == 2


def test_analyze_two_by_two(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(serial.matrix_to_text(np.array([[1.0, -1.0], [-1.0, 1.0]])))
    out = tmp_path / "report.json"
    assert run(["analyze", str(src), "--out", str(out), "--quiet"]) == 0
    obj = serial.parse_report(out.read_text())
    assert obj["cut"]["value"] == pytest.approx(1.0)
    assert obj["infty_one"] == pytest.approx(4.0)
    assert obj["spectral"] == pytest.approx(2.0)
    assert obj["groth_lower"] == pytest.approx(4.0, abs=1e-9)
    assert obj["groth_upper"] == pytest.approx(4.0, abs=1e-9)
    assert obj["transitive"] is True


def test_analyze_j4(tmp_path):
    src = tmp_path / "j4.json"
    src.write_text(serial.matrix_to_text(np.ones((4, 4))))
    out = tmp_path / "report.json"
    assert run(["analyze", str(src), "--out", str(out), "--quiet"]) == 0
    obj = serial.parse_report(out.read_text())
    assert obj["spectral"] == pytest.approx(4.0)
    for key in ("infty_one", "groth_lower", "groth_upper"):
        assert obj[key] == pytest.approx(16.0, rel=1e-9)
    assert obj["cut"]["value"] == pytest.approx(16.0)


def test_analyze_centered_paley_corollary_flags(tmp_path):
    from cayleynorms import center_regular, paley_graph

    src = tmp_path / "p13c.json"
    centered = center_regular(paley_graph(13).matrix, 6)
    src.write_text(serial.matrix_to_text(centered))
    out = tmp_path / "report.json"
    assert run(["analyze", str(src), "--out", str(out), "--quiet"]) == 0
    obj = serial.parse_report(out.read_text())
    assert obj["transitive"] is True
    cor = {c["name"]: c for c in obj["checks"] if c["name"].startswith("transitive_")}
    assert len(cor) == 2
    assert all(c["passed"] for c in cor.values())


def test_reports_are_byte_identical_across_runs(tmp_path):
    src = tmp_path / "m.json"
    src.write_text(serial.matrix_to_text(np.array([[0.0, 2.0], [1.0, -1.0]])))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["analyze", str(src), "--seed", "5", "--out", str(out1), "--quiet"]) == 0
    assert run(["analyze", str(src), "--seed", "5", "--out", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "r3.json"
    assert run(["construct", "random-regular", "--n", "12", "--d", "3",
                "--seed", "9", "--out", str(out3), "--quiet"]) == 0
    out4 = tmp_path / "r4.json"
    assert run(["construct", "random-regular", "--n", "12", "--d", "3",
                "--seed", "9", "--out", str(out4), "--quiet"]) == 0
    assert out3.read_bytes() == out4.read_bytes()


def test_analyze_malformed_file_exits_two(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{not json")
    assert run(["analyze", str(src), "--quiet"]) == 2
    assert run(["analyze", str(tmp_path / "missing.json"), "--quiet"]) == 2
    src.write_text('{"kind": "matrix", "rows": 2}')
    capsys.readouterr()
    assert run(["analyze", str(src), "--quiet"]) == 2
    assert "missing field 'cols'" in capsys.readouterr().err


def test_lift_round_trip(tmp_path):
    src = tmp_path / "c8.json"
    assert run(["construct", "cycle", "8", "--out", str(src), "--quiet"]) == 0
    out = tmp_path / "lift.json"
    assert run(["lift", str(src), "--out", str(out), "--quiet"]) == 0
    obj = serial.loads(out.read_text())
    f = serial.parse_function(out.read_text())
    assert obj["lift_checks"]["agree_1e8"] is True
    assert f.values.sum() * f.group.order / len(f.values) >= 0  # parses cleanly


def test_lift_nontransitive_exits_one(tmp_path, capsys):
    src = tmp_path / "star.json"
    star = np.zeros((4, 4))
    star[0, 1:] = star[1:, 0] = 1.0
    src.write_text(serial.matrix_to_text(star))
    assert run(["lift", str(src), "--quiet"]) == 1
    assert "not vertex-transitive" in capsys.readouterr().err


# sha256 of `lift NAME.json --out lift.json --quiet`, run from the directory of
# the input, since provenance records the path as given.  Cross-machine pins:
# a lift file holds matrix entries, the group closure and the `agree_1e8`
# verdict, but no LAPACK value, so the same bytes come out under the default
# and the forced Haswell, SandyBridge, Nehalem and Zen OpenBLAS kernels.
# Subgroup orders: 26, 120 and 48.
LIFT_SHA256 = {
    ("paley", "13"): "2f65891328f72475aca2b84292eb1a2e7b5da2791232038ea9ee0bda8632a2a5",
    ("petersen",): "c09112b27718435d29a65d96c5e6b061d00576210109dbecf74417e64c4b4277",
    ("cayley", "D4", "--set", "1,3,4"):
        "80a590f8f9824934f753bb8324380802e3932dfd9024c01d1e89d556f5c51763",
}


# sha256 of `construct FAMILY ... --out FILE --quiet`.  Cross-machine pins: a
# constructed matrix involves no LAPACK or BLAS value.
CONSTRUCT_SHA256 = {
    ("cayley", "D4", "--set", "1,3,4"):
        "2b93e5ce3a837f0f33693c0b1b8842068ac90218399c50c192db1309639c7b18",
    # not closed under inverses: "symmetric_set": false
    ("cayley", "Z8", "--set", "1,2,5"):
        "0eadda90cdbf5c10956332061758406035e98c363eccc664b1b4a17f21492d78",
    ("paley", "13"): "8b169cdd29d7396715154301729a634fb11e6c2c3f5f246d4e87d0dcec3d69b8",
}


@pytest.mark.parametrize("family", list(CONSTRUCT_SHA256),
                         ids=lambda f: "-".join(x for x in f if not x.startswith("--")))
def test_construct_writes_pinned_bytes(family, tmp_path):
    out = tmp_path / "c.json"
    assert run(["construct", *family, "--out", str(out), "--quiet"]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CONSTRUCT_SHA256[family]


@pytest.mark.parametrize("family", list(LIFT_SHA256), ids=lambda f: f[0])
def test_lift_writes_pinned_bytes(family, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = {"paley": "paley13", "petersen": "petersen", "cayley": "d4"}[family[0]]
    assert run(["construct", *family, "--out", f"{name}.json", "--quiet"]) == 0
    assert run(["lift", f"{name}.json", "--out", "lift.json", "--quiet"]) == 0
    digest = hashlib.sha256((tmp_path / "lift.json").read_bytes()).hexdigest()
    assert digest == LIFT_SHA256[family]


@pytest.mark.parametrize("p", [13, 29, 37])
def test_lift_of_paley_goes_through_fourier(p, tmp_path, monkeypatch):
    # the lift's generators close to a dihedral group of order 2p, whose
    # irreps are built in
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "paley", str(p), "--out", "p.json", "--quiet"]) == 0
    assert run(["lift", "p.json", "--out", "l.json", "--quiet"]) == 0
    assert run(["fourier", "l.json", "--out", "four.json", "--quiet"]) == 0
    a = serial.parse_matrix((tmp_path / "p.json").read_text())
    report = serial.loads((tmp_path / "four.json").read_text())
    assert report["order"] == 2 * p
    want = spectral_norm(a) / p
    assert abs(report["spectral_via_irreps"] - want) <= 1e-12 * want


def test_lift_empty_matrix_exits_one(tmp_path, capsys):
    src = tmp_path / "empty.json"
    src.write_text('{"kind": "matrix", "rows": 0, "cols": 0, "entries": []}')
    assert run(["lift", str(src), "--quiet"]) == 1
    assert "error: lift needs a non-empty square matrix" in capsys.readouterr().err


def test_lift_group_past_the_table_cap_exits_one(tmp_path, capsys):
    # the automorphisms of K8 close to S_8, of order 40320; the closure stops
    # at the first element past the cap
    src = tmp_path / "k8.json"
    assert run(["construct", "complete", "8", "--out", str(src), "--quiet"]) == 0
    assert run(["lift", str(src), "--quiet"]) == 1
    assert ("error: group closure reached 5041 elements: its order exceeds the table cap 5040"
            in capsys.readouterr().err)


def test_fourier_subcommand_with_user_irreps(tmp_path):
    from cayleynorms import GroupFunction, build_irrep_table, dihedral_group

    g = dihedral_group(4)
    fsrc = tmp_path / "f.json"
    rng = np.random.Generator(np.random.Philox(3))
    f = GroupFunction(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    fsrc.write_text(serial.function_to_text(f))
    isrc = tmp_path / "irr.json"
    isrc.write_text(serial.irreps_to_text(build_irrep_table(g)))
    out = tmp_path / "four.json"
    assert run(["fourier", str(fsrc), "--irreps", str(isrc),
                "--out", str(out), "--quiet"]) == 0
    obj = serial.loads(out.read_text())
    assert obj["spectral_via_irreps"] == pytest.approx(obj["spectral_dense"], rel=1e-8)
    assert obj["svd_witness_objective"] == pytest.approx(obj["spectral_via_irreps"],
                                                         rel=1e-8)


@pytest.mark.parametrize("spec", ["Z12", "D5", "D128"])
def test_fourier_report_is_the_same_from_a_parsed_and_a_builtin_table(spec, tmp_path):
    from cayleynorms import GroupFunction, build_irrep_table, parse_group_spec

    g = parse_group_spec(spec)
    rng = np.random.Generator(np.random.Philox(8))
    isrc = tmp_path / "irreps.json"
    isrc.write_text(serial.irreps_to_text(build_irrep_table(g)))
    for values in (rng.standard_normal(g.order),
                   rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)):
        fsrc = tmp_path / "f.json"
        fsrc.write_text(serial.function_to_text(GroupFunction(g, values)))
        builtin, parsed = tmp_path / "builtin.json", tmp_path / "parsed.json"
        assert run(["fourier", str(fsrc), "--out", str(builtin), "--quiet"]) == 0
        assert run(["fourier", str(fsrc), "--irreps", str(isrc), "--out", str(parsed),
                    "--quiet"]) == 0
        assert parsed.read_bytes() == builtin.read_bytes()


def test_fourier_irrep_file_with_a_short_matrix_stack_exits_two(tmp_path, capsys):
    from cayleynorms import GroupFunction, build_irrep_table, dihedral_group

    g = dihedral_group(4)
    obj = serial.irreps_to_obj(build_irrep_table(g))
    obj["irreps"][1]["matrices"] = obj["irreps"][1]["matrices"][:5]
    (tmp_path / "irreps.json").write_text(serial.dumps(obj))
    (tmp_path / "f.json").write_text(serial.function_to_text(GroupFunction.constant(g, 1.0)))
    assert run(["fourier", str(tmp_path / "f.json"), "--irreps", str(tmp_path / "irreps.json"),
                "--quiet"]) == 2
    assert "irrep 1: 5 matrices for a group of order 8" in capsys.readouterr().err


def test_fourier_report_takes_one_transform(tmp_path, monkeypatch):
    import cayleynorms.cli
    import cayleynorms.fourier
    from cayleynorms import GroupFunction, parse_group_spec

    calls = []
    original = cayleynorms.fourier.fourier_transform

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cayleynorms.fourier, "fourier_transform", counted)
    monkeypatch.setattr(cayleynorms.cli, "fourier_transform", counted, raising=False)
    rng = np.random.Generator(np.random.Philox(4))
    for spec in ("D5", "Z2xZ4"):
        g = parse_group_spec(spec)
        fsrc = tmp_path / f"{spec}.json"
        fsrc.write_text(serial.function_to_text(GroupFunction(g, rng.standard_normal(g.order))))
        calls.clear()
        assert run(["fourier", str(fsrc), "--out", str(tmp_path / "r.json"), "--quiet"]) == 0
        assert len(calls) == 1


@pytest.mark.parametrize("spec, irreps", [("D128", True), ("Z16xZ16", True), ("D384", False)])
def test_fourier_report_is_the_same_from_a_tableless_and_a_legacy_file(spec, irreps, tmp_path):
    # a legacy file embeds the group's table; a D384 irrep file is 16 MB, so
    # --irreps runs on the two groups of order 256
    import json

    from cayleynorms import GroupFunction, build_irrep_table, parse_group_spec

    g = parse_group_spec(spec)
    f = GroupFunction(g, np.random.Generator(np.random.Philox(5)).standard_normal(g.order))
    tableless = serial.function_to_obj(f)
    legacy = dict(tableless, group=serial.group_to_obj(g))
    assert "mul" not in tableless["group"] and "mul" in legacy["group"]
    extra = []
    if irreps:
        (tmp_path / "irreps.json").write_text(json.dumps(serial.irreps_to_obj(build_irrep_table(g))))
        extra = ["--irreps", str(tmp_path / "irreps.json")]
    reports = []
    for name, obj in (("tableless", tableless), ("legacy", legacy)):
        src, out = tmp_path / f"{name}.json", tmp_path / f"{name}.report.json"
        src.write_text(serial.dumps(obj))
        assert run(["fourier", str(src), *extra, "--out", str(out), "--quiet"]) == 0
        report = serial.loads(out.read_text())
        del report["provenance"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["group_label"] == spec


def test_fourier_tableless_d384_file_is_small(tmp_path):
    from cayleynorms import GroupFunction, parse_group_spec

    g = parse_group_spec("D384")
    f = GroupFunction(g, np.random.Generator(np.random.Philox(6)).standard_normal(g.order))
    assert len(serial.function_to_text(f).encode()) <= 20_000


def test_analyze_non_integer_row_count_exits_two(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text('{"kind": "matrix", "rows": 2.5, "cols": 2, "entries": [1, 0, 0, 1]}')
    assert run(["analyze", str(src), "--quiet"]) == 2
    assert "rows" in capsys.readouterr().err


def test_verify_known_and_unknown_suites(capsys):
    assert run(["verify", "factor4", "--quiet"]) == 0
    assert run(["verify", "factor4-suite", "--quiet"]) == 0
    assert run(["verify", "bogus-suite", "--quiet"]) == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--restarts", "0", "restarts must be >= 1, got 0"),
    ("--rank", "0", "rank must be >= 1, got 0"),
])
def test_analyze_names_the_bad_ascent_setting(tmp_path, capsys, flag, value, message):
    src = tmp_path / "m.json"
    src.write_text(serial.matrix_to_text(np.eye(2)))
    assert run(["analyze", str(src), flag, value, "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_analyze_overflow_exits_one_without_traceback(tmp_path, capsys):
    src = tmp_path / "h.json"
    src.write_text(serial.matrix_to_text(np.array([[1.7e308, -1.7e308], [1.7e308, 1.7e308]])))
    assert run(["analyze", str(src), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["checks", "upper"])
def test_analyze_overflowing_check_or_upper_end_exits_one(tmp_path, capsys, name):
    # finite norms with an infinite check side, and an infinite upper end: one
    # entry 8 u below the largest double past the enumeration cap, whose
    # spectral bound and dual certificate both overflow (test_norms'
    # OVERFLOWING_UPPER asserts both)
    a = 3e307 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    if name == "upper":
        a = np.zeros((27, 27))
        a[0, 0] = sys.float_info.max * (1 - 2.0 ** -50)
    src = tmp_path / "h.json"
    src.write_text(serial.matrix_to_text(a))
    assert run(["analyze", str(src), "--out", str(tmp_path / "r.json"), "--restarts", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_fourier_overflow_exits_one_without_traceback(tmp_path, capsys):
    src = tmp_path / "f.json"
    f = GroupFunction(parse_group_spec("Z2"), np.array([1.7e308, 1.7e308]))
    src.write_text(serial.function_to_text(f))
    assert run(["fourier", str(src), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err and "Traceback" not in err


def test_consecutive_calls_share_the_parser_but_not_its_arguments(tmp_path):
    src = tmp_path / "m.json"
    src.write_text(serial.matrix_to_text(np.eye(3)))
    ranked, default = tmp_path / "ranked.json", tmp_path / "default.json"
    assert run(["analyze", str(src), "--rank", "3", "--out", str(ranked), "--quiet"]) == 0
    assert run(["analyze", str(src), "--out", str(default), "--quiet"]) == 0
    assert serial.loads(ranked.read_text())["bm_rank"] == 3
    assert serial.loads(default.read_text())["bm_rank"] == default_bm_rank(3, 3) != 3


def test_verify_writes_report(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "mixing", "--out", str(out), "--quiet"]) == 0
    obj = serial.loads(out.read_text())
    assert obj["kind"] == "verify_report"
    assert obj["passed"] is True


# the flags each subcommand no longer takes: it reads none of them
_DROPPED_FLAGS = [
    *((cmd, flag) for cmd in ("lift", "fourier", "verify")
      for flag in ("--seed", "--rank", "--restarts", "--exact-cut-limit")),
    *(("construct", flag) for flag in ("--rank", "--restarts", "--exact-cut-limit")),
    ("analyze", "--exact-cut-limit"),
]


@pytest.mark.parametrize("command, flag", _DROPPED_FLAGS)
def test_subcommand_rejects_flags_it_does_not_read(command, flag):
    positional = {"construct": ["cycle", "5"], "verify": ["factor4"]}.get(command, ["m.json"])
    with pytest.raises(SystemExit) as exc:
        run([command, *positional, flag, "3", "--quiet"])
    assert exc.value.code == 2


def test_parser_accepts_only_the_flags_each_subcommand_reads():
    import argparse

    from cayleynorms.cli import _build_parser

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(s for a in p._actions for s in a.option_strings
                          if s not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    assert flags == {
        "construct": ["--d", "--n", "--out", "--quiet", "--seed", "--set"],
        "analyze": ["--out", "--quiet", "--rank", "--restarts", "--seed"],
        "lift": ["--out", "--quiet"],
        "fourier": ["--irreps", "--out", "--quiet"],
        "verify": ["--out", "--quiet"],
    }


def test_construct_fixed_arity_families_check_their_parameter_count(capsys):
    assert run(["construct", "petersen", "3", "--quiet"]) == 2
    assert run(["construct", "cycle", "--quiet"]) == 2
    assert "takes 1 positional parameter" in capsys.readouterr().err


def test_lift_agreement_is_relative_at_tiny_scale(tmp_path, monkeypatch):
    import cayleynorms.cli
    from cayleynorms import paley_graph

    src = tmp_path / "p13.json"
    src.write_text(serial.matrix_to_text(1e-12 * paley_graph(13).matrix))
    out = tmp_path / "lift.json"
    assert run(["lift", str(src), "--out", str(out), "--quiet"]) == 0
    assert serial.loads(out.read_text())["lift_checks"]["agree_1e8"] is True
    exact = cayleynorms.cli.group_spectral
    monkeypatch.setattr(cayleynorms.cli, "group_spectral", lambda f: exact(f) * (1 + 1e-6))
    assert run(["lift", str(src), "--out", str(out), "--quiet"]) == 0
    assert serial.loads(out.read_text())["lift_checks"]["agree_1e8"] is False
