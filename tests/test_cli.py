"""End-to-end command-line behaviour: files, reports, exit codes."""

import hashlib

import numpy as np
import pytest

from cayleynorms import serial
from cayleynorms.cli import main


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
# the input, since provenance records the path as given
LIFT_SHA256 = {
    ("paley", "13"): "246079b08aad563b325d94b217f3f7fa0b7d7eb2b6aed4f138122953b69579fe",
    ("petersen",): "bde4d12af7ec62a87027fa5b7f419d346ae608d593d216d369651fdfa69141bd",
    ("cayley", "D4", "--set", "1,3,4"):
        "3fd024b0a1fbe9645727cc791778da34bff059314176ec316f451d2bb3f218a1",
}


# sha256 of `construct FAMILY ... --out FILE --quiet`
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


def test_analyze_non_integer_row_count_exits_two(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text('{"kind": "matrix", "rows": 2.5, "cols": 2, "entries": [1, 0, 0, 1]}')
    assert run(["analyze", str(src), "--quiet"]) == 2
    assert "rows" in capsys.readouterr().err


def test_verify_known_and_unknown_suites(capsys):
    assert run(["verify", "factor4", "--quiet"]) == 0
    assert run(["verify", "factor4-suite", "--quiet"]) == 0
    assert run(["verify", "bogus-suite", "--quiet"]) == 2


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
