import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biham.cli import main
from biham.decomposition import synthesize_pair

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestCheck:
    def test_compatible_fixture(self, capsys):
        code, report, _ = run_report(capsys, "check", FIXTURES / "compatible_2d.json")
        assert code == 0
        assert report["schema_version"] == 1
        assert report["admissible"] == {"triple1": True, "triple2": True}
        assert report["compatible"] is True
        assert report["signature_complex"] == "U(1)"
        assert report["signature_real"] == "SO(2)"
        assert report["generic"]["real"] is True

    def test_incompatible_fixture(self, capsys):
        code, report, _ = run_report(capsys, "check", FIXTURES / "incompatible_2d.json")
        assert code == 1
        assert report["compatible"] is False
        assert "J1_J2_commutator" in report["residuals"]["compatibility"]
        assert report["blocks"] is None

    def test_single_triple_fixture(self, capsys):
        code, report, _ = run_report(capsys, "check", FIXTURES / "single_2d.json")
        assert code == 0
        assert report["admissible"] == {"triple1": True}
        assert report["compatible"] is None

    def test_malformed_dimension(self, capsys):
        code, out, err = run_cli(capsys, "check", FIXTURES / "malformed_dim3.json")
        assert code == 2
        assert "dimension must be even" in err
        assert out == ""

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", FIXTURES / "no_such_file.json")
        assert code == 2
        assert "error" in err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "check", bad)
        assert code == 2

    def test_schema_rejects_lone_g2(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "compatible_2d.json").read_text())
        del doc["omega2"]
        path = tmp_path / "lone_g2.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", path)
        assert code == 2
        assert "together" in err

    def test_schema_rejects_ragged_matrix(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "single_2d.json").read_text())
        doc["g1"] = [[1.0, 0.0], [0.0]]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", path)
        assert code == 2

    def test_inadmissible_input_exits_one(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "single_2d.json").read_text())
        doc["omega1"] = [[0.0, 1.0], [-1.0, 0.0]]  # wrong scale for diag(1, 4)
        path = tmp_path / "inadmissible.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_report(capsys, "check", path)
        assert code == 1
        assert report["admissible"]["triple1"] is False
        assert "J_squared_plus_identity" in report["residuals"]["triple1"]


class TestDecompose:
    def test_reference_4d(self, capsys):
        code, report, _ = run_report(capsys, "decompose", FIXTURES / "reference_4d.json")
        assert code == 0
        assert report["blocks"] == [
            {"lambda": pytest.approx(2.0), "sign": 1, "dim": 2},
            {"lambda": pytest.approx(3.0), "sign": -1, "dim": 2},
        ]
        assert report["generic"]["real"] is True
        assert report["signature_complex"] == "U(1)×U(1)"
        assert report["signature_real"] == "SO(2)×SO(2)"
        assert report["pencil_range"][0] == pytest.approx(-1.0 / 3.0)
        assert report["pencil_range"][1] is None  # unbounded above
        assert report["algebra_dim"] == 2

    def test_output_file_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "decompose", FIXTURES / "reference_4d.json",
                               "--output", out_path)
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["signature_complex"] == "U(1)×U(1)"
        assert not list(tmp_path.glob(".biham-*"))  # no temp files left behind

    def test_tol_flag_roundtrips(self, capsys):
        code, report, _ = run_report(capsys, "decompose",
                                     FIXTURES / "compatible_2d.json", "--tol", "1e-10")
        assert code == 0
        assert report["compatible"] is True

    def test_incompatible_exits_one(self, capsys):
        code, _, _ = run_report(capsys, "decompose", FIXTURES / "incompatible_2d.json")
        assert code == 1


class TestRecursion:
    def test_reference_4d_certificate(self, capsys):
        code, report, _ = run_report(capsys, "recursion", FIXTURES / "reference_4d.json")
        assert code == 0
        rec = report["recursion"]
        assert rec["rank"] == 2 == rec["expected_rank"]
        assert rec["all_pass"] is True
        assert rec["max_conservation_drift"] < 1e-9
        assert rec["nijenhuis_residual"] <= 1e-12

    def test_generic_dim32_synth_output_conserves(self, tmp_path, capsys):
        # ||T^15 J1|| is about 2e16 here: probing the raw power overflowed
        spec = ",".join(f"{0.5 + 0.75 * k!r}:{'+-'[k % 2]}:1" for k in range(16))
        path = tmp_path / "generic32.json"
        assert run_cli(capsys, "synth", "--spec", spec, "--seed", "1", "--out", path)[0] == 0
        code, report, _ = run_report(capsys, "check", path)
        assert code == 0
        assert report["recursion"]["max_conservation_drift"] <= 1e-12

    def test_second_triple_scaled_by_1e8_conserves(self, tmp_path, capsys):
        # T scales by 1e8, so the raw power T^7 J1 has norm about 5e59
        pair = synthesize_pair([(2.0, 1, 4), (3.0, -1, 4)], seed=5)
        doc = {"dim": pair.dim, "g1": pair.t1.g.m.tolist(), "omega1": pair.t1.omega.m.tolist(),
               "g2": (1e8 * pair.t2.g.m).tolist(), "omega2": (1e8 * pair.t2.omega.m).tolist()}
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_report(capsys, "check", path)
        assert code == 0
        assert report["recursion"]["max_conservation_drift"] <= 1e-12


class TestPencil:
    def test_gamma_one_blocks(self, capsys):
        code, report, _ = run_report(capsys, "pencil", FIXTURES / "reference_4d.json",
                                     "--gamma", "1.0")
        assert code == 0
        member = report["pencil_member"]
        assert member["gamma"] == 1.0
        assert member["admissible"] is False
        first, second = member["blocks"]
        assert first["admissible"] is True
        assert second["admissible"] is False
        assert second["jsq_coefficient"] == pytest.approx(-0.25, abs=1e-12)

    def test_gamma_out_of_range_exits_one(self, capsys):
        code, report, _ = run_report(capsys, "pencil", FIXTURES / "reference_4d.json",
                                     "--gamma", "-0.5")
        assert code == 1
        assert "pipeline_error" in report["residuals"]


class TestCommutant:
    def test_reference_4d(self, capsys):
        code, report, _ = run_report(capsys, "commutant", FIXTURES / "reference_4d.json")
        assert code == 0
        op = report["residuals"]["operator"]
        assert op["commutant_dim"] == 2
        assert op["bicommutant_dim"] == 2
        assert op["sign_pattern"] == [1, -1]
        assert op["eigenvalues"] == [pytest.approx(2.0), pytest.approx(3.0)]
        assert report["generic"]["operator"] is True


class TestSynth:
    def test_roundtrip_through_decompose(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        code, stdout, _ = run_cli(capsys, "synth", "--spec", "2:+:1,3:-:1",
                                  "--seed", "42", "--out", out)
        assert code == 0
        assert str(out) in stdout
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["dim", "g1", "g2", "omega1", "omega2"]
        assert doc["dim"] == 4
        code, report, _ = run_report(capsys, "decompose", out)
        assert code == 0
        assert report["blocks"] == [
            {"lambda": pytest.approx(2.0), "sign": 1, "dim": 2},
            {"lambda": pytest.approx(3.0), "sign": -1, "dim": 2},
        ]

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "synth", "--spec", "2:+:2", "--seed", "7", "--out", a)
        run_cli(capsys, "synth", "--spec", "2:+:2", "--seed", "7", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("spec", ["", "2:+", "x:+:1", "2:*:1", "2:+:z", "0:+:1"])
    def test_bad_spec_grammar(self, tmp_path, capsys, spec):
        code, _, err = run_cli(capsys, "synth", "--spec", spec,
                               "--seed", "1", "--out", tmp_path / "x.json")
        assert code == 2

    def test_duplicate_eigenvalues_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "synth", "--spec", "2:+:1,2:+:1",
                               "--seed", "1", "--out", tmp_path / "x.json")
        assert code == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("check", "compatible_2d.json"),
        ("check", "incompatible_2d.json"),
        ("decompose", "reference_4d.json"),
        ("recursion", "reference_4d.json"),
        ("pencil", "reference_4d.json", "--gamma", "1.0"),
        ("commutant", "reference_4d.json"),
    ])
    def test_reports_byte_identical_across_runs(self, capsys, argv):
        argv = [argv[0], str(FIXTURES / argv[1]), *argv[2:]]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2
        assert out1 == out2
        assert out1  # non-empty


class TestToleranceOverrides:
    def test_env_var_is_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("BIHAM_TOL", "1e-12")
        code, report, _ = run_report(capsys, "check", FIXTURES / "compatible_2d.json")
        assert code == 0 and report["compatible"] is True

    def test_env_var_rejects_garbage(self, capsys, monkeypatch):
        monkeypatch.setenv("BIHAM_TOL", "not-a-number")
        code, _, err = run_cli(capsys, "check", FIXTURES / "compatible_2d.json")
        assert code == 2
        assert "BIHAM_TOL" in err

    def test_file_tol_object(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "compatible_2d.json").read_text())
        doc["tol"] = {"rel": 1e-8, "cluster_gap": 1e-6}
        path = tmp_path / "with_tol.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_report(capsys, "check", path)
        assert code == 0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "biham", "check", str(FIXTURES / "compatible_2d.json")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["compatible"] is True
