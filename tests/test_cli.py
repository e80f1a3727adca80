import dataclasses
import importlib
import math
import importlib.util
import json
import os
import stat
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import biham
from biham import cli, commutant, decomposition, dynamics, linalg
from biham.cli import InputDocument, analyze, main
from biham.commutant import (
    TransferOperator,
    bicommutant_dim,
    commutant_dim,
    complexify,
    read_off_operator,
    transfer_operator,
)
from biham.decomposition import BlockDecomposition, decompose, synthesize_pair
from biham.compatibility import check_compatible
from biham.dynamics import certify_recursion
from biham.linalg import NumericalCheckError
from biham.structures import check_admissible

import loop_oracle
from conftest import (conditioned_basis, conditioned_pair, congruent, generic_spec,
                      j_invariant_basis)
from test_dynamics import CONSERVATION_TIMES, uncertified_pair
from test_loop_oracle import three_class_spec, two_class_spec

FIXTURES = Path(__file__).parent / "fixtures"
BENCH_TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


# (spec, basis, seed) of valid pairs moved to cond(g1) = 1e6; the
# J-invariant seeds are those that exited 1 on the frame of G's eigenvectors
CONGRUENCES_AT_COND_1E6 = [
    pytest.param(generic_spec(8), "random", 29, id="generic-16"),
    pytest.param([(2.0, 1, 4), (3.0, -1, 4)], "random", 29, id="two-class-16"),
] + [
    pytest.param(generic_spec(dim // 2), "j-invariant", seed,
                 id=f"generic-{dim}-j-invariant-{seed}")
    for dim, seeds in ((16, (1, 4, 6, 7, 8, 10, 17, 20, 24, 25, 28, 29, 31, 32, 33, 37, 38)),
                       (24, (1, 2, 4, 7, 9, 13, 14, 16, 17, 29, 31, 32, 34)))
    for seed in seeds
]


# pairs whose transfer operator the CLI reads off the blocks: synthesized
# at dims 8-64, and moved by congruences at cond(g1) = 1e6
READ_OFF_SPECS = (("generic", lambda dim: generic_spec(dim // 2)),
                  ("two-class", two_class_spec), ("three-class", three_class_spec),
                  ("one-class", lambda dim: [(2.0, 1, dim // 2)]))
READ_OFF_PAIRS = [
    pytest.param(lambda f=f, dim=dim: synthesize_pair(f(dim), seed=dim), id=f"{name}-{dim}")
    for name, f in READ_OFF_SPECS for dim in (8, 16, 32, 64)
] + [
    pytest.param(lambda f=f, dim=dim, seed=seed: conditioned_pair(f(dim), 1e3, seed),
                 id=f"{name}-{dim}-cond-1e6-{seed}")
    for name, f in READ_OFF_SPECS[:2] for dim in (8, 16, 32) for seed in range(4)
]


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
        assert report["schema_version"] == 3
        assert report["admissible"] == {"triple1": True, "triple2": True}
        assert report["compatible"] is True
        assert report["signature_complex"] == "U(1)"
        assert report["signature_real"] == "SO(2)"
        assert report["generic"]["real"] is True

    def test_schema_3_keys(self, capsys):
        # the relations the kept checks imply are not reported
        code, report, _ = run_report(capsys, "check", FIXTURES / "reference_4d.json")
        assert code == 0
        assert list(report["residuals"]["compatibility"]) == [
            "g2_J1_skew", "omega2_J1_symmetric", "g1_J2_skew", "omega1_J2_symmetric",
            "J1_J2_commutator", "T_selfadjoint_g1", "metric_transfer", "G_min_eigenvalue"]
        assert "nijenhuis_residual" not in report["recursion"]

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

    def test_invalid_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b'{"dim": 2, "g1": "\xff\xfe"}')
        code, out, err = run_cli(capsys, "check", bad)
        assert code == 2
        assert err.startswith("error:") and "utf-8" in err
        assert out == ""

    def test_over_nested_json(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(capsys, "check", deep)
        assert code == 2
        assert err.startswith("error:") and "nested too deeply" in err
        assert out == ""

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

    def test_same_sign_chain_is_refused_by_decompose(self, capsys):
        # lambda = 1, 1 + 0.9e-7, 1 + 1.8e-7 chain into one G cluster of
        # spread 1.8e-7, wider than the cluster gap: decompose refuses it,
        # by name, and no later stage runs
        code, report, _ = run_report(capsys, "decompose", FIXTURES / "same_sign_chain_8d.json")
        assert code == 1
        assert report["compatible"] is True
        assert report["blocks"] is None and report["signature_complex"] is None
        assert report["recursion"] is None and report["algebra_dim"] is None
        assert report["generic"] == {"real": None, "operator": None}
        assert report["residuals"]["pipeline_error"].startswith("cluster width fails")
        assert "give a smaller cluster_gap" in report["residuals"]["pipeline_error"]

    def test_same_sign_chain_at_a_smaller_gap(self, capsys, tmp_path):
        # the remedy the refusal names: cluster_gap 5e-8 in the file's tol
        doc = json.loads((FIXTURES / "same_sign_chain_8d.json").read_text())
        doc["tol"] = {"cluster_gap": 5e-8}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_report(capsys, "decompose", path)
        assert code == 0
        assert len({(b["lambda"], b["sign"]) for b in report["blocks"]}) == 4
        assert report["algebra_dim"] == 4


class TestOutputMode:
    """Output files get the mode a plain ``open(path, "w")`` gives them, not
    the private mode of the temporary file they are written through."""

    @pytest.fixture
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    @staticmethod
    def mode(path):
        return stat.S_IMODE(path.stat().st_mode)

    def test_new_report_file(self, tmp_path, capsys, umask_022):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "decompose", FIXTURES / "reference_4d.json",
                             "--output", out)
        assert code == 0
        assert self.mode(out) == 0o644

    def test_new_synth_file(self, tmp_path, capsys, umask_022):
        out = tmp_path / "pair.json"
        code, _, _ = run_cli(capsys, "synth", "--spec", "2:+:1", "--seed", "1", "--out", out)
        assert code == 0
        assert self.mode(out) == 0o644

    def test_replaced_file_keeps_its_mode(self, tmp_path, capsys, umask_022):
        out = tmp_path / "report.json"
        out.write_text("old\n")
        out.chmod(0o640)
        code, _, _ = run_cli(capsys, "decompose", FIXTURES / "reference_4d.json",
                             "--output", out)
        assert code == 0
        assert self.mode(out) == 0o640
        assert json.loads(out.read_text())["compatible"] is True


def assert_probed_drift_within_bound(doc, report):
    """The drift the sampled probe measures on the document's unit
    directions, in t1's frame, is rounding noise, and the certified bound
    the report gives for it covers it.  The bound is computed on the
    document's own whitened pair, whose directions the rebuilt pair repeats
    to rounding."""
    pair = check_compatible(check_admissible(doc.g1, doc.omega1),
                            check_admissible(doc.g2, doc.omega2))
    drift = loop_oracle.probed_drift(loop_oracle.in_t1_frame(pair), CONSERVATION_TIMES)
    assert drift <= 1e-12
    assert drift <= report["recursion"]["max_conservation_drift"] <= pair.tol.rel


class TestRecursion:
    def test_reference_4d_certificate(self, capsys):
        code, report, _ = run_report(capsys, "recursion", FIXTURES / "reference_4d.json")
        assert code == 0
        rec = report["recursion"]
        assert rec["rank"] == 2 == rec["expected_rank"]
        assert rec["all_pass"] is True
        assert rec["max_conservation_drift"] < 1e-9
        # nodes 2 and -3: Gautschi's bound is attained, |V| |inv(V)| = 5 * 0.8
        assert rec["power_basis_log10_condition"] == pytest.approx(math.log10(4.0))

    def test_uncertified_frame_names_the_algebra_failure(self):
        # cond(g1) = 9e6: the recursion certificate keeps the verdicts its
        # directions measure, and the algebra, which needs the certified
        # frame, names the failure
        pair = uncertified_pair()
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        report, code = analyze(doc)
        assert code == 1
        rec = report["recursion"]
        assert rec["preserves_all"] is True and rec["commute"] is True
        assert rec["rank"] == 4 and rec["all_pass"] is True
        assert "not certified" in report["residuals"]["pipeline_error"]

    def test_cond_1e8_pair_is_certified(self):
        # cond(g1) = 1e8, basis seed 0: the frame read off J1's complex
        # coordinates certifies it (bound 8.4e-10); the frame of G's
        # eigenvectors did not (the algebra and the transfer operator failed)
        pair = conditioned_pair(generic_spec(4), 1e4, seed=0)
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        report, code = analyze(doc, gamma=0.5)
        assert code == 0
        assert report["algebra_dim"] == 4 and report["generic"]["operator"] is True

    @pytest.mark.parametrize("spec, basis, seed", CONGRUENCES_AT_COND_1E6)
    def test_congruent_pair_at_cond_1e6_passes(self, spec, basis, seed):
        # cond(g1) = 1e6.  Random congruence, basis seed 29: a preservation
        # bound derived from the adapted frame, 4-8x above the measured
        # residuals, once failed these valid pairs.  J-invariant congruence
        # (synth seed = basis seed): the frame read off G's eigenvectors
        # departed from J1's canonical form by up to 3e-9, and the algebra
        # (or, at dim 24 seed 1, decompose) failed on these seeds
        if basis == "j-invariant":
            synth = synthesize_pair(spec, seed=seed)
            moved = congruent(synth, j_invariant_basis(synth.dim // 2, 1e3, seed))
            doc = InputDocument(synth.dim, moved["g1"], moved["omega1"],
                                moved["g2"], moved["omega2"], synth.tol)
        else:
            pair = conditioned_pair(spec, 1e3, seed=seed)
            doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                                pair.t2.g.m, pair.t2.omega.m, pair.tol)
        report, code = analyze(doc)
        assert code == 0
        rec = report["recursion"]
        assert rec["preserves_all"] is True and rec["commute"] is True

    def test_generic_dim32_synth_output_conserves(self, tmp_path, capsys):
        # ||T^15 J1|| is about 2e16 here: probing the raw power overflowed
        spec = ",".join(f"{0.5 + 0.75 * k!r}:{'+-'[k % 2]}:1" for k in range(16))
        path = tmp_path / "generic32.json"
        assert run_cli(capsys, "synth", "--spec", spec, "--seed", "1", "--out", path)[0] == 0
        code, report, _ = run_report(capsys, "check", path)
        assert code == 0
        assert_probed_drift_within_bound(cli.load_document(str(path)), report)

    def test_second_triple_scaled_by_1e8_conserves(self, tmp_path, capsys):
        # T scales by 1e8, so the raw power T^7 J1 has norm about 5e59
        pair = synthesize_pair([(2.0, 1, 4), (3.0, -1, 4)], seed=5)
        doc = {"dim": pair.dim, "g1": pair.t1.g.m.tolist(), "omega1": pair.t1.omega.m.tolist(),
               "g2": (1e8 * pair.t2.g.m).tolist(), "omega2": (1e8 * pair.t2.omega.m).tolist()}
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_report(capsys, "check", path)
        assert code == 0
        assert_probed_drift_within_bound(cli.load_document(str(path)), report)

    def test_generic_dim64_synth_output_has_full_rank(self, tmp_path, capsys):
        # the SVD of the power stack T^k J1 read rank 25/32 here
        spec = ",".join(f"{0.5 + 0.75 * k!r}:{'+-'[k % 2]}:1" for k in range(32))
        path = tmp_path / "generic64.json"
        assert run_cli(capsys, "synth", "--spec", spec, "--seed", "1", "--out", path)[0] == 0
        code, report, _ = run_report(capsys, "recursion", path)
        assert code == 0
        rec = report["recursion"]
        assert rec["rank"] == 32 == rec["expected_rank"]
        assert rec["vandermonde_consistent"] is True
        assert rec["all_pass"] is True

    def test_degenerate_pair_rank_is_a_fact(self, tmp_path, capsys):
        path = tmp_path / "two_class.json"
        assert run_cli(capsys, "synth", "--spec", "2:+:4,3:-:4", "--seed", "1",
                       "--out", path)[0] == 0
        code, report, _ = run_report(capsys, "recursion", path)
        assert code == 0
        rec = report["recursion"]
        assert rec["rank"] == 2 < rec["expected_rank"] == 8
        assert rec["vandermonde_consistent"] is True
        assert rec["all_pass"] is False

    @pytest.mark.parametrize("check", ["preserves_all", "commute", "vandermonde_consistent"])
    @pytest.mark.parametrize("command", ["check", "decompose", "recursion", "commutant"])
    def test_failed_certificate_exits_one(self, capsys, monkeypatch, check, command):
        def failing(*args):
            return dataclasses.replace(certify_recursion(*args), **{check: False})

        monkeypatch.setattr(cli, "certify_recursion", failing)
        code, report, _ = run_report(capsys, command, FIXTURES / "reference_4d.json")
        assert code == 1
        assert report["recursion"]["all_pass"] is False


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

    def test_gamma_out_of_range_reports_null_member(self, capsys):
        code, report, _ = run_report(capsys, "pencil", FIXTURES / "reference_4d.json",
                                     "--gamma", "-0.5")
        assert code == 1
        assert report["pencil_member"] is None
        assert "not positive-definite" in report["residuals"]["pipeline_error"]

    def test_later_stages_run_past_a_failed_stage(self, monkeypatch):
        # cond(g1) = 9e6: the algebra fails on its own; the recursion, the
        # transfer operator and the pencil, which do not need it, are
        # reported.  With the recursion failing too, both failures are
        # named in stage order and the operator and the pencil still run
        pair = uncertified_pair()
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        report, code = analyze(doc, gamma=0.5)
        assert code == 1
        assert report["recursion"]["all_pass"] is True
        assert report["algebra_dim"] is None
        assert report["generic"]["operator"] is True
        assert report["residuals"]["operator"]["commutant_dim"] == 4
        assert report["pencil_member"]["admissible"] is False
        assert len(report["pencil_member"]["blocks"]) == 4
        assert report["residuals"]["pipeline_error"].startswith(
            "bi-preserving algebra is not certified")

        def failing(*args):
            raise NumericalCheckError("recursion field T^3 @ J1 leaves the floating-point range")

        monkeypatch.setattr(cli, "recursion_basis", failing)
        report, code = analyze(doc, gamma=0.5)
        assert code == 1
        assert report["recursion"] is None
        assert report["residuals"]["operator"]["commutant_dim"] == 4
        assert len(report["pencil_member"]["blocks"]) == 4
        recursion, algebra = report["residuals"]["pipeline_error"].split("; ")
        assert recursion.startswith("recursion field T^3 @ J1")
        assert algebra.startswith("bi-preserving algebra is not certified")

    @pytest.mark.parametrize("c2, gamma", [(1e-8, -0.05), (1e8, 2.0)], ids=["1e-8", "1e8"])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("dim", [16, 32])
    @pytest.mark.parametrize("spec", [two_class_spec, three_class_spec],
                             ids=["two-class", "three-class"])
    def test_whole_space_verdict_is_every_block_verdict(self, spec, dim, seed, c2, gamma):
        # a (lambda, -) block makes the member inadmissible at any gamma != 0,
        # whatever the second triple's scale; judged in t1's frame, the
        # whole-space check once passed three-class 16 (1e-8) and both
        # classes at 32
        p = synthesize_pair(spec(dim), seed=seed)
        doc = InputDocument(p.dim, p.t1.g.m, p.t1.omega.m, c2 * p.t2.g.m, c2 * p.t2.omega.m,
                            p.tol)
        report, code = analyze(doc, gamma=gamma)
        assert code == 0
        member = report["pencil_member"]
        assert member["admissible"] is False
        assert member["admissible"] == all(b["admissible"] for b in member["blocks"])

    @pytest.mark.parametrize("dim", [8, 32])
    def test_one_class_near_the_positivity_edge(self, dim):
        # every sign +: admissible at any gamma in range.  At gamma = -0.45,
        # 1 + gamma lambda = 0.1, and a solve on the block divided the
        # rounding of cond(g1) = 1e6 by it (-1.00000000025 failed)
        p = synthesize_pair([(2.0, 1, dim // 2)], seed=2)
        moved = congruent(p, conditioned_basis(dim, 1e3, np.random.default_rng(2)))
        doc = InputDocument(dim, moved["g1"], moved["omega1"], moved["g2"], moved["omega2"],
                            p.tol)
        report, code = analyze(doc, gamma=-0.45)
        assert code == 0
        member = report["pencil_member"]
        assert member["admissible"] is True
        assert all(b["admissible"] for b in member["blocks"])

    def test_single_triple_names_the_reason(self, capsys):
        code, report, _ = run_report(capsys, "pencil", FIXTURES / "single_2d.json",
                                     "--gamma", "0.5")
        assert code == 1
        assert report["pencil_member"] is None
        assert "no second triple" in report["residuals"]["pencil_member"]

    def test_incompatible_pair_names_the_reason(self, capsys):
        code, report, _ = run_report(capsys, "pencil", FIXTURES / "incompatible_2d.json",
                                     "--gamma", "0.5")
        assert code == 1
        assert report["pencil_member"] is None
        assert "not a compatible pair" in report["residuals"]["pencil_member"]
        assert report["residuals"]["compatibility"]

    @pytest.mark.parametrize("command", ["check", "decompose", "recursion", "commutant"])
    def test_other_commands_have_no_member_section(self, capsys, command):
        _, report, _ = run_report(capsys, command, FIXTURES / "single_2d.json")
        assert "pencil_member" not in report
        assert "pencil_member" not in report["residuals"]

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_is_a_usage_error(self, capsys, gamma):
        with pytest.raises(SystemExit) as exc:
            main(["pencil", str(FIXTURES / "reference_4d.json"), f"--gamma={gamma}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--gamma: value must be finite" in captured.err
        assert captured.out == ""


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

    @pytest.mark.parametrize("make_pair", READ_OFF_PAIRS)
    def test_read_off_matches_the_library_operator(self, make_pair):
        # the CLI reports the library's read-off of F off the blocks; the
        # independent oracle builds F from the complexified forms and
        # certifies its own spectral frame
        pair = make_pair()
        report, code = analyze(InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                                             pair.t2.g.m, pair.t2.omega.m, pair.tol))
        assert code == 0
        dec = decompose(pair)
        read_off = read_off_operator(dec)
        block_lambda = [b.eigenvalue for b in dec.blocks for _ in range(b.dim // 2)]
        assert read_off.eigenvalues.tolist() == block_lambda
        read = report["residuals"]["operator"]
        assert read == {"eigenvalues": read_off.eigenvalues.tolist(),
                        "commutant_dim": commutant_dim(read_off),
                        "bicommutant_dim": bicommutant_dim(read_off),
                        "sign_pattern": dec.coordinate_sign.tolist()}
        h1, h2, signs = complexify(dec)
        op = transfer_operator(h1, h2, pair.tol)
        assert (read["commutant_dim"], read["bicommutant_dim"], read["sign_pattern"]) == (
            commutant_dim(op), bicommutant_dim(op), list(signs))
        np.testing.assert_allclose(read["eigenvalues"], op.eigenvalues, rtol=1e-10, atol=0.0)


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

    def test_chain_wider_than_the_gap_exits_2(self, tmp_path, capsys):
        # lambda = 1, 1 + 0.9e-7, 1 + 1.8e-7 with signs +, -, +: no two of
        # one sign within the gap, yet one chain wider than it, which
        # decompose refuses; synth once wrote it and exited 0
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(capsys, "synth", "--spec",
                                    "1:+:1,1.00000009:-:1,1.00000018:+:1,3:+:1",
                                    "--seed", "0", "--out", out)
        assert code == 2 and stdout == ""
        assert err.startswith("error: invalid spec: cluster width fails: "
                              "eigenvalues 1 .. 1.00000018")
        assert not out.exists()

    def test_dimension_beyond_memory_exits_2(self, tmp_path, capsys):
        # dim 2e6: one dense matrix would take 29 TiB; the spec is refused
        # before any per-coordinate data is built, and nothing is written
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(capsys, "synth", "--spec", "1:+:1000000",
                                    "--seed", "1", "--out", out)
        assert code == 2
        assert err.startswith("error: invalid spec: ")
        assert "2000000" in err
        assert stdout == ""
        assert not out.exists()

    def test_negative_seed_is_not_a_memory_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(capsys, "synth", "--spec", "1:+:1",
                                    "--seed", "-1", "--out", out)
        assert code == 2
        assert err.startswith("error: invalid spec: ")
        assert "non-negative" in err
        assert "memory" not in err
        assert not out.exists()


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

    # the object form once read a string as a number and ignored an
    # unknown key, while the number form refused a string
    @pytest.mark.parametrize("tol, key", [
        ({"rel": "1e-8"}, "rel"), ({"cluster_gap": "1e-6"}, "cluster_gap"),
        ({"rel": True}, "rel"), ({"rel": None}, "rel"), ({"rel": [1e-8]}, "rel"),
        ({"rell": 1e-30}, "rell"), ({"rel": 1e-8, "gap": 1e-6}, "gap"),
    ], ids=["rel-string", "gap-string", "rel-bool", "rel-null", "rel-list", "rell", "gap"])
    def test_file_tol_object_takes_numbers_under_known_keys(self, tmp_path, capsys, tol, key):
        doc = json.loads((FIXTURES / "compatible_2d.json").read_text())
        doc["tol"] = tol
        path = tmp_path / "bad_tol.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2 and out == ""
        assert f"'{key}'" in err

    # a non-finite or huge tolerance made every threshold infinite, so both
    # valid triples failed with exit 1; each entry point now rejects it
    @pytest.mark.parametrize("value", ["inf", "1e300"])
    def test_tol_flag_rejects_non_finite_and_huge(self, capsys, value):
        code, out, err = run_cli(capsys, "decompose", FIXTURES / "compatible_2d.json",
                                 "--tol", value)
        assert code == 2 and out == ""
        assert "must be finite and in (0, 1)" in err

    # an integer beyond the float range once raised OverflowError, a
    # traceback
    @pytest.mark.parametrize("tol_field", [
        "1e300", '{"cluster_gap": Infinity}',
        pytest.param("1" + "0" * 400, id="int-1e400"),
        pytest.param('{"rel": 1' + "0" * 400 + "}", id="rel-int-1e400"),
        pytest.param('{"cluster_gap": -1' + "0" * 400 + "}", id="gap-int-minus-1e400"),
    ])
    def test_file_tol_rejects_non_finite_and_huge(self, tmp_path, capsys, tol_field):
        text = (FIXTURES / "compatible_2d.json").read_text().rstrip()
        path = tmp_path / "huge_tol.json"
        path.write_text(text[:-1] + f', "tol": {tol_field}}}')
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2 and out == ""
        assert "must be finite and in (0, 1)" in err

    def test_env_var_rejects_non_finite(self, capsys, monkeypatch):
        monkeypatch.setenv("BIHAM_TOL", "inf")
        code, out, err = run_cli(capsys, "check", FIXTURES / "compatible_2d.json")
        assert code == 2 and out == ""
        assert "must be finite and in (0, 1)" in err


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

    @pytest.mark.parametrize("args", [
        ["-c", "import biham"],
        ["-m", "biham", "check", str(FIXTURES / "reference_4d.json")],
    ])
    def test_loads_no_scipy_module(self, args):
        # the package needs numpy only; -X importtime logs every module the
        # fresh interpreter imports
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "biham.dynamics" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []


class TestSharedResults:
    def test_analyze_decomposes_once_and_builds_frame_once(self, monkeypatch):
        # one analysis computes each spectral fact once: the decomposition
        # (with its two eigensolves), its adapted frame and that frame's
        # certificate; the algebra's dimension is read off the certified
        # frame and the transfer operator once off the blocks, so no forms
        # are built, no cluster frame or basis is built and nothing is
        # orthonormalized, and the drift bound comes from the recursion
        # certificate, with no sampled flow
        pair = synthesize_pair([(2.0, 1, 2), (3.0, -1, 2)], seed=3)
        calls = {"decompose": 0, "frame": 0, "frame_certificate": 0,
                 "read_off_operator": 0, "complexify": 0, "transfer_operator": 0,
                 "cluster_frames": 0, "commutant": 0, "conservation_probe": 0,
                 "orthonormal_span": 0}

        def count_function(home, key):
            original = getattr(home, key)

            def counting(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            # patch every biham module that binds the function by name
            for name, module in list(sys.modules.items()):
                if name.startswith("biham") and getattr(module, key, None) is original:
                    monkeypatch.setattr(module, key, counting)

        def count_property(cls, attr, key):
            build = cls.__dict__[attr].func

            def counting(obj):
                calls[key] += 1
                return build(obj)

            prop = cached_property(counting)
            prop.__set_name__(cls, attr)
            monkeypatch.setattr(cls, attr, prop)

        count_function(decomposition, "decompose")
        count_function(dynamics, "conservation_probe")
        count_function(commutant, "read_off_operator")
        count_function(commutant, "complexify")
        count_function(commutant, "transfer_operator")
        count_function(linalg, "orthonormal_span")
        # the frame is laid out once, when decompose stores it
        store = BlockDecomposition.__init__

        def counting_store(obj, *args, **kwargs):
            calls["frame"] += 1
            store(obj, *args, **kwargs)

        monkeypatch.setattr(BlockDecomposition, "__init__", counting_store)
        count_property(BlockDecomposition, "frame_certificate", "frame_certificate")
        count_property(TransferOperator, "cluster_frames", "cluster_frames")
        count_property(TransferOperator, "commutant_basis", "commutant")

        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        report, code = analyze(doc, gamma=0.5)
        assert code == 0
        assert report["pencil_member"]["gamma"] == 0.5
        assert calls == {"decompose": 1, "frame": 1,
                         "frame_certificate": 1, "read_off_operator": 1,
                         "complexify": 0, "transfer_operator": 0,
                         "cluster_frames": 0, "commutant": 0, "conservation_probe": 0,
                         "orthonormal_span": 0}

    def test_each_check_group_takes_its_norms_once(self, monkeypatch):
        # each check group takes its residual norms and the norms of its new
        # factors in one reduction, and a factor norm is taken once: at
        # most 40 reductions for a generic dim-24 analysis, 11 of them the
        # unit recursion directions, and J1's norm once, with the
        # admissibility residuals of the first triple
        spec = [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(12)]
        pair = synthesize_pair(spec, seed=1)
        original = linalg.op_norms
        stacks = []

        def recording(a):
            stacks.append(np.asarray(a))
            return original(a)

        for name, module in list(sys.modules.items()):
            if name.startswith("biham") and getattr(module, "op_norms", None) is original:
                monkeypatch.setattr(module, "op_norms", recording)
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        _, code = analyze(doc, gamma=0.5)
        assert code == 0
        assert len(stacks) <= 40
        j1 = pair.t1.j_w
        assert sum(np.array_equal(m, j1) for s in stacks if s.shape[-2:] == j1.shape
                   for m in s.reshape(-1, *j1.shape)) == 1

    def test_norm_evaluations_grow_linearly(self, monkeypatch):
        # the checks of every stage are stacked products, so the number of
        # norm evaluations grows at most linearly in the number of blocks,
        # not with the number of block pairs or direction pairs
        original = linalg.op_norms
        calls = [0]

        def counting(a):
            calls[0] += 1
            return original(a)

        for name, module in list(sys.modules.items()):
            if name.startswith("biham") and getattr(module, "op_norms", None) is original:
                monkeypatch.setattr(module, "op_norms", counting)

        def count(dim):
            spec = [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(dim // 2)]
            pair = synthesize_pair(spec, seed=1)
            doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                                pair.t2.g.m, pair.t2.omega.m, pair.tol)
            calls[0] = 0
            _, code = analyze(doc, gamma=0.5)
            assert code == 0
            return calls[0]

        small, large = count(16), count(32)
        assert small > 0
        assert large <= 1.5 * small


class TestBenchmarkHooks:
    def test_traced_functions_resolve(self):
        # the benchmark's traced mode patches these names by getattr
        spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH_TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TRACED
        for modname, fname in tracing.TRACED:
            module = importlib.import_module(f"{biham.__name__}.{modname}")
            assert callable(getattr(module, fname)), f"{modname}.{fname}"
