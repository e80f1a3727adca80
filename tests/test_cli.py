import importlib
import math
import importlib.util
import json
import os
import stat
import subprocess
import sys
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biham
from biham import cli, commutant, decomposition, dynamics, linalg
from biham.cli import InputDocument, analyze, main
from biham.commutant import (
    TransferOperator,
    bicommutant_dim,
    commutant_dim,
    complexify,
    read_off_operator,
)
from biham.decomposition import Block, BlockDecomposition, decompose, synthesize_pair
from biham.compatibility import CompatiblePair, PencilMember, check_compatible
from biham.dynamics import RecursionBasis, certify_recursion
from biham.linalg import NumericalCheckError
from biham.structures import AdmissibleTriple, ViolationReport, check_admissible, form_pair

import corpus
import loop_oracle
from conftest import (S_BLOCK, conditioned_basis, conditioned_pair, congruent, generic_spec,
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
        assert report["schema_version"] == 10
        assert report["admissible"] == {"triple1": True, "triple2": True}
        assert report["compatible"] is True
        assert report["signature_complex"] == "U(1)"
        assert report["signature_real"] == "SO(2)"
        assert report["generic"]["real"] is True

    def test_schema_9_keys(self, capsys):
        # the relations the kept checks imply are not reported, the two J2
        # conditions and [J1, J2] are one residual in J1's complex
        # coordinates, and g1 G = g2, which holds by construction, is not
        # judged
        code, report, _ = run_report(capsys, "check", FIXTURES / "reference_4d.json")
        assert code == 0
        assert list(report["residuals"]["compatibility"]) == [
            "g2_J1_skew", "omega2_J1_symmetric", "g1_J2_skew", "G_min_eigenvalue"]
        assert "nijenhuis_residual" not in report["recursion"]

    @pytest.mark.parametrize("spec", [generic_spec(4), two_class_spec(8)],
                             ids=["generic-8", "two-class-8"])
    def test_second_triple_scaled_by_1e300_at_cond_1e6_is_compatible(self, spec, tmp_path,
                                                                      capsys):
        # |g1| = 1.5e6 and |G| = 6.6e302: a check of g1 G = g2 in the input
        # coordinates, against rel |g1| |G|, overflowed its threshold and
        # refused these valid pairs
        pair = synthesize_pair(spec, seed=1)
        basis = conditioned_basis(pair.dim, 1e3, np.random.default_rng(1))
        doc = congruent(pair, basis, 1.0, 1e300)
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({k: v if k == "dim" else v.tolist() for k, v in doc.items()}))
        code, report, _ = run_report(capsys, "check", path)
        assert code == 0
        assert list(report["residuals"]["compatibility"]) == [
            "g2_J1_skew", "omega2_J1_symmetric", "g1_J2_skew", "G_min_eigenvalue"]
        blocks = sorted(spec)
        assert [(b["sign"], b["dim"]) for b in report["blocks"]] == \
            [(sign, 2 * rank) for _, sign, rank in blocks]
        assert [b["lambda"] for b in report["blocks"]] == \
            pytest.approx([1e300 * lam for lam, _, _ in blocks], rel=1e-9)

    def test_incompatible_fixture(self, capsys):
        code, report, _ = run_report(capsys, "check", FIXTURES / "incompatible_2d.json")
        assert code == 1
        assert report["compatible"] is False
        assert "g2_J1_skew" in report["residuals"]["compatibility"]
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

    # an integer beyond the float range in a matrix raised OverflowError, a
    # traceback, and a string or a boolean entry was read as a number
    @pytest.mark.parametrize("field, entry", [
        ("g1", "1" + "0" * 400), ("omega2", "-1" + "0" * 400), ("omega1", '"1"'),
        ("g2", '"2.0"'), ("g1", "true"), ("omega2", "false"),
    ], ids=["int-1e400", "int-minus-1e400", "string", "float-string", "true", "false"])
    def test_schema_rejects_non_number_entries(self, tmp_path, capsys, field, entry):
        doc = json.loads((FIXTURES / "compatible_2d.json").read_text())
        doc[field][0][1] = "@entry@"
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc).replace('"@entry@"', entry))
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"field '{field}'" in err

    def test_inadmissible_input_exits_one(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "single_2d.json").read_text())
        doc["omega1"] = [[0.0, 1.0], [-1.0, 0.0]]  # wrong scale for diag(1, 4)
        path = tmp_path / "inadmissible.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_report(capsys, "check", path)
        assert code == 1
        assert report["admissible"]["triple1"] is False
        # J_w = diag(1, 1/2) omega1 diag(1, 1/2): |J_w.T J_w - I| = 3/4
        assert report["residuals"]["triple1"] == {"J_metric_invariance": 0.75}


# the tampered_documents() indices whose second triple fails
# check_admissible (J_metric_invariance, at 1.0e-9 to 2.8e-9) while the
# frame certificate puts the pair within rel of one admissible in both
# triples: they exit 0
SECOND_TRIPLE_FLIPS = (30, 287, 669, 926, 1073, 1309, 1325, 1333, 1681, 1689, 1713, 1721,
                       1949, 1956, 1965, 1973, 2330)


def refused_report(doc, t2) -> dict:
    """The report of a document whose first triple is admissible and whose
    second ``check_admissible`` refuses with ``t2``: nothing after
    admissibility runs."""
    report = cli._empty_report()
    report["admissible"] = {"triple1": True, "triple2": False}
    report["residuals"] = {"triple1": {}, "triple2": cli._violation_dict(t2)}
    return report


class TestSecondTriple:
    """A pair's second triple is judged by the frame certificate of its
    decomposition; ``check_admissible`` runs on it only to explain a
    refusal."""

    def test_refusals_keep_their_report_or_are_listed(self):
        # the oracle: check_admissible on the second triple of every corpus
        # pair.  Each pair it refuses exits 1 with the report of that
        # refusal, or is a listed flip, within rel of an admissible pair
        flips = []
        for label, raw in corpus.documents():
            try:
                doc = corpus.input_document(raw)
            except cli.InputError:
                continue
            if not doc.has_pair:
                continue
            t1 = check_admissible(doc.g1, doc.omega1, doc.tol)
            t2 = check_admissible(doc.g2, doc.omega2, doc.tol)
            report, code = analyze(doc)
            if not isinstance(t2, ViolationReport):
                assert report["admissible"]["triple2"] is True, label
            elif isinstance(t1, ViolationReport) or report["admissible"]["triple2"] is False:
                assert code == 1, label
                assert report["residuals"]["triple2"] == cli._violation_dict(t2), label
                assert report["compatible"] is None, label
                if not isinstance(t1, ViolationReport):
                    assert report == refused_report(doc, t2), label
            else:
                flips.append(label)
                d = decompose(check_compatible(t1, form_pair(doc.g2, doc.omega2, doc.tol)))
                assert code == 0, label
                assert d.frame_certificate[0] <= doc.tol.rel, label
                assert loop_oracle.pair_backward_error(d) <= doc.tol.rel, label
        assert flips == [f"tampered:{i}" for i in SECOND_TRIPLE_FLIPS]

    def test_tampered_form_is_refused_as_before(self):
        # omega2 off by 1e-6 of its largest entry: the second triple fails
        # its J checks and compatibility is not reported, as when every
        # document's second triple was factored
        pair = synthesize_pair(generic_spec(4), seed=1)
        x = np.random.default_rng(5).standard_normal((8, 8))
        omega2 = pair.t2.omega.m + 1e-6 * np.abs(pair.t2.omega.m).max() * (x - x.T)
        doc = InputDocument(8, pair.t1.g.m, pair.t1.omega.m, pair.t2.g.m, omega2, pair.tol)
        report, code = analyze(doc)
        t2 = check_admissible(pair.t2.g.m, omega2)
        assert code == 1 and t2.names == ("J_metric_invariance",)
        assert cli._dump_report(report) == cli._dump_report(refused_report(doc, t2))

    def test_incompatible_pair_reports_both_triples_admissible(self):
        # the benchmark's incompatible document: J2 = inv(A) S A with A =
        # diag(1, 2, 1, 1), in a random orthonormal basis.  Compatibility
        # refuses it, and check_admissible then finds both triples admissible
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))
        s, a = np.kron(np.eye(2), S_BLOCK), np.diag([1.0, 2.0, 1.0, 1.0])
        doc = InputDocument(4, np.eye(4), q.T @ s @ q, q.T @ a.T @ a @ q,
                            q.T @ a.T @ s @ a @ q, linalg.DEFAULT_TOL)
        report, code = analyze(doc)
        assert code == 1
        assert report["admissible"] == {"triple1": True, "triple2": True}
        assert report["compatible"] is False
        assert report["residuals"]["triple2"] == {}
        assert report["blocks"] is None

    def test_uncertified_frame_judges_the_second_triple(self, monkeypatch):
        # a frame certificate above rel falls back on check_admissible,
        # which passes here: the pair's stages run on, as before
        pair = uncertified_pair()
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        seen = []

        def judging(g, *args):
            seen.append(g is doc.g2)
            return check_admissible(g, *args)

        monkeypatch.setattr(cli, "check_admissible", judging)
        report, code = analyze(doc)
        assert seen == [False, True]
        assert code == 1 and report["admissible"] == {"triple1": True, "triple2": True}
        assert report["compatible"] is True and report["recursion"]["all_pass"] is False


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
        # cond(g1) = 6.4e7, beyond the advertised 1e6: the frame fails its
        # certificate, so the recursion family's span fails preservation
        # and commutation, which read the pair's backward error, and the
        # algebra, which needs the same frame, names the failure
        pair = uncertified_pair()
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        report, code = analyze(doc)
        assert code == 1
        rec = report["recursion"]
        assert rec["preserves_all"] is False and rec["commute"] is False
        assert rec["rank"] == 4 and rec["all_pass"] is False
        assert "not certified" in report["residuals"]["pipeline_error"]

    def test_conditioned_two_class_dim512_passes(self):
        # cond(g1) = 1e6: the stored powers' rounding grew with n, so the
        # measured directions read 1.02e-9 against rel and the valid pair
        # exited 1 after minutes; on the frame, the span's bound and the
        # generators' residuals read 3.4e-10 at most
        pair = conditioned_pair([(2.0, 1, 128), (3.0, -1, 128)], 1e3, seed=1)
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        report, code = analyze(doc)
        assert code == 0
        rec = report["recursion"]
        assert rec["preserves_all"] is True and rec["commute"] is True
        assert rec["vandermonde_consistent"] is True
        assert rec["rank"] == 2 < rec["expected_rank"] == 256

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

    @pytest.mark.parametrize("lam", [(2.0, 2.125), (2.25, 2.375)], ids=["2-2.125", "2.25-2.375"])
    def test_j_invariant_two_class_pair_is_certified(self, lam):
        # two + classes of rank 2, synth seed 97, moved by a J-invariant
        # congruence of cond(g1) = 1e6: G departs from its canonical form on
        # the frame by 5.8e-10, J1's own rounding.  Read as a forward
        # residual, counted twice, that was 1.16e-9, above rel, and the
        # valid pair exited 1 with the algebra not certified; read as the
        # pair's backward error it is 5.8e-10
        pair = synthesize_pair([(lam[0], 1, 2), (lam[1], 1, 2)], seed=97)
        doc = congruent(pair, j_invariant_basis(4, 1e3, 97))
        report, code = analyze(InputDocument(8, doc["g1"], doc["omega1"], doc["g2"],
                                             doc["omega2"], pair.tol))
        assert code == 0
        assert report["algebra_dim"] == 8 and len(report["blocks"]) == 2
        rec = report["recursion"]
        assert rec["preserves_all"] is True and rec["commute"] is True
        assert 5e-10 < rec["max_preservation_residual"] < 6e-10

    def test_j_invariant_two_class_fixture(self, capsys):
        # the first of those pairs, as the committed document CI runs
        code, report, _ = run_report(capsys, "decompose",
                                     FIXTURES / "j_invariant_two_class_8d.json")
        assert code == 0 and report["algebra_dim"] == 8

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
            return certify_recursion(*args).replace(**{check: False})

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

    @pytest.mark.parametrize("gamma, code", [("1e308", 0), ("-1e308", 1)])
    def test_extreme_gamma_judged_without_overflow(self, capsys, gamma, code):
        # the range is (-1/3, inf): 1 + gamma * lambda once overflowed to
        # inf, warned, and refused 1e308 as not positive-definite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, report, _ = run_report(capsys, "pencil", FIXTURES / "reference_4d.json",
                                        f"--gamma={gamma}")
        assert got == code
        if code == 0:
            # J_c tends to J2 = sign J1 on each block, so both are admissible
            blocks = report["pencil_member"]["blocks"]
            assert [b["jsq_coefficient"] for b in blocks] == [-1.0, -1.0]
            assert report["pencil_member"]["admissible"] is True
        else:
            assert report["pencil_member"] is None
            assert "not positive-definite" in report["residuals"]["pipeline_error"]

    def test_gamma_out_of_range_reports_null_member(self, capsys):
        code, report, _ = run_report(capsys, "pencil", FIXTURES / "reference_4d.json",
                                     "--gamma", "-0.5")
        assert code == 1
        assert report["pencil_member"] is None
        assert "not positive-definite" in report["residuals"]["pipeline_error"]

    def test_later_stages_run_past_a_failed_stage(self, monkeypatch):
        # cond(g1) = 6.4e7: the algebra fails, and the recursion fails its
        # preservation flag, on the same uncertified frame; both are
        # reported, as are the transfer operator and the pencil.  With the
        # recursion raising instead, both failures are named in stage order
        # and the operator and the pencil still run
        pair = uncertified_pair()
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        report, code = analyze(doc, gamma=0.5)
        assert code == 1
        assert report["recursion"]["preserves_all"] is False
        assert report["recursion"]["rank"] == 4
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
        # independent oracle, the retired forms route, builds F from the
        # complexified forms by one eigh and certifies its own spectral frame
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
        op = loop_oracle.transfer_operator_oracle(h1, h2, pair.tol)
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
        # nor blamed on the valid spec: the error names --seed, and no file
        # is written
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as info:
            main(["synth", "--spec", "2:+:1", "--seed", "-1", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()[-1]
        assert info.value.code == 2
        assert err == "biham synth: error: argument --seed: value must be non-negative, got '-1'"
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


@st.composite
def congruent_documents(draw):
    """Two documents of one synthesized pair of dim <= 16, plain or after
    a ``conditioned_basis(dim, 1e3)`` congruence (cond(g1) = 1e6), the
    second moved by a random orthogonal congruence of both triples."""
    lams = draw(st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True))
    spec, room = [], 8
    for k in lams:
        mult = draw(st.integers(1, min(3, room)))
        spec.append((0.5 + 0.125 * k, draw(st.sampled_from((1, -1))), mult))
        room -= mult
        if room == 0:
            break
    seed = draw(st.integers(0, 2**16))
    pair = synthesize_pair(spec, seed=seed)
    dim = pair.dim
    rng = np.random.default_rng(seed)
    basis = conditioned_basis(dim, 1e3, rng) if draw(st.booleans()) else np.eye(dim)
    doc = congruent(pair, basis)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    names = ("g1", "omega1", "g2", "omega2")
    return [InputDocument(dim, *(m[k] for k in names), pair.tol)
            for m in (doc, {k: q.T @ doc[k] @ q for k in names})]


def verdicts(report):
    """Every verdict of a report and the shape of its answers."""
    rec = report["recursion"] or {}
    member = report["pencil_member"] or {}
    return (report["admissible"], report["compatible"], report["generic"],
            [(b["sign"], b["dim"]) for b in report["blocks"] or ()],
            report["signature_complex"], report["algebra_dim"],
            [rec.get(k) for k in ("rank", "preserves_all", "commute",
                                  "vandermonde_consistent", "all_pass")],
            member.get("admissible"), [b["admissible"] for b in member.get("blocks", ())],
            report["residuals"].get("operator", {}).get("commutant_dim"))


class TestOrthogonalInvariance:
    """Verdicts and exit codes do not depend on the basis: an orthogonal
    congruence of both triples changes none of them."""

    @settings(max_examples=40, deadline=None)
    @given(docs=congruent_documents())
    def test_verdicts_and_exit_codes_agree(self, docs):
        (first, code), (moved, moved_code) = [analyze(doc, gamma=0.5) for doc in docs]
        assert moved_code == code
        assert verdicts(moved) == verdicts(first)
        lam = [b["lambda"] for b in first["blocks"] or ()]
        assert [b["lambda"] for b in moved["blocks"] or ()] == pytest.approx(lam, rel=1e-9)


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

    # lambda = 1 and 1 + 5e-6 (+) are two classes at the default gap 1e-7
    # and one at 1e-5, BIHAM_TOL's own gap; the object spelling once took
    # that gap, the number and the flag did not
    def test_every_spelling_of_one_tol_gives_one_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("BIHAM_TOL", raising=False)
        pair = tmp_path / "pair.json"
        run_cli(capsys, "synth", "--spec", "1:+:1,1.000005:+:1,3:-:1", "--seed", 1,
                "--out", pair)
        doc = json.loads(pair.read_text())
        runs = [(pair, "--tol", 1e-9)]
        for name, tol in (("number", 1e-9), ("object", {"rel": 1e-9})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**doc, "tol": tol}))
            runs.append((path,))
        monkeypatch.setenv("BIHAM_TOL", "1e-5")
        outs = [run_cli(capsys, "decompose", *argv) for argv in runs]
        assert outs[0] == outs[1] == outs[2]
        code, out, _ = outs[0]
        assert code == 0
        assert json.loads(out)["signature_complex"] == "U(1)×U(1)×U(1)"

    @pytest.mark.parametrize("env", [None, "1e-12", "1e-5", "not-a-number"])
    def test_every_spelling_of_one_tol_gives_one_tolerance(self, tmp_path, monkeypatch, env):
        # a source that gives rel reads no BIHAM_TOL, not even a malformed one
        if env is None:
            monkeypatch.delenv("BIHAM_TOL", raising=False)
        else:
            monkeypatch.setenv("BIHAM_TOL", env)
        doc = json.loads((FIXTURES / "compatible_2d.json").read_text())
        tols = [cli.load_document(FIXTURES / "compatible_2d.json", 1e-8).tol]
        for tol in (1e-8, {"rel": 1e-8}):
            path = tmp_path / "tol.json"
            path.write_text(json.dumps({**doc, "tol": tol}))
            tols.append(cli.load_document(path).tol)
        assert tols == [linalg.Tolerance(1e-8, 1e-7)] * 3

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

    def test_analyze_solves_and_eigensolves_once(self, monkeypatch):
        # compatibility and decompose share J1's complex coordinates and
        # one eigensolve of T_c: one m x m (complex) eigensolve of i J1, one
        # n x n of T_c, no SVD (the first triple judges its form's
        # nondegeneracy through J), and no solve: the recursion certificate
        # reads the frame's, not T.  The second triple is judged by the
        # frame certificate, so it gets no whitening.  decompose reads the
        # pair's (mu, V) and residuals, and calls no np.linalg routine
        pair = synthesize_pair(generic_spec(4), seed=1)
        m = pair.dim
        calls = {name: [] for name in np.linalg.__all__
                 if callable(getattr(np.linalg, name))
                 and not isinstance(getattr(np.linalg, name), type)}
        for name in calls:
            original = getattr(np.linalg, name)

            def counting(a, *args, original=original, name=name, **kwargs):
                calls[name].append((np.shape(a), np.iscomplexobj(a)))
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        _, code = analyze(doc, gamma=0.5)
        assert code == 0
        # g1's whitening, i J1, then T_c
        assert calls["eigh"] == [((m, m), False), ((m, m), True), ((m // 2, m // 2), True)]
        assert calls["svd"] == []
        assert calls["solve"] == []
        for made in calls.values():
            made.clear()
        decompose(pair)
        assert not any(calls.values())

    def test_analyze_results_are_read_only_and_never_alias_the_input(self, monkeypatch):
        # each stage makes the arrays it has just computed read-only in
        # place rather than copying them: every eager array of the triples,
        # their metric and form, the pair, the decomposition and its
        # blocks, the pencil member and the read-off operator is read-only,
        # and none shares memory with the document's arrays
        pair = synthesize_pair(two_class_spec(8), seed=2)
        doc = InputDocument(pair.dim, *[np.array(m) for m in (
            pair.t1.g.m, pair.t1.omega.m, pair.t2.g.m, pair.t2.omega.m)], pair.tol)
        seen = {}
        for name in ("pencil_member", "read_off_operator"):
            def keeping(*args, original=getattr(cli, name), name=name):
                seen[name] = (args, original(*args))
                return seen[name][1]

            monkeypatch.setattr(cli, name, keeping)
        _, code = analyze(doc, gamma=0.5)
        assert code == 0
        (d, _), member = seen["pencil_member"]
        op = seen["read_off_operator"][1]
        p = d.pair
        assert member.pair is p and seen["read_off_operator"][0][0] is d
        objects = [p.t1, p.t2, p.t1.g, p.t1.omega, p.t2.g, p.t2.omega, p, d, *d.blocks,
                   member, *member.blocks, op]
        arrays = [a for obj in objects for value in vars(obj).values()
                  for a in (value if isinstance(value, tuple) else (value,))
                  if isinstance(a, np.ndarray)]
        inputs = (doc.g1, doc.omega1, doc.g2, doc.omega2)
        # the first triple's complex coordinates among them; the second
        # triple keeps its two matrices and no frame, and the pair no G in
        # the input coordinates
        assert len(arrays) >= 26
        for a in arrays:
            assert not a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in inputs)

    def test_analyze_forms_nothing_the_report_does_not_read(self, monkeypatch):
        # one analysis of a generic pair makes no solve and certifies the
        # recursion family off the frame's certificate: T is not formed,
        # nor any power of it, nor the adapted frame, whose certificate
        # reads the pair's n x n blocks, and no matrix built on first use
        # is built, as no report field reads one
        pair = synthesize_pair(generic_spec(8), seed=1)
        lazy = [(RecursionBasis, "fields"),
                (Block, "basis"), (Block, "basis_w"), (BlockDecomposition, "frame_w"),
                (CompatiblePair, "eigenframe_w"), (CompatiblePair, "recursion_operator_w"),
                (CompatiblePair, "metric_operator"), (CompatiblePair, "recursion_operator"),
                (CompatiblePair, "j2_w"),
                (AdmissibleTriple, "j"),
                (PencilMember, "g"), (PencilMember, "omega"), (PencilMember, "j")]
        reads = []
        for cls, attr in lazy:
            build = cls.__dict__[attr].func

            def reading(obj, build=build, key=f"{cls.__name__}.{attr}"):
                reads.append(key)
                return build(obj)

            prop = cached_property(reading)
            prop.__set_name__(cls, attr)
            monkeypatch.setattr(cls, attr, prop)
        solve, solves = np.linalg.solve, []

        def counting_solve(*args, **kwargs):
            solves.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        doc = InputDocument(pair.dim, pair.t1.g.m, pair.t1.omega.m,
                            pair.t2.g.m, pair.t2.omega.m, pair.tol)
        report, code = analyze(doc, gamma=0.5)
        assert code == 0 and report["recursion"]["all_pass"] is True
        assert report["pencil_member"]["admissible"] is False
        assert reads == []
        assert solves == []
        # the same matrices are still there for a caller who reads them
        d = decompose(pair)
        assert d.blocks[0].basis.shape == (16, 2)
        assert reads == ["Block.basis", "Block.basis_w", "CompatiblePair.eigenframe_w"]

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
