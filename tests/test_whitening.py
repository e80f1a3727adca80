"""Verdicts under rescaling and change of basis.

Every stage works in t1's g1-orthonormal frame, so a congruence
``c_i * P.T @ (g_i, omega_i) @ P`` changes no verdict, block, signature or
dimension: it rescales the triples and moves the pair to another basis.
``synthesize_pair`` always builds g1 = I; these tests make g1 anything.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biham.cli import InputDocument, analyze
from biham.decomposition import synthesize_pair
from biham.linalg import Tolerance
from biham.structures import AdmissibleTriple, check_admissible
from conftest import conditioned_basis, congruent, j_invariant_tensors

from test_cli import FIXTURES, run_report

GENERIC_16 = [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(8)]


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps({k: np.asarray(v).tolist() if k != "dim" else v
                                for k, v in doc.items()}))
    return path


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_congruence_to_cond_1e8_keeps_both_triples_admissible(seed):
    # J = inv(g) @ omega formed in the raw coordinates carried a rounding
    # error of about cond(g1) * eps: residuals 3e-7 to 1.2e-6 failed the
    # J_squared_plus_identity threshold of 1.6e-8
    pair = synthesize_pair(GENERIC_16, seed=seed)
    doc = congruent(pair, conditioned_basis(16, 1e4, np.random.default_rng(seed)))
    assert np.linalg.cond(doc["g1"]) == pytest.approx(1e8, rel=1e-3)
    for g, w in (("g1", "omega1"), ("g2", "omega2")):
        assert isinstance(check_admissible(doc[g], doc[w]), AdmissibleTriple)


# J mapped back to the input coordinates, W @ J_w @ inv(W), carries a
# rounding error that grows with cond(W); checking J @ J = -I there once
# more, against a threshold that does not grow, rejected valid triples at
# cond(g1) = 1e6: 3 of 60 at dim 32 and 8 of 60 at dim 64 (1.19e-9 on dim
# 32, seed 13, against a threshold of 1e-9), and 31 of 60 at dim 64 and
# cond(g1) = 1.44e6
@pytest.mark.parametrize("dim, cond", [(32, 1e3), (64, 1e3), (64, 1.2e3)])
def test_j_invariant_metrics_near_cond_1e6_are_admissible(dim, cond):
    rng = np.random.default_rng(dim)
    for seed in range(60):
        g, w = j_invariant_tensors(dim // 2, cond, seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        for gm, wm in ((g, w), (q.T @ g @ q, q.T @ w @ q)):
            assert isinstance(check_admissible(gm, wm), AdmissibleTriple), (seed, cond)


def test_j_invariant_fixture_checks(capsys):
    # j_invariant_tensors(16, 1e3, 13); it used to exit 1 on
    # complex_structure_square 1.19e-9
    code, report, _ = run_report(capsys, "check", FIXTURES / "j_invariant_32d.json")
    assert code == 0
    assert report["admissible"] == {"triple1": True}
    assert report["residuals"] == {"triple1": {}}


def test_reference_scaled_by_1e_minus_160(tmp_path, capsys):
    # thresholds relative to max(1, norm) made both triples inadmissible
    doc = json.loads((FIXTURES / "reference_4d.json").read_text())
    scaled = {k: v if k == "dim" else (1e-160 * np.array(v)) for k, v in doc.items()}
    code, report, _ = run_report(capsys, "decompose", write_doc(tmp_path, scaled))
    _, unscaled, _ = run_report(capsys, "decompose", FIXTURES / "reference_4d.json")
    assert code == 0
    assert report["admissible"] == {"triple1": True, "triple2": True}
    assert report["blocks"] == unscaled["blocks"]


def test_generic_dim16_scaled_by_1e_minus_20(tmp_path, capsys):
    pair = synthesize_pair(GENERIC_16, seed=1)
    doc = congruent(pair, np.eye(16), 1e-20, 1e-20)
    code, report, _ = run_report(capsys, "check", write_doc(tmp_path, doc))
    assert code == 0
    assert [(b["sign"], b["dim"]) for b in report["blocks"]] == [
        (s, 2) for _, s, _ in GENERIC_16]
    for block, (lam, _, _) in zip(report["blocks"], GENERIC_16):
        assert block["lambda"] == pytest.approx(lam, rel=1e-9)


# at 1e-8 a cluster gap of cluster_gap * max(1, |v|) merged 2e-8 and 3e-8
# into one cluster, and decompose failed on the merged block; at 1e-280 the
# powers T^k J1 of the recursion family underflow to zero; from 1e154 on
# T @ T overflowed in the compatibility checks
@pytest.mark.parametrize("scale", [1e-8, 1e-280, 1e154, 1e300])
def test_reference_second_triple_rescaled(tmp_path, capsys, scale):
    doc = json.loads((FIXTURES / "reference_4d.json").read_text())
    for key in ("g2", "omega2"):
        doc[key] = (scale * np.array(doc[key])).tolist()
    code, report, _ = run_report(capsys, "recursion", write_doc(tmp_path, doc))
    assert code == 0
    assert report["compatible"] is True
    assert [(b["sign"], b["dim"]) for b in report["blocks"]] == [(1, 2), (-1, 2)]
    assert report["blocks"][0]["lambda"] == pytest.approx(2 * scale, rel=1e-12)
    assert report["blocks"][1]["lambda"] == pytest.approx(3 * scale, rel=1e-12)
    assert report["residuals"]["operator"]["eigenvalues"] == pytest.approx(
        [2 * scale, 3 * scale], rel=1e-12)
    assert report["recursion"]["rank"] == 2
    assert report["recursion"]["all_pass"] is True


SPECS = (
    GENERIC_16[:4],
    [(2.0, 1, 2), (3.0, -1, 1)],
    [(1.5, 1, 1), (2.5, -1, 2), (4.0, 1, 1)],
)


def invariants(report: dict, ratio: float) -> dict:
    """What a congruence must leave unchanged; block eigenvalues in units of
    ``ratio``, the scale factor of the second triple over the first."""
    op = report["residuals"]["operator"]
    return {
        "admissible": report["admissible"],
        "compatible": report["compatible"],
        "blocks": [(round(b["lambda"] / ratio, 6), b["sign"], b["dim"])
                   for b in report["blocks"]],
        "generic": report["generic"],
        "signatures": (report["signature_complex"], report["signature_real"]),
        "algebra_dim": report["algebra_dim"],
        "operator_dims": (op["commutant_dim"], op["bicommutant_dim"], op["sign_pattern"]),
        "recursion_rank": report["recursion"]["rank"],
    }


@settings(max_examples=25, deadline=None)
@given(spec=st.sampled_from(SPECS), seed=st.integers(0, 2**16),
       log_c1=st.floats(-12, 12), log_c2=st.floats(-12, 12),
       log_cond=st.floats(0, 3))
def test_verdicts_invariant_under_rescaled_congruence(spec, seed, log_c1, log_c2, log_cond):
    pair = synthesize_pair(spec, seed=seed)
    rng = np.random.default_rng(seed)
    c1, c2 = 10.0 ** log_c1, 10.0 ** log_c2
    p = conditioned_basis(pair.dim, 10.0 ** log_cond, rng)
    doc = congruent(pair, p, c1, c2)

    base, base_code = analyze(_document(congruent(pair, np.eye(pair.dim))))
    moved, moved_code = analyze(_document(doc))
    assert base_code == moved_code == 0
    assert invariants(moved, c2 / c1) == invariants(base, 1.0)


def _document(doc: dict) -> InputDocument:
    return InputDocument(doc["dim"], doc["g1"], doc["omega1"], doc["g2"], doc["omega2"],
                         Tolerance())
