"""The spectral constructions against the brute-force Kronecker/SVD oracle.

For each case the algebra, the commutant and the bicommutant must span the
same space as the oracle's null spaces (projection residual at most 1e-9
in both directions), and the oracle's dimensions must match the
arithmetic of the prescribed spectrum: the sum of squared ranks, the sum
of squared eigenvalue multiplicities and the number of distinct
eigenvalues.
"""

from collections import Counter

import numpy as np
import pytest

import kron_oracle
from biham.commutant import (
    bicommutant_basis,
    complexify,
    transfer_operator,
)
from biham.compatibility import check_compatible
from biham.decomposition import decompose, synthesize_pair
from biham.dynamics import bi_preserving_algebra
from biham.linalg import RankAmbiguityError
from conftest import standard_triple
from test_commutant import operator_from_spectrum

SPAN_TOL = 1e-9


def generic_spec(n):
    return [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(n)]


PAIR_SPECS = [
    pytest.param(generic_spec(1), id="generic-2"),
    pytest.param(generic_spec(4), id="generic-8"),
    pytest.param(generic_spec(8), id="generic-16"),
    pytest.param([(2.0, 1, 2)], id="one-class-4"),
    pytest.param([(1.5, 1, 2), (4.0, -1, 1)], id="two-class-6"),
    pytest.param([(2.0, 1, 2), (2.0, -1, 2)], id="equal-lambda-opposite-sign-8"),
    pytest.param([(1.0, 1, 3), (2.0, -1, 2), (3.0, 1, 1)], id="three-class-12"),
    pytest.param([(2.0, 1, 4), (3.0, -1, 4)], id="two-class-16"),
]


def assert_same_span(construction, oracle):
    assert len(construction) == len(oracle)
    assert kron_oracle.span_residual(oracle, construction) <= SPAN_TOL
    assert kron_oracle.span_residual(construction, oracle) <= SPAN_TOL


def check_operator(op, multiplicities):
    """Commutant and bicommutant of ``op`` against the oracle, whose
    dimensions must follow from the eigenvalue multiplicities."""
    oracle_comm = kron_oracle.commutant(op)
    oracle_bicomm = kron_oracle.bicommutant(op)
    assert len(oracle_comm) == sum(p * p for p in multiplicities)
    assert len(oracle_bicomm) == len(multiplicities)
    assert_same_span(op.commutant_basis, oracle_comm)
    assert_same_span(bicommutant_basis(op), oracle_bicomm)


def check_pair(pair, ranks, multiplicities):
    """Algebra, commutant and bicommutant of a compatible pair against the
    oracle; ``ranks`` per (lambda, sign) class, ``multiplicities`` per
    distinct lambda."""
    oracle_alg = kron_oracle.bi_preserving_algebra(pair)
    assert len(oracle_alg) == sum(r * r for r in ranks)
    assert_same_span(bi_preserving_algebra(decompose(pair)).basis, oracle_alg)
    h1, h2 = complexify(decompose(pair))
    check_operator(transfer_operator(h1, h2, pair.tol), multiplicities)


@pytest.mark.parametrize("spec", PAIR_SPECS)
def test_synthesized_pairs(spec):
    lam_mults = Counter()
    for lam, _, mult in spec:
        lam_mults[lam] += mult
    check_pair(synthesize_pair(spec, seed=len(spec) + 40),
               [mult for _, _, mult in spec], list(lam_mults.values()))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_identity_pairs(n):
    t = standard_triple(n)
    check_pair(check_compatible(t, t), [n], [n])


@pytest.mark.parametrize("evals", [
    [1.0, 2.0, 3.0],
    [1.0, 1.0, 2.0],
    [1.0, 1.0, 2.0, 4.0],
    [0.5, 0.5, 3.0, 3.0, 3.0],
    [2.0] * 4,
    [1.0, 1.0, 2.0, 2.0, 2.0, 5.0, 6.0, 6.0, 7.0, 8.0, 8.0, 8.0],
    list(1.0 + np.arange(16.0)),
])
def test_operators_from_spectrum(evals):
    op = operator_from_spectrum(evals, np.random.default_rng(len(evals)))
    check_operator(op, list(Counter(evals).values()))


def test_oracle_refuses_large_dims():
    with pytest.raises(ValueError):
        kron_oracle.commuting_null_space([np.eye(kron_oracle.MAX_DIM + 1)])


class TestSvdNullSpace:
    def test_null_space_of_projector(self):
        basis, _ = kron_oracle.svd_null_space(np.diag([1.0, 1.0, 0.0]), 1e-9)
        assert basis.shape == (1, 3)
        np.testing.assert_allclose(np.abs(basis[0]), [0.0, 0.0, 1.0], atol=1e-14)

    def test_wide_matrix(self):
        basis, _ = kron_oracle.svd_null_space(np.array([[1.0, 0.0, 0.0]]), 1e-9)
        assert basis.shape == (2, 3)
        np.testing.assert_allclose(basis @ np.array([1.0, 0.0, 0.0]), 0.0, atol=1e-14)

    def test_ambiguous_rank_raises(self):
        with pytest.raises(RankAmbiguityError):
            kron_oracle.svd_null_space(np.diag([1.0, 2e-9]), 1e-9)

    def test_zero_matrix(self):
        basis, _ = kron_oracle.svd_null_space(np.zeros((3, 3)), 1e-9)
        assert basis.shape == (3, 3)
