from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from vemtransport import linalg
from vemtransport.element import monomials
from vemtransport.linalg import Factorization, LinalgError, solve
from vemtransport.quadrature import polygon_rule

from helpers import VemElement, export_matrix_market

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestSolve:
    def test_identity(self):
        A = sp.identity(4, format="csr")
        b = np.array([1.0, -2.0, 3.0, 0.5])
        x, report = solve(A, b)
        assert np.allclose(x, b)
        assert report.residual <= 1e-10
        assert (report.unknowns, report.nnz) == (4, 4)
        assert report.lu_nnz >= 4

    def test_spd_two_by_two(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x, _ = solve(A, np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_zero_matrix_is_structural_singularity(self):
        A = sp.csr_matrix((1, 1))
        with pytest.raises(LinalgError, match="exactly singular"):
            solve(A, np.array([1.0]))

    @pytest.mark.parametrize(
        "A",
        [
            sp.csr_matrix((3, 3)),
            sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 0.0]])),
            sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 0.0]])),
            # a row whose only stored entries are explicit zeros
            sp.csr_matrix((np.array([1.0, 0.0, 0.0]), (np.array([0, 1, 1]), np.array([0, 0, 1]))),
                          shape=(2, 2)),
        ],
        ids=["empty-3x3", "empty-row", "empty-column", "explicit-zero-row"],
    )
    def test_structural_singularity_raises(self, A):
        with pytest.raises(LinalgError, match="exactly singular"):
            Factorization(A)

    def test_numeric_breakdown_raises(self):
        # structurally fine but numerically singular
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(LinalgError):
            solve(A, np.array([1.0, 2.0]))

    def test_out_of_memory_raises(self, monkeypatch):
        # SuperLU reports a failed allocation as MemoryError, in the
        # factorization and in a solve; nothing is allocated here
        def no_memory(*args, **kwargs):
            raise MemoryError("Not enough memory to perform factorization.")

        A = sp.identity(3, format="csr")
        fact = Factorization(A)
        fact._lu = SimpleNamespace(solve=no_memory)
        with pytest.raises(LinalgError, match="solve failed: Not enough memory"):
            fact.solve(np.ones(3))
        monkeypatch.setattr(linalg, "splu", no_memory)
        with pytest.raises(LinalgError, match="LU failed: Not enough memory"):
            solve(A, np.ones(3))

    def test_symmetric_mode_solves_a_positive_definite_symmetric_part(self):
        # unsymmetric, with (A + A^T)/2 = 4 I: no pivoting is needed
        rng = np.random.default_rng(1)
        skew = rng.standard_normal((6, 6))
        dense = 4.0 * np.eye(6) + 3.0 * (skew - skew.T)
        A = sp.csr_matrix(dense)
        b = rng.standard_normal(6)
        x = Factorization(A).solve(b)
        assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-12, atol=0.0)

    def test_factorization_reuse(self):
        A = sp.csr_matrix(np.diag([1.0, 2.0, 4.0]))
        fact = Factorization(A)
        x1 = fact.solve(np.ones(3))
        x2 = fact.solve(np.array([2.0, 2.0, 2.0]))
        assert np.allclose(x1, [1.0, 0.5, 0.25])
        assert np.allclose(x2, [2.0, 1.0, 0.5])


def test_mass_solve_reproduces_quadrature_projection():
    # solving with the local mass matrix recovers the L2 projection dofs
    el = VemElement(SQUARE, 2)
    g = lambda p: np.sin(2.0 * p[:, 0]) + p[:, 1]
    rhs = el.load_vector(np.asarray(g(el.data_points)))
    M = sp.csr_matrix(el.mass_matrix())
    x, _ = solve(M, rhs, tol=1e-11)
    # compare the implied L2 projection against direct quadrature projection
    rule = polygon_rule(SQUARE, 6)
    phi = monomials(rule.points, el.centroid, el.diameter, el.k)
    H = phi.T @ (rule.weights[:, None] * phi)
    direct = np.linalg.solve(H, phi.T @ (rule.weights * g(rule.points)))
    via_mass = el.pi0_coef @ x
    assert np.max(np.abs(via_mass - direct)) < 1e-11


def test_matrix_market_export(tmp_path):
    A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    path = tmp_path / "matrix.mtx"
    export_matrix_market(A, path)
    from scipy.io import mmread

    B = mmread(str(path)).tocsr()
    assert np.allclose(A.toarray(), B.toarray())
