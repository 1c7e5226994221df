"""Direct sparse solves; a Factorization serves many right-hand sides."""

import time

import numpy as np
from scipy.sparse.linalg import splu


class LinalgError(RuntimeError):
    """A failed factorization or solve: a singular matrix (an empty row or
    column included), too little memory, a non-finite solution or a large residual."""


class SolveReport:
    """Outcome of one linear solve: the relative residual, the seconds,
    the matrix's unknowns and stored entries, and the L+U entries."""

    def __init__(self, residual, seconds, unknowns, nnz, lu_nnz):
        self.residual = residual
        self.seconds = seconds
        self.unknowns = unknowns
        self.nnz = nnz
        self.lu_nnz = lu_nnz


class Factorization:
    """Reusable sparse LU factorization in SuperLU's symmetric mode, for a
    matrix whose symmetric part is positive definite: the minimum-degree
    ordering of A + A^T on rows and columns alike, and no pivoting."""

    def __init__(self, A):
        try:
            self._lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        except (RuntimeError, MemoryError) as exc:
            raise LinalgError(f"sparse LU failed: {exc}") from exc

    def solve(self, b):
        try:
            x = self._lu.solve(np.asarray(b, dtype=float))
        except MemoryError as exc:
            raise LinalgError(f"sparse LU solve failed: {exc}") from exc
        if not np.all(np.isfinite(x)):
            raise LinalgError("factorization produced non-finite solution")
        return x


def solve(A, b, tol=1e-10):
    """Solve A x = b by sparse LU, returning (x, SolveReport); the
    relative residual |A x - b| / |b| must reach tol."""
    b = np.asarray(b, dtype=float)
    t0 = time.perf_counter()
    fact = Factorization(A)
    x = fact.solve(b)
    res = np.linalg.norm(A @ x - b)
    scale = np.linalg.norm(b)
    if scale > 0:
        res /= scale
    if res > tol:
        raise LinalgError(f"direct solve residual {res:.2e} exceeds {tol:.2e}")
    return x, SolveReport(res, time.perf_counter() - t0, A.shape[0], A.nnz, fact._lu.nnz)
