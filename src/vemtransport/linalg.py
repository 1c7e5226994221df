"""Direct sparse solves; a Factorization serves many right-hand sides."""

import time

import numpy as np
from scipy.sparse.linalg import splu


class LinalgError(RuntimeError):
    pass


class StructuralSingularityError(LinalgError):
    """The matrix pattern itself admits no factorization (empty row/column)."""


class NumericBreakdownError(LinalgError):
    """Factorization broke down on the numeric values."""


class SolveReport:
    """Outcome of one linear solve."""

    def __init__(self, residual, seconds):
        self.residual = residual
        self.seconds = seconds


def _check_structure(A):
    csr = A.tocsr()
    nonzero_rows = np.zeros(A.shape[0], dtype=bool)
    nonzero_cols = np.zeros(A.shape[1], dtype=bool)
    mask = csr.data != 0.0
    rows = np.repeat(np.arange(A.shape[0]), np.diff(csr.indptr))
    nonzero_rows[rows[mask]] = True
    nonzero_cols[csr.indices[mask]] = True
    if not np.all(nonzero_rows):
        raise StructuralSingularityError("matrix has a row with no nonzero entries")
    if not np.all(nonzero_cols):
        raise StructuralSingularityError("matrix has a column with no nonzero entries")
    return A.tocsc()


class Factorization:
    """Reusable sparse LU factorization."""

    def __init__(self, A):
        csc = _check_structure(A)
        try:
            self._lu = splu(csc)
        except RuntimeError as exc:
            raise NumericBreakdownError(f"sparse LU failed: {exc}") from exc

    def solve(self, b):
        x = self._lu.solve(np.asarray(b, dtype=float))
        if not np.all(np.isfinite(x)):
            raise NumericBreakdownError("factorization produced non-finite solution")
        return x


def solve(A, b, tol=1e-10):
    """Solve A x = b by sparse LU, returning (x, SolveReport).

    The relative residual |A x - b| / |b| must reach tol.
    """
    b = np.asarray(b, dtype=float)
    t0 = time.perf_counter()
    x = Factorization(A).solve(b)
    res = np.linalg.norm(A @ x - b)
    scale = np.linalg.norm(b)
    if scale > 0:
        res /= scale
    if res > tol:
        raise NumericBreakdownError(f"direct solve residual {res:.2e} exceeds {tol:.2e}")
    return x, SolveReport(res, time.perf_counter() - t0)
