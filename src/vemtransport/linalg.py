"""Direct sparse solves; a Factorization serves many right-hand sides."""

import time

import numpy as np
from scipy.sparse.linalg import splu


class LinalgError(RuntimeError):
    """A factorization or solve that failed: a singular matrix (an empty
    row or column included), a non-finite solution or a large residual."""


class SolveReport:
    """Outcome of one linear solve."""

    def __init__(self, residual, seconds):
        self.residual = residual
        self.seconds = seconds


class Factorization:
    """Reusable sparse LU factorization: COLAMD with partial pivoting, or
    with symmetric=True, for a matrix whose symmetric part is positive
    definite, the minimum-degree ordering of A + A^T and no pivoting."""

    def __init__(self, A, *, symmetric=False):
        options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True}) if symmetric else {}
        try:
            self._lu = splu(A.tocsc(), **options)
        except RuntimeError as exc:
            raise LinalgError(f"sparse LU failed: {exc}") from exc

    def solve(self, b):
        x = self._lu.solve(np.asarray(b, dtype=float))
        if not np.all(np.isfinite(x)):
            raise LinalgError("factorization produced non-finite solution")
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
        raise LinalgError(f"direct solve residual {res:.2e} exceeds {tol:.2e}")
    return x, SolveReport(res, time.perf_counter() - t0)
