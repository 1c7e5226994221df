"""Discontinuous Galerkin time stepping collocated at Gauss-Radau nodes.

Each time slab carries a polynomial of degree q in time represented by
its values at the mapped Radau nodes (the last node is the slab's right
endpoint). A slab's matrix is kron(C, M) + tau kron(W, A0) (`slab_matrix`),
with the spatial operator on the block diagonal only. `advance` marches a
uniform grid, so it builds and factorizes that matrix once per march.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .linalg import Factorization, LinalgError
from .quadrature import gauss_radau, lagrange_values, map_radau


class TimeSteppingError(RuntimeError):
    pass


class Trajectory(NamedTuple):
    """Slab values of one march over N slabs with q+1 Radau nodes each."""

    ends: np.ndarray  # (N+1,) slab endpoints, np.linspace(0, t_final, N+1)
    times: np.ndarray  # (N, q+1) mapped Radau nodes; times[:, -1] == ends[1:]
    values: np.ndarray  # (N, q+1, n_dofs) dof vectors at those nodes
    residual: float  # largest relative slab residual |S x - b| / |b| of the march


def lagrange_derivative_matrix(nodes):
    """D[i, j] = derivative of basis i at node j."""
    n = len(nodes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                D[i, j] = sum(1.0 / (nodes[i] - nodes[b]) for b in range(n) if b != i)
            else:
                num = 1.0
                for b in range(n):
                    if b != i and b != j:
                        num *= (nodes[j] - nodes[b]) / (nodes[i] - nodes[b])
                D[i, j] = num / (nodes[i] - nodes[j])
    return D


def slab_matrix(M, A0, radau, tau):
    """Matrix of one slab in the nodal (collocation) basis as CSR:
    kron(C, M) + tau kron(W, A0), the (q+1)-stage Radau IIA method.

    Block (j, i) couples trial node i to test node j through
    C[j, i] = w_j l_i'(x_j) + l_i(0) l_j(0), the quadrature-weighted
    Lagrange derivative plus the jump term; W = diag(w) holds the Radau
    weights, so the spatial operator A0 sits on the block diagonal only.
    """
    Dref = lagrange_derivative_matrix(radau.nodes)
    ell0 = lagrange_values(radau.nodes, 0.0)[0]
    w = radau.weights
    C = w[:, None] * Dref.T + np.outer(ell0, ell0)
    S = sp.kron(C, M, format="csr") + sp.kron(sp.diags(tau * w), A0, format="csr")
    return S.copy()  # trimmed: the sum's arrays have room for both terms' entries


def slab_rhs(M, radau, tau, rhs_blocks, carry):
    """Right-hand side of one slab: the loads weighted by tau w_j plus the
    carried trace, l_j(0) M carry, stacked node by node."""
    ell0 = lagrange_values(radau.nodes, 0.0)[0]
    w = radau.weights
    return (tau * w[:, None] * np.asarray(rhs_blocks) + np.outer(ell0, M @ carry)).ravel()


def advance(system, t_final, n_steps, q):
    """March the transport system over n_steps uniform slabs of (0, t_final].

    The spatial operators are stationary and the step is uniform, so the
    slab matrix, whose symmetric part is positive definite, is built and
    factorized once without pivoting; each slab's load uses its own width
    t1 - t0. Solver failures, a large residual included, name the slab.
    """
    if not (t_final > 0.0 and n_steps >= 1):
        raise TimeSteppingError("need t_final > 0 and n_steps >= 1")
    radau = gauss_radau(q)
    M = system.mass()
    carry = system.initial_condition()
    ends = np.linspace(0.0, t_final, n_steps + 1)
    times = np.empty((n_steps, q + 1))
    values = np.empty((n_steps, q + 1, len(carry)))
    n, worst = 0, 0.0
    try:
        matrix = slab_matrix(M, system.advection_operator(), radau, ends[1] - ends[0])
        fact = Factorization(matrix)
        for n in range(n_steps):
            t0, t1 = ends[n], ends[n + 1]
            times[n], _ = map_radau(radau, t0, t1)
            rhs_blocks = []
            for t in times[n]:
                F, G = system.rhs(t)
                rhs_blocks.append(F + G)
            rhs = slab_rhs(M, radau, t1 - t0, rhs_blocks, carry)
            x = fact.solve(rhs)
            res, scale = np.linalg.norm(matrix @ x - rhs), np.linalg.norm(rhs)
            if res > 1e-8 * max(1.0, scale):
                raise LinalgError(f"slab residual {res:.2e} too large")
            worst = max(worst, res / scale if scale else res)
            values[n] = x.reshape(q + 1, -1)
            carry = values[n, -1]
    except LinalgError as exc:
        raise TimeSteppingError(f"solver failure on slab {n + 1}: {exc}") from exc
    return Trajectory(ends, times, values, worst)
