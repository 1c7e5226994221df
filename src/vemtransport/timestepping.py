"""Discontinuous Galerkin time stepping collocated at Gauss-Radau nodes.

Each time slab carries a polynomial of degree q in time represented by
its values at the mapped Radau nodes (the last node is the slab's right
endpoint). A slab's matrix is kron(C, M) + tau kron(W, A0) (`slab_matrix`),
with the spatial operator on the block diagonal only; its factorization
is reused across slabs while the step size is constant.
"""

import numpy as np
import scipy.sparse as sp

from .linalg import Factorization, LinalgError
from .quadrature import gauss_radau, lagrange_values, map_radau


class TimeSteppingError(RuntimeError):
    pass


class TimePartition:
    """Strictly increasing time nodes 0 = t_0 < ... < t_N = T."""

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, dtype=float)
        if self.nodes.ndim != 1 or len(self.nodes) < 2:
            raise TimeSteppingError("need at least two time nodes")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise TimeSteppingError("time nodes must be strictly increasing")

    @classmethod
    def uniform(cls, t_final, n_steps):
        return cls(np.linspace(0.0, t_final, n_steps + 1))

    @property
    def n_slabs(self):
        return len(self.nodes) - 1

    def slab(self, n):
        return float(self.nodes[n]), float(self.nodes[n + 1])


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


class SlabSolution:
    """Space-time coefficients of one slab at the mapped Radau nodes."""

    def __init__(self, t_start, t_end, node_times, values):
        self.t_start = t_start
        self.t_end = t_end
        self.node_times = node_times
        self.values = values  # (q+1, n_dofs)
        self._ref_nodes = (node_times - t_start) / (t_end - t_start)

    @property
    def trace_out(self):
        """Left limit at the slab's right endpoint (the last node column)."""
        return self.values[-1]

    def evaluate(self, t):
        """Value of the slab polynomial at time t (vector of dofs)."""
        xi = (np.asarray(t, dtype=float) - self.t_start) / (self.t_end - self.t_start)
        basis = lagrange_values(self._ref_nodes, xi)
        out = basis @ self.values
        return out[0] if np.ndim(t) == 0 else out


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


def advance(system, partition, q):
    """March the transport system over all slabs; returns the slab list.

    The spatial operators are stationary, so the block matrix and its
    factorization are reused across slabs while the step size does not
    change.
    Solver failures are reported with the offending slab index.
    """
    radau = gauss_radau(q)
    M = system.mass()
    carry = system.initial_condition()
    n_dofs = len(carry)
    slabs = []
    cached = None  # (tau, factorization, matrix)
    for n in range(partition.n_slabs):
        t0, t1 = partition.slab(n)
        tau = t1 - t0
        node_times, _ = map_radau(radau, t0, t1)
        try:
            rhs_blocks = []
            for t in node_times:
                F, G = system.rhs(t)
                rhs_blocks.append(F + G)
            rhs = slab_rhs(M, radau, tau, rhs_blocks, carry)
            if cached is not None and abs(cached[0] - tau) < 1e-14 * max(1.0, tau):
                _, fact, matrix = cached
            else:
                matrix = slab_matrix(M, system.advection_operator(), radau, tau)
                fact = Factorization(matrix)
                cached = (tau, fact, matrix)
            x = fact.solve(rhs)
            res = np.linalg.norm(matrix @ x - rhs)
            scale = np.linalg.norm(rhs)
            if res > 1e-8 * max(1.0, scale):
                raise LinalgError(f"slab residual {res:.2e} too large")
        except LinalgError as exc:
            raise TimeSteppingError(f"solver failure on slab {n + 1}: {exc}") from exc
        values = x.reshape(len(node_times), n_dofs)
        slab = SlabSolution(t0, t1, node_times, values)
        slabs.append(slab)
        carry = slab.trace_out
    return slabs
