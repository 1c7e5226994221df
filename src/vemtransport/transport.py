"""Global semi-discrete transport operators on the VEM space.

Assembles the mass form, the dissipation-neutral advection operator
(diffusion + skew convection pairing + half boundary and reaction
terms), and the source/inflow right-hand sides. The boundary form
integrates |u . n| over every boundary edge; inflow data enters through
the negative part of the normal flux, so it is active exactly on the
inflow region.
"""

import numpy as np
import scipy.sparse as sp

from .element import VemSpace, uniform_edge_params
from .geometry import split_stacked
from .quadrature import edge_rule, lagrange_values


class TransportProblem:
    """Coefficients and data callbacks for the transport equation.

    Every data callback receives a stacked (npts, 2) array of points and
    returns one value per point. The data and boundary point sets the
    system passes are read-only, so problem data may cache stationary
    fields per point set.

    Parameters
    ----------
    D : float
        Positive scalar diffusion coefficient.
    velocity : DiscreteVelocity
        Stationary flow field (analytic or mixed-VEM).
    f : callable (t, points) -> values
        Source/sink density shared with the flow problem.
    c_tilde : callable (t, points) -> values
        Injected concentration, active where f > 0.
    c_inflow : callable (t, points, normals) -> values
        Inflow concentration, active where u . n < 0; normals is (npts, 2),
        the outward unit normal at each boundary point.
    c0 : callable (points) -> values
        Initial condition.

    f is the flow's source and, like the flow, stationary: it is
    evaluated once, at t = 0, for both the reaction form and the
    injection term, and the spatial operators are assembled once.
    """

    def __init__(
        self,
        D,
        velocity,
        f=None,
        c_tilde=None,
        c_inflow=None,
        c0=None,
    ):
        if D <= 0.0:
            raise ValueError("diffusion coefficient must be positive")
        self.D = D
        self.velocity = velocity
        self.f = f or (lambda t, p: np.zeros(len(p)))
        self.c_tilde = c_tilde or (lambda t, p: np.zeros(len(p)))
        self.c_inflow = c_inflow or (lambda t, p, n: np.zeros(len(p)))
        self.c0 = c0 or (lambda p: np.zeros(len(p)))


class TransportSystem:
    """Assembled global operators for one mesh/degree/problem triple.

    Problem data is evaluated once per time on stacked points: the data
    rules of all cells (injection; the stationary source once per
    system) and a Gauss rule of degree 2k+4 on all boundary edges
    (inflow and boundary form). Each global matrix is one COO -> CSR
    build from the stacked local blocks of the space's cell groups, and
    each load one sparse product with the data values.
    """

    def __init__(self, mesh, k, problem):
        self.mesh = mesh
        self.k = k
        self.problem = problem
        self.space = VemSpace(mesh, k)
        self._f0 = np.asarray(problem.f(0.0, self.space.data_points), dtype=float)
        bd = mesh.boundary_edges
        ends = mesh.vertices[mesh.edges[bd]]
        er = edge_rule(ends[:, 0], ends[:, 1], 2 * k + 4)
        self._bd_points = er.points.reshape(-1, 2)
        self._bd_points.flags.writeable = False
        normals = mesh.boundary_signs[:, None] * mesh.edge_normals[bd]
        self._bd_normals = np.repeat(normals, len(er.params), axis=0)
        self._bd_dofs = self.space.trace_dofs(bd)
        self._bd_trace = lagrange_values(uniform_edge_params(k), er.params)
        un = problem.velocity.boundary_flux_values(er.params)
        # per-point weights of the boundary form; the loads are linear in
        # the data values, one sparse map each
        self._bd_abs_flux = er.weights * np.abs(un)
        self._load = self.space.load_operator(np.maximum(self._f0, 0.0))
        inflow = (er.weights * -np.minimum(un, 0.0))[..., None] * self._bd_trace
        points = np.arange(un.size).reshape(un.shape)
        rows, cols = np.broadcast_arrays(self._bd_dofs[:, None, :], points[..., None])
        self._inflow = sp.csr_matrix((inflow.ravel(), (rows.ravel(), cols.ravel())),
                                     shape=(self.space.n_dofs, un.size))
        self._inflow.eliminate_zeros()
        self._mass = None
        self._parts = None
        self._a0 = None

    # -- assembly ------------------------------------------------------

    def mass(self):
        """Global mass matrix (assembled once)."""
        if self._mass is None:
            self._mass = self.space.assemble([g.mass for g in self.space.groups])
        return self._mass

    def operator_parts(self):
        """Diffusion, skew convection, boundary, and reaction matrices.

        Returns (A, B_skew, Lam, R) with the advection operator equal to
        A + B_skew + (Lam + R) / 2; assembled once.
        """
        if self._parts is not None:
            return self._parts
        space, problem = self.space, self.problem
        groups = space.groups
        velocity = problem.velocity
        A = space.assemble([problem.D * g.stiff_unit for g in groups])
        K = space.assemble([
            g.convection(velocity.cell_velocity[cg.cells])
            for g, cg in zip(groups, self.mesh.cell_groups)
        ])
        fabs = split_stacked(np.abs(self._f0), [g.data_weights.shape for g in groups])
        R = space.assemble([g.data_gram(v) for g, v in zip(groups, fabs)])
        trace, dofs = self._bd_trace, self._bd_dofs
        blocks = np.einsum("eq,qi,qj->eij", self._bd_abs_flux, trace, trace)
        rows = np.broadcast_to(dofs[:, :, None], blocks.shape).ravel()
        cols = np.broadcast_to(dofs[:, None, :], blocks.shape).ravel()
        lam = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs))
        self._parts = (A, 0.5 * (K - K.T).tocsr(), lam.tocsr(), R)
        return self._parts

    def advection_operator(self):
        """The full spatial operator A0 (assembled once)."""
        if self._a0 is None:
            A, B, Lam, R = self.operator_parts()
            self._a0 = (A + B + 0.5 * (Lam + R)).tocsr()
        return self._a0

    def rhs(self, t):
        """Source and inflow functionals (F_plus, G_inflow) at time t."""
        problem = self.problem
        c_tilde = np.asarray(problem.c_tilde(t, self.space.data_points), dtype=float)
        ci = np.asarray(problem.c_inflow(t, self._bd_points, self._bd_normals), dtype=float)
        return self._load @ c_tilde, self._inflow @ ci

    def initial_condition(self):
        """Dof vector interpolating the initial concentration."""
        return self.space.interpolate(self.problem.c0)
