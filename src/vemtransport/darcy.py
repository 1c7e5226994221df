"""Discrete velocity fields: mixed virtual elements for the flow problem
and an analytic-field backend for isolating transport errors.

The flux space carries degree-k polynomial normal traces on edges
(single valued, so the field is H(div)-conforming by construction) and
elementwise divergences in P_k. Local inner products project onto
gradients of degree-(k+1) polynomials, the computable part of the space,
with a dofi-dofi stabilization on the complement. Pressures are
elementwise P_k. Sign convention follows u = +(K/mu) grad p.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import legendre

from .element import gram, monomial_gradients, monomial_maps, monomials, n_poly
from .geometry import split_stacked, stack_rules
from .linalg import solve
from .quadrature import edge_rule


class DarcyError(RuntimeError):
    pass


def _legendre_values(j_max, params):
    """P_j(2t - 1) for j = 0..j_max at params in [0, 1], shape (npts, j+1)."""
    x = 2.0 * np.asarray(params) - 1.0
    return np.column_stack([legendre.legval(x, np.eye(j_max + 1)[j]) for j in range(j_max + 1)])


@dataclass
class DarcyProblem:
    """Data for the flow problem: permeability, viscosity, source, BCs.

    f, g_D, g_N are callbacks mapping (npts, 2) point arrays to values.
    dirichlet_edges lists the boundary edges carrying pressure data; the
    rest of the boundary carries normal-flux data.
    """

    K_perm: float = 1.0
    mu: float = 1.0
    f: callable = None
    g_D: callable = None
    g_N: callable = None
    dirichlet_edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.K_perm <= 0.0 or self.mu <= 0.0:
            raise DarcyError("permeability and viscosity must be positive")
        if self.f is None:
            self.f = lambda p: np.zeros(len(p))
        if self.g_D is None:
            self.g_D = lambda p: np.zeros(len(p))
        if self.g_N is None:
            self.g_N = lambda p: np.zeros(len(p))


class DiscreteVelocity:
    """Velocity field seen through edge normal-flux polynomials and
    per-element polynomial projections.

    Edge fluxes are Legendre series in the canonical (min->max vertex)
    edge parameter, taken against the canonical edge normal; interior
    edges are single-valued by construction. cell_velocity holds the
    element velocities, (num_cells, 2, n_poly), and cell_divergence the
    element divergences, (num_cells, n_poly), in the per-cell scaled
    monomial bases (centered at the cell centroid, scaled by the cell
    diameter). solve_report is the SolveReport of the saddle solve that
    gave a Darcy velocity, and f_mean_removed the mean its pure-Neumann
    load lost (see solve_darcy_mixed; 0.0 for a flow with Dirichlet edges).
    """

    def __init__(self, mesh, k, edge_flux_coeffs, cell_velocity, cell_divergence=None,
                 solve_report=None, f_mean_removed=0.0):
        self.mesh = mesh
        self.k = k
        self.edge_flux_coeffs = edge_flux_coeffs
        self.cell_velocity = cell_velocity
        self.cell_divergence = cell_divergence
        self.solve_report = solve_report
        self.f_mean_removed = f_mean_removed

    def boundary_flux_values(self, params):
        """Outward u . n at canonical params along every boundary edge,
        (len(mesh.boundary_edges), len(params))."""
        P = _legendre_values(self.k, params)
        coeffs = self.edge_flux_coeffs[self.mesh.boundary_edges]
        return self.mesh.boundary_signs[:, None] * (P @ coeffs[:, :, None])[..., 0]


def analytic_velocity(u_callback, mesh, k):
    """Wrap an analytic vector field in the DiscreteVelocity interface.

    Edge fluxes are L2 projections of u . n onto degree-k edge
    polynomials; element polynomials are L2 projections onto [P_k]^2.
    The callback is called once on the edge points and once on the
    stacked cell points.
    """
    ends = mesh.vertices[mesh.edges]
    er = edge_rule(ends[:, 0], ends[:, 1], 2 * k + 10)
    uvals = np.asarray(u_callback(er.points.reshape(-1, 2)), dtype=float)
    un = np.einsum("eqd,ed->eq", uvals.reshape(er.points.shape), mesh.edge_normals)
    jw = 2.0 * np.arange(k + 1) + 1.0
    flux = jw * ((er.weights * un) @ _legendre_values(k, er.params)) / er.length[:, None]

    rules, points = stack_rules(mesh.cell_groups, 2 * k + 6)
    u_parts = split_stacked(u_callback(points), [w.shape for _, w in rules])
    coeffs = np.zeros((mesh.num_cells, 2, n_poly(k)))
    for cg, (pts, w), u in zip(mesh.cell_groups, rules, u_parts):
        phi = monomials(pts, cg.centroid, cg.diameter, k)
        coeffs[cg.cells] = np.swapaxes(np.linalg.solve(gram(phi, w, phi), gram(phi, w, u)), 1, 2)
    return DiscreteVelocity(mesh, k, flux, coeffs)


class _FluxGroup:
    """Local mixed-VEM operators of a cell group, stacked over its cells.

    rule is the group's degree-2(k+1) rule (points, weights) and
    f_values the flow source at its points; of these only the source
    moments f_moments are kept. udofs and pdofs are the global velocity
    and pressure dofs of every cell, in the local order.
    """

    def __init__(self, mesh, cg, k, rule, f_values):
        nc, nv = cg.verts.shape[:2]
        area, h, c = cg.area, cg.diameter, cg.centroid
        nk = n_poly(k)
        nk1 = n_poly(k + 1)
        n_edge = nv * (k + 1)
        n_loc = n_edge + nk - 1
        points, w = rule
        phi, gx, gy = monomial_gradients(points, c, h, k + 1)
        self.f_moments = (np.swapaxes(phi[..., :nk], 1, 2) @ (w * f_values)[..., None])[..., 0]
        H_full = gram(phi, w, phi)
        G_full = gram(gx, w, gx) + gram(gy, w, gy)
        self.int_m = H_full[:, 0, :nk]  # integrals of the pressure monomials

        # edge moment blocks (2j+1) * int_e P_j m_alpha for the degree-(k+1)
        # basis, on each edge's canonical rule; signed by the traversal
        # direction they give the edge columns, (nc, nk1, n_edge)
        jw = 2.0 * np.arange(k + 1) + 1.0
        ends = mesh.vertices[mesh.edges[cg.edges]]
        er = edge_rule(ends[..., 0, :], ends[..., 1, :], 2 * k + 2)
        P = _legendre_values(k, er.params)
        phi_e = monomials(er.points, c[:, None], h[:, None], k + 1)
        T = np.swapaxes(phi_e, 2, 3) @ (er.weights[..., None] * P) * jw
        edge_cols = np.swapaxes(T * cg.directions[:, :, None, None], 1, 2).reshape(nc, nk1, n_edge)

        # divergence moments: int div(v) m_alpha for |alpha| <= k
        DIVR = np.zeros((nc, nk, n_loc))
        DIVR[:, :, :n_edge] = edge_cols[:, :nk]
        DIVR[:, 1:, n_edge:] = -(area / h)[:, None, None] * np.eye(nk - 1)
        self.DIVR = DIVR
        self.div_map = np.linalg.solve(H_full[:, :nk, :nk], DIVR)

        # projection onto gradients of degree-(k+1) polynomials
        PRHS = np.zeros((nc, nk1 - 1, n_loc))
        PRHS[:, :, :n_edge] = edge_cols[:, 1:]
        PRHS -= (H_full[:, :, :nk] @ self.div_map)[:, 1:, :]
        pi_grad = np.linalg.solve(G_full[:, 1:, 1:], PRHS)
        dmaps = monomial_maps(k + 1)[:2, :nk, 1:]
        vel_x = dmaps[0] / h[:, None, None] @ pi_grad
        vel_y = dmaps[1] / h[:, None, None] @ pi_grad
        self.vel = np.stack([vel_x, vel_y], axis=1)

        # dofs of the projected field, for the stabilization: edge moments
        # of its canonical normal flux, then the internal moments
        normals = mesh.edge_normals[cg.edges]
        phik_e = phi_e[..., :nk]
        un = (normals[..., 0, None, None] * (phik_e @ vel_x[:, None])
              + normals[..., 1, None, None] * (phik_e @ vel_y[:, None]))
        Pi_dof = np.zeros((nc, n_loc, n_loc))
        edge_rows = P.T @ (er.weights[..., None] * un) / er.length[..., None, None]
        Pi_dof[:, :n_edge] = edge_rows.reshape(nc, n_edge, n_loc)
        wgx = np.swapaxes(w[..., None] * gx[..., 1:nk], 1, 2)
        wgy = np.swapaxes(w[..., None] * gy[..., 1:nk], 1, 2)
        inner = wgx @ (phi[..., :nk] @ vel_x) + wgy @ (phi[..., :nk] @ vel_y)
        Pi_dof[:, n_edge:] = (h / area)[:, None, None] * inner

        consist = np.swapaxes(PRHS, 1, 2) @ pi_grad
        rest = np.eye(n_loc) - Pi_dof
        stab = (area[:, None, None] * np.swapaxes(rest, 1, 2)) @ rest
        self.A_unit = 0.5 * (consist + np.swapaxes(consist, 1, 2)) + stab

        edge_dofs = cg.edges[:, :, None] * (k + 1) + np.arange(k + 1)
        internal = mesh.num_edges * (k + 1) + cg.cells[:, None] * (nk - 1) + np.arange(nk - 1)
        self.udofs = np.hstack([edge_dofs.reshape(nc, -1), internal])
        n_u = mesh.num_edges * (k + 1) + mesh.num_cells * (nk - 1)
        self.pdofs = n_u + cg.cells[:, None] * nk + np.arange(nk)


def _flux_groups(mesh, k, f):
    """Flux groups of all cells; f is evaluated once, on the stacked
    quadrature points of every cell. The rules and their monomial values
    are locals here, so they are freed before the saddle solve."""
    rules, points = stack_rules(mesh.cell_groups, 2 * (k + 1))
    f_vals = split_stacked(f(points), [w.shape for _, w in rules])
    return [
        _FluxGroup(mesh, cg, k, rule, fv)
        for cg, rule, fv in zip(mesh.cell_groups, rules, f_vals)
    ]


def _boundary_moments(mesh, edges, g, k):
    """Legendre moments int_e P_j g of boundary data g on the given edges,
    (n, k+1), from one call of g on the stacked edge points; also returns
    the edge rules and g's values."""
    ends = mesh.vertices[mesh.edges[edges]]
    er = edge_rule(ends[:, 0], ends[:, 1], 2 * k + 8)
    gvals = np.asarray(g(er.points.reshape(-1, 2)), dtype=float).reshape(er.weights.shape)
    return (er.weights * gvals) @ _legendre_values(k, er.params), er, gvals


def solve_darcy_mixed(mesh, problem, k):
    """Solve the mixed flow system; returns (DiscreteVelocity, pressure),
    the velocity carrying the saddle solve's SolveReport and the pressure
    the (num_cells, n_poly) coefficients of its elementwise polynomials.

    Pressure Dirichlet data enters naturally via boundary terms. One sparse
    LU solve follows the elimination of the Neumann flux dofs and, on a
    pure-Neumann flow, of cell 0's constant pressure dof, pinned to 0. There
    the load is shifted by -lam * int_K m_alpha, lam = (integral(f) -
    integral(g_N)) / |Omega|, as a multiplier for the pressure mean would,
    so data with any mismatch solve as if lam were taken off f; lam is
    recorded as the velocity's f_mean_removed, and the pressure is shifted
    to zero mean afterwards.
    """
    if k < 0:
        raise DarcyError("degree must be >= 0")
    dirichlet = frozenset(int(e) for e in problem.dirichlet_edges)
    boundary = set(int(e) for e in mesh.boundary_edges)
    if not dirichlet <= boundary:
        raise DarcyError("dirichlet_edges contains non-boundary edges")
    pure_neumann = len(dirichlet) == 0

    nk = n_poly(k)
    n_u = mesh.num_edges * (k + 1) + mesh.num_cells * (nk - 1)
    n_sys = n_u + mesh.num_cells * nk

    groups = _flux_groups(mesh, k, problem.f)

    rows, cols, vals = [], [], []

    def add(r, c, block):
        """Stacked local blocks (n, a, b) at global rows r (n, a), cols c (n, b)."""
        rows.append(np.broadcast_to(r[:, :, None], block.shape).ravel())
        cols.append(np.broadcast_to(c[:, None, :], block.shape).ravel())
        vals.append(block.ravel())

    rhs = np.zeros(n_sys)
    coef = problem.mu / problem.K_perm
    for g in groups:
        add(g.udofs, g.udofs, coef * g.A_unit)
        add(g.pdofs, g.udofs, g.DIVR)
        add(g.udofs, g.pdofs, np.swapaxes(g.DIVR, 1, 2))
        rhs[g.pdofs] = g.f_moments

    jw = 2.0 * np.arange(k + 1) + 1.0
    bd = np.asarray(mesh.boundary_edges, dtype=int)
    on_dirichlet = np.isin(bd, list(dirichlet))
    sign = mesh.boundary_signs
    if on_dirichlet.any():
        moments, _, _ = _boundary_moments(mesh, bd[on_dirichlet], problem.g_D, k)
        idx = bd[on_dirichlet, None] * (k + 1) + np.arange(k + 1)
        rhs[idx] += sign[on_dirichlet, None] * jw * moments
    idx, values = np.zeros(0, dtype=int), np.zeros(0)
    if not on_dirichlet.all():
        neumann = bd[~on_dirichlet]
        moments, er, gvals = _boundary_moments(mesh, neumann, problem.g_N, k)
        idx = (neumann[:, None] * (k + 1) + np.arange(k + 1)).ravel()
        values = (sign[~on_dirichlet, None] * moments / er.length[:, None]).ravel()

    lam = 0.0
    if pure_neumann:
        total_f = sum(float(g.f_moments[:, 0].sum()) for g in groups)
        total_gn = float(np.sum(er.weights * gvals))
        volume = sum(float(g.int_m[:, 0].sum()) for g in groups)
        lam = (total_f - total_gn) / volume
        for g in groups:
            rhs[g.pdofs] -= lam * g.int_m
        idx = np.append(idx, n_u)
        values = np.append(values, 0.0)

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_sys, n_sys),
    ).tocsr()
    del rows, cols, vals

    rhs -= A[:, idx] @ values
    keep = np.setdiff1d(np.arange(n_sys), idx)
    A = A[keep][:, keep]  # the full matrix is freed before the LU
    x = np.zeros(n_sys)
    x[idx] = values
    x[keep], report = solve(A, rhs[keep])

    flux = x[: mesh.num_edges * (k + 1)].reshape(mesh.num_edges, k + 1) * jw[None, :]
    vel_coeffs = np.zeros((mesh.num_cells, 2, nk))
    div_coeffs = np.zeros((mesh.num_cells, nk))
    for g, cg in zip(groups, mesh.cell_groups):
        uloc = x[g.udofs]
        vel_coeffs[cg.cells] = (g.vel @ uloc[:, None, :, None])[..., 0]
        div_coeffs[cg.cells] = (g.div_map @ uloc[:, :, None])[..., 0]
    if pure_neumann:
        x[n_u::nk] -= sum(float(np.sum(g.int_m * x[g.pdofs])) for g in groups) / volume

    velocity = DiscreteVelocity(mesh, k, flux, vel_coeffs, div_coeffs, report, lam)
    return velocity, x[n_u:].reshape(mesh.num_cells, nk)

