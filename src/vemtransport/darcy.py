"""Discrete velocity fields: mixed virtual elements for the flow problem
and an analytic-field backend for isolating transport errors.

The flux space carries degree-k polynomial normal traces on edges
(single valued, so the field is H(div)-conforming by construction) and
elementwise divergences in P_k. Local inner products project onto
gradients of degree-(k+1) polynomials, the computable part of the space,
with a dofi-dofi stabilization on the complement. Pressures are
elementwise P_k. Sign convention follows u = +(K/mu) grad p. The solve
is hybridized: each cell's saddle block is condensed onto multipliers on
its edges, and only the symmetric positive definite multiplier system is
global.
"""

from dataclasses import dataclass, field, fields, replace

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
    diameter). solve_report is the SolveReport of the multiplier solve
    that gave a Darcy velocity, and f_mean_removed the mean its pure-Neumann
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
    moments f_moments are kept. The local flux dofs are the edge moments,
    against the canonical edge normals, then the internal moments.
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


#: cells per _FluxGroup: a cell group's local operators are built in
#: blocks of this many cells, which keeps the batched arrays in cache
FLUX_BLOCK = 128


def _flux_groups(mesh, k, f):
    """Flux groups of all cells, one list of blocks (block CellGroup,
    _FluxGroup) per cell group of the mesh; f is evaluated once, on the
    stacked quadrature points of every cell. The rules and their monomial
    values are locals here, so they are freed before the multiplier solve."""
    rules, points = stack_rules(mesh.cell_groups, 2 * (k + 1))
    f_vals = split_stacked(f(points), [w.shape for _, w in rules])
    groups = []
    for cg, (pts, w), fv in zip(mesh.cell_groups, rules, f_vals):
        blocks = []
        for start in range(0, len(cg.cells), FLUX_BLOCK):
            b = slice(start, start + FLUX_BLOCK)
            block = replace(cg, **{fd.name: getattr(cg, fd.name)[b] for fd in fields(cg)})
            blocks.append((block, _FluxGroup(mesh, block, k, (pts[b], w[b]), fv[b])))
        groups.append(blocks)
    return groups


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
    the velocity carrying the SolveReport of the multiplier system and the
    pressure the (num_cells, n_poly) coefficients of its elementwise
    polynomials.

    Every cell owns a copy of its edge fluxes; a multiplier per edge dof
    (the pressure trace) makes the copies agree. Each cell's block K =
    [coef A, DIVR^T; DIVR, 0] is condensed onto its multipliers as d
    (K^-1)_edge,edge d, d the edge directions, and the SPD sum is solved
    once. K^-1 takes one Newton step and the per-cell back-substitution
    one refinement step; without them a hexa mesh at k = 2 moves by 3e-12
    (velocity) and 3e-13 (divergence) relative. Dirichlet edges carry no
    multiplier; Neumann data loads the multiplier rows. A pure-Neumann
    flow pins multiplier dof 0 and shifts the load by -lam * int_K
    m_alpha, lam = (integral(f) - integral(g_N)) / |Omega|, as a pressure
    mean multiplier would; lam is recorded as f_mean_removed, and the
    pressure is shifted to zero mean afterwards.
    """
    if k < 0:
        raise DarcyError("degree must be >= 0")
    dirichlet = frozenset(int(e) for e in problem.dirichlet_edges)
    if not dirichlet <= set(int(e) for e in mesh.boundary_edges):
        raise DarcyError("dirichlet_edges contains non-boundary edges")
    pure_neumann = len(dirichlet) == 0

    nk = n_poly(k)
    n_lam = mesh.num_edges * (k + 1)
    grouped = _flux_groups(mesh, k, problem.f)
    blocks = [block for group in grouped for block in group]

    jw = 2.0 * np.arange(k + 1) + 1.0
    bd = np.asarray(mesh.boundary_edges, dtype=int)
    on_dirichlet = np.isin(bd, list(dirichlet))
    bd_dofs = bd[:, None] * (k + 1) + np.arange(k + 1)
    edge_load, jump = np.zeros(n_lam), np.zeros(n_lam)
    if on_dirichlet.any():
        moments, _, _ = _boundary_moments(mesh, bd[on_dirichlet], problem.g_D, k)
        edge_load[bd_dofs[on_dirichlet]] = mesh.boundary_signs[on_dirichlet, None] * jw * moments
    if not on_dirichlet.all():
        moments, er, gvals = _boundary_moments(mesh, bd[~on_dirichlet], problem.g_N, k)
        jump[bd_dofs[~on_dirichlet]] = moments / er.length[:, None]  # the owner's d holds the sign

    def group_sum(values):
        """The sum of values(block CellGroup, _FluxGroup) over all blocks,
        summed whole per cell group of the mesh, as without blocks."""
        return sum(float(np.concatenate([values(cg, g) for cg, g in group]).sum())
                   for group in grouped)

    lam = 0.0
    if pure_neumann:
        total_f = group_sum(lambda cg, g: g.f_moments[:, 0])
        volume = group_sum(lambda cg, g: g.int_m[:, 0])
        lam = (total_f - float(np.sum(er.weights * gvals))) / volume
    free = ~np.isin(np.arange(n_lam), bd_dofs[on_dirichlet])
    free[0] &= not pure_neumann
    n_free = int(free.sum())
    number = np.where(free, np.cumsum(free) - 1, -1)  # dropped dofs land in load[-1]

    coef = problem.mu / problem.K_perm
    rows, cols, vals, load, local = [], [], [], np.zeros(n_free + 1), []
    for cg, g in blocks:
        nc, n_loc = g.A_unit.shape[:2]
        n_edge = cg.verts.shape[1] * (k + 1)
        K = np.block([[coef * g.A_unit, np.swapaxes(g.DIVR, 1, 2)],
                      [g.DIVR, np.zeros((nc, nk, nk))]])
        Kinv = np.linalg.inv(K)
        Kinv += Kinv @ (np.eye(n_loc + nk) - K @ Kinv)
        dofs = (cg.edges[:, :, None] * (k + 1) + np.arange(k + 1)).reshape(nc, n_edge)
        d = np.repeat(cg.directions, k + 1, axis=1)
        r = np.zeros((nc, n_loc + nk))
        r[:, :n_edge] = edge_load[dofs]
        r[:, n_loc:] = g.f_moments - lam * g.int_m
        m = number[dofs]
        on = (m[:, :, None] >= 0) & (m[:, None, :] >= 0)
        rows.append(np.broadcast_to(m[:, :, None], on.shape)[on])
        cols.append(np.broadcast_to(m[:, None, :], on.shape)[on])
        vals.append((d[:, :, None] * Kinv[:, :n_edge, :n_edge] * d[:, None, :])[on])
        np.add.at(load, m, d * (Kinv[:, :n_edge] @ r[..., None])[..., 0])
        local.append((K, r, dofs, d))
    S = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_free, n_free)).tocsr()
    del rows, cols, vals
    mult = np.zeros(n_lam)
    mult[free], report = solve(S, load[:-1] - jump[free])

    edge_x, pressure = np.zeros(n_lam), np.zeros((mesh.num_cells, nk))
    vel_coeffs, div_coeffs = np.zeros((mesh.num_cells, 2, nk)), np.zeros((mesh.num_cells, nk))
    for (cg, g), (K, r, dofs, d) in zip(blocks, local):
        n_edge, n_loc = dofs.shape[1], g.A_unit.shape[1]
        r[:, :n_edge] -= d * mult[dofs]
        x = np.linalg.solve(K, r[..., None])
        x = (x + np.linalg.solve(K, r[..., None] - K @ x))[..., 0]
        edge_x[dofs] = x[:, :n_edge]  # a shared edge's two copies agree to rounding
        vel_coeffs[cg.cells] = (g.vel @ x[:, None, :n_loc, None])[..., 0]
        div_coeffs[cg.cells] = (g.div_map @ x[:, :n_loc, None])[..., 0]
        pressure[cg.cells] = x[:, n_loc:]
    if pure_neumann:
        pressure[:, 0] -= group_sum(lambda cg, g: g.int_m * pressure[cg.cells]) / volume

    flux = edge_x.reshape(mesh.num_edges, k + 1) * jw
    velocity = DiscreteVelocity(mesh, k, flux, vel_coeffs, div_coeffs, report, lam)
    return velocity, pressure
