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

from .element import MonomialBasis, n_poly
from .linalg import solve
from .quadrature import edge_rule, polygon_rule


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


class CellPolynomials:
    """Elementwise polynomials in the per-cell scaled monomial bases."""

    def __init__(self, mesh, k, coeffs):
        self.mesh = mesh
        self.k = k
        self.coeffs = coeffs
        self._bases = [
            MonomialBasis(k, mesh.cell_centroids[ci], mesh.cell_diameters[ci])
            for ci in range(mesh.num_cells)
        ]

    def values(self, ci, points):
        phi = self._bases[ci].evaluate(points)
        c = self.coeffs[ci]
        if c.ndim == 1:
            return phi @ c
        return phi @ c.T


class DiscreteVelocity:
    """Velocity field seen through edge normal-flux polynomials and
    per-element polynomial projections.

    Edge fluxes are Legendre series in the canonical (min->max vertex)
    edge parameter, taken against the canonical edge normal; interior
    edges are single-valued by construction.
    """

    def __init__(self, mesh, k, kind, edge_flux_coeffs, cell_velocity, cell_divergence=None):
        self.mesh = mesh
        self.k = k
        self.kind = kind
        self.edge_flux_coeffs = edge_flux_coeffs
        self.cell_velocity = cell_velocity
        self.cell_divergence = cell_divergence

    def edge_flux_values(self, e, params):
        """u . n_e at canonical params along edge e."""
        P = _legendre_values(self.k, params)
        return P @ self.edge_flux_coeffs[e]

    def edge_outward_flux_values(self, e, params):
        """u . n (outward) at canonical params along a boundary edge."""
        return self.mesh.boundary_sign(e) * self.edge_flux_values(e, params)

    def edge_mean_outward_flux(self, e):
        return self.mesh.boundary_sign(e) * float(self.edge_flux_coeffs[e][0])

    def velocity_values(self, ci, points):
        """Projected polynomial velocity on cell ci, shape (npts, 2)."""
        return self.cell_velocity.values(ci, points)

    def velocity_coefficients(self, ci):
        """Monomial coefficients (2, n_poly) in the cell basis."""
        return self.cell_velocity.coeffs[ci]

    def divergence_values(self, ci, points):
        if self.cell_divergence is None:
            raise DarcyError("divergence polynomial not available for this field")
        return self.cell_divergence.values(ci, points)


def analytic_velocity(u_callback, mesh, k, div_callback=None):
    """Wrap an analytic vector field in the DiscreteVelocity interface.

    Edge fluxes are L2 projections of u . n onto degree-k edge
    polynomials; element polynomials are L2 projections onto [P_k]^2.
    """
    ne = mesh.num_edges
    flux = np.zeros((ne, k + 1))
    jw = 2.0 * np.arange(k + 1) + 1.0
    for e in range(ne):
        p0, p1 = mesh.edge_points(e)
        er = edge_rule(p0, p1, 2 * k + 10)
        uvals = np.asarray(u_callback(er.points), dtype=float)
        un = uvals @ mesh.edge_normals[e]
        P = _legendre_values(k, er.params)
        flux[e] = jw * (P.T @ (er.weights * un)) / er.length

    coeffs = []
    div_coeffs = [] if div_callback is not None else None
    for ci in range(mesh.num_cells):
        basis = MonomialBasis(k, mesh.cell_centroids[ci], mesh.cell_diameters[ci])
        rule = polygon_rule(mesh.cell_polygon(ci), 2 * k + 6)
        phi = basis.evaluate(rule.points)
        H = phi.T @ (rule.weights[:, None] * phi)
        uvals = np.asarray(u_callback(rule.points), dtype=float)
        rhs = phi.T @ (rule.weights[:, None] * uvals)
        coeffs.append(np.linalg.solve(H, rhs).T)
        if div_callback is not None:
            dv = np.asarray(div_callback(rule.points), dtype=float)
            div_coeffs.append(np.linalg.solve(H, phi.T @ (rule.weights * dv)))
    cell_vel = CellPolynomials(mesh, k, coeffs)
    cell_div = CellPolynomials(mesh, k, div_coeffs) if div_coeffs is not None else None
    return DiscreteVelocity(mesh, k, "analytic", flux, cell_vel, cell_div)


class _FluxElement:
    """Local mixed-VEM operators for one cell.

    rule is the cell's degree-2(k+1) polygon rule and f_values the flow
    source at its points; they give the source moments f_moments.
    """

    def __init__(self, mesh, ci, k, rule, f_values):
        self.nv = len(mesh.cells[ci])
        self.k = k
        self.area = mesh.cell_areas[ci]
        self.h = mesh.cell_diameters[ci]
        self.basis_hi = MonomialBasis(k + 1, mesh.cell_centroids[ci], self.h)
        nk = n_poly(k)
        nk1 = n_poly(k + 1)
        self.n_internal = nk - 1
        self.edges = mesh.cell_edges[ci]
        self.n_loc = self.nv * (k + 1) + self.n_internal

        phi = self.basis_hi.evaluate(rule.points)
        w = rule.weights
        self.f_moments = phi[:, :nk].T @ (w * f_values)
        H_full = phi.T @ (w[:, None] * phi)
        gx, gy = self.basis_hi.gradients(rule.points)
        G_full = gx.T @ (w[:, None] * gx) + gy.T @ (w[:, None] * gy)
        self.H_k = H_full[:nk, :nk]
        self.H_cross = H_full[:, :nk]
        self.int_m = H_full[0, :nk]  # integrals of the pressure monomials

        jw = 2.0 * np.arange(k + 1) + 1.0
        # edge moment blocks: (2j+1) * int_e P_j m_alpha for the hi basis
        # the edge rules also serve the Pi_dof rows below; they stay local,
        # since keeping them on every element raises the peak memory
        self.T_edges = []
        signs = []
        edge_data = []
        for e, direction in self.edges:
            p0, p1 = mesh.edge_points(e)
            er = edge_rule(p0, p1, 2 * k + 2)
            P = _legendre_values(k, er.params)
            phi_e = self.basis_hi.evaluate(er.points)
            T = phi_e.T @ (er.weights[:, None] * P) * jw[None, :]
            self.T_edges.append(T)
            signs.append(direction)
            edge_data.append((er, P, phi_e[:, :nk]))

        # divergence moments: int div(v) m_alpha for |alpha| <= k
        DIVR = np.zeros((nk, self.n_loc))
        for li, T in enumerate(self.T_edges):
            cols = slice(li * (k + 1), (li + 1) * (k + 1))
            DIVR[:, cols] += signs[li] * T[:nk, :]
        for a in range(1, nk):
            DIVR[a, self.nv * (k + 1) + a - 1] -= self.area / self.h
        self.DIVR = DIVR
        self.div_map = np.linalg.solve(self.H_k, DIVR)

        # projection onto gradients of degree-(k+1) polynomials
        PRHS = np.zeros((nk1 - 1, self.n_loc))
        for li, T in enumerate(self.T_edges):
            cols = slice(li * (k + 1), (li + 1) * (k + 1))
            PRHS[:, cols] += signs[li] * T[1:, :]
        PRHS -= (self.H_cross @ self.div_map)[1:, :]
        G_red = G_full[1:, 1:]
        self.pi_grad = np.linalg.solve(G_red, PRHS)

        dx = self.basis_hi.derivative_map(0)
        dy = self.basis_hi.derivative_map(1)
        self.vel_x = dx[:nk, 1:] @ self.pi_grad
        self.vel_y = dy[:nk, 1:] @ self.pi_grad

        # dofs of the projected field, for the stabilization
        Pi_dof = np.zeros((self.n_loc, self.n_loc))
        for li, ((e, _), (er, P, phi_e)) in enumerate(zip(self.edges, edge_data)):
            n_e = mesh.edge_normals[e]
            un = n_e[0] * (phi_e @ self.vel_x) + n_e[1] * (phi_e @ self.vel_y)
            rows = slice(li * (k + 1), (li + 1) * (k + 1))
            Pi_dof[rows, :] = P.T @ (er.weights[:, None] * un) / er.length
        if self.n_internal:
            phik = phi[:, :nk]
            Ux = phik @ self.vel_x
            Uy = phik @ self.vel_y
            for a in range(1, nk):
                vals = gx[:, a][:, None] * Ux + gy[:, a][:, None] * Uy
                Pi_dof[self.nv * (k + 1) + a - 1, :] = self.h / self.area * (w @ vals)

        consist = PRHS.T @ self.pi_grad
        stab = self.area * (np.eye(self.n_loc) - Pi_dof).T @ (np.eye(self.n_loc) - Pi_dof)
        self.A_unit = 0.5 * (consist + consist.T) + stab


def _flux_elements(mesh, k, f):
    """Flux elements of all cells; f is evaluated once, on the stacked
    quadrature points of every cell."""
    rules = [polygon_rule(mesh.cell_polygon(ci), 2 * (k + 1)) for ci in range(mesh.num_cells)]
    offsets = np.cumsum([0] + [len(r.weights) for r in rules])
    f_vals = np.asarray(f(np.vstack([r.points for r in rules])), dtype=float)
    return [
        _FluxElement(mesh, ci, k, rule, f_vals[offsets[ci] : offsets[ci + 1]])
        for ci, rule in enumerate(rules)
    ]


def _global_flux_dofs(mesh, k, ci, flux_elem):
    """Global velocity dof ids aligned with the local ordering."""
    ids = []
    for e, _ in mesh.cell_edges[ci]:
        ids += [e * (k + 1) + j for j in range(k + 1)]
    base = mesh.num_edges * (k + 1) + ci * flux_elem.n_internal
    ids += [base + j for j in range(flux_elem.n_internal)]
    return np.asarray(ids, dtype=int)


def solve_darcy_mixed(mesh, problem, k, solver_tol=1e-10, solver_method="direct"):
    """Solve the mixed flow system; returns (DiscreteVelocity, pressure).

    Pressure Dirichlet data enters naturally via boundary terms; normal
    flux data is imposed on the edge dofs. With an empty Dirichlet set
    the pressure is fixed to zero mean with a Lagrange multiplier, which
    requires the data compatibility integral(f) = integral(g_N). The
    saddle system is factored directly by default; solver_method
    "iterative" switches to preconditioned GMRES for large runs.
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
    n_p = mesh.num_cells * nk
    n_sys = n_u + n_p + (1 if pure_neumann else 0)

    elems = _flux_elements(mesh, k, problem.f)

    rows, cols, vals = [], [], []
    rhs = np.zeros(n_sys)
    total_f = 0.0
    coef = problem.mu / problem.K_perm
    for ci, fe in enumerate(elems):
        udofs = _global_flux_dofs(mesh, k, ci, fe)
        pdofs = n_u + ci * nk + np.arange(nk)
        A_loc = coef * fe.A_unit
        r, c = np.meshgrid(udofs, udofs, indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(A_loc.ravel())
        r, c = np.meshgrid(pdofs, udofs, indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(fe.DIVR.ravel())
        rows.append(c.ravel())
        cols.append(r.ravel())
        vals.append(fe.DIVR.ravel())
        rhs[pdofs] += fe.f_moments
        total_f += fe.f_moments[0] if nk else 0.0
        if pure_neumann:
            r = np.full(nk, n_sys - 1)
            rows.extend([r, pdofs])
            cols.extend([pdofs, r])
            vals.extend([fe.int_m, fe.int_m])

    jw = 2.0 * np.arange(k + 1) + 1.0
    constrained = {}
    total_gn = 0.0
    for e in boundary:
        sign = mesh.boundary_sign(e)
        p0, p1 = mesh.edge_points(e)
        er = edge_rule(p0, p1, 2 * k + 8)
        P = _legendre_values(k, er.params)
        if e in dirichlet:
            gvals = np.asarray(problem.g_D(er.points), dtype=float)
            contrib = sign * jw * (P.T @ (er.weights * gvals))
            for j in range(k + 1):
                rhs[e * (k + 1) + j] += contrib[j]
        else:
            gvals = np.asarray(problem.g_N(er.points), dtype=float)
            moments = sign * (P.T @ (er.weights * gvals)) / er.length
            for j in range(k + 1):
                constrained[e * (k + 1) + j] = moments[j]
            total_gn += float(er.weights @ gvals)

    if pure_neumann:
        mismatch = abs(total_f - total_gn)
        scale = max(1.0, abs(total_f), abs(total_gn))
        if mismatch > 1e-10 * scale:
            raise DarcyError(
                "pure-Neumann compatibility violated: "
                f"integral(f) = {total_f:.6e} vs integral(g_N) = {total_gn:.6e}"
            )

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_sys, n_sys),
    ).tocsr()

    if constrained:
        idx = np.fromiter(constrained.keys(), dtype=int)
        values = np.fromiter(constrained.values(), dtype=float)
        rhs -= A[:, idx] @ values
        mask = np.ones(n_sys, dtype=bool)
        mask[idx] = False
        keep = np.where(mask)[0]
        A_red = A[keep][:, keep]
        x = np.zeros(n_sys)
        x[idx] = values
        sol, report = solve(A_red, rhs[keep], tol=solver_tol, method=solver_method)
        x[keep] = sol
    else:
        x, report = solve(A, rhs, tol=solver_tol, method=solver_method)

    flux = x[: mesh.num_edges * (k + 1)].reshape(mesh.num_edges, k + 1) * jw[None, :]
    vel_coeffs = []
    div_coeffs = []
    for ci, fe in enumerate(elems):
        udofs = _global_flux_dofs(mesh, k, ci, fe)
        uloc = x[udofs]
        vel_coeffs.append(np.vstack([fe.vel_x @ uloc, fe.vel_y @ uloc]))
        div_coeffs.append(fe.div_map @ uloc)
    pressure = x[n_u : n_u + n_p].reshape(mesh.num_cells, nk)

    cell_vel = CellPolynomials(mesh, k, vel_coeffs)
    cell_div = CellPolynomials(mesh, k, div_coeffs)
    velocity = DiscreteVelocity(mesh, k, "mixed_vem", flux, cell_vel, cell_div)
    pressure_poly = CellPolynomials(mesh, k, [pressure[ci] for ci in range(mesh.num_cells)])
    return velocity, pressure_poly


def velocity_l2_error(velocity, u_callback, quad_degree=None):
    """L2 distance between the element velocity polynomials and a field."""
    mesh = velocity.mesh
    deg = quad_degree if quad_degree is not None else 2 * velocity.k + 6
    total = 0.0
    for ci in range(mesh.num_cells):
        rule = polygon_rule(mesh.cell_polygon(ci), deg)
        diff = velocity.velocity_values(ci, rule.points) - np.asarray(
            u_callback(rule.points), dtype=float
        )
        total += float(rule.weights @ np.sum(diff**2, axis=1))
    return np.sqrt(total)


def pressure_l2_error(pressure, p_callback, mesh, quad_degree=6):
    """L2 distance between elementwise pressures and a reference field."""
    total = 0.0
    for ci in range(mesh.num_cells):
        rule = polygon_rule(mesh.cell_polygon(ci), quad_degree)
        diff = pressure.values(ci, rule.points) - np.asarray(p_callback(rule.points), dtype=float)
        total += float(rule.weights @ diff**2)
    return np.sqrt(total)
