"""Independent oracles shared by the test modules.

Everything here deliberately avoids the production code paths it is used
to check: scaled monomials through one pow call per monomial
(pow_monomials, pow_monomial_gradients, MonomialBasis), polygon
integrals go through the divergence theorem, time
steps through a classical Runge-Kutta formulation, local norms through
a P1 finite element solve of the space-defining PDE on a fine
triangulation, and the batched local spaces through the per-cell loops
they replaced (LoopVemElement, LoopFluxElement), mesh generation
through one seed or polygon at a time (lloyd_voronoi_loop and
loop_generate_hexa with their per-seed Delaunay corners, kites and
cells, LoopPolyMesh and the per-cell Sutherland-Hodgman clip and
merge; loop_voronoi_cells takes qhull's Voronoi regions instead, and
the Lloyd energy is computed here only), the
closed-form shape audit through one HiGHS linear program per cell
(lp_audit), the Kronecker slab matrix through its per-block assembly
(block_slab_matrix), the hybridized Darcy solve through the monolithic
saddle system (saddle_darcy_solve), and the pinned Darcy gauge through
the Lagrange-multiplier saddle system (multiplier_darcy_solve). The
one-cell views of the batched package types (VemElement, cell_polygon,
cell_edges) and the L2 distances of elementwise polynomials
(velocity_l2_error, pressure_l2_error) serve the tests only, as do the
other tools at the end (the slab system, the weighted interpolant l_tau,
the slabwise projection pi_tau and the Matrix Market export), and so
does the manufactured problem whose error is all temporal
(TemporalProblem).
"""

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite
from scipy.optimize import linprog
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay, Voronoi, cKDTree
from scipy.special import roots_legendre

from vemtransport import polygon as polyops
from vemtransport.darcy import _boundary_moments, _flux_groups, _legendre_values, analytic_velocity
from vemtransport.element import (
    ElementGroup,
    monomial_exponents,
    monomial_maps,
    monomials,
    n_poly,
    uniform_edge_params,
)
from vemtransport.geometry import (
    REACH_PER_RADIUS,
    CellGroup,
    MeshError,
    PolyMesh,
    _hexa_seeds,
    _mirrored_points,
    _snap_to_walls,
    split_stacked,
    stack_rules,
)
from vemtransport.quadrature import (
    edge_rule,
    gauss_interval,
    lagrange_values,
    polygon_rule,
)
from vemtransport.timestepping import lagrange_derivative_matrix, slab_matrix, slab_rhs
from vemtransport.transport import TransportProblem, TransportSystem


def _relative(points, center, scale):
    center = np.asarray(center, dtype=float)
    scale = np.asarray(scale, dtype=float)
    return (np.asarray(points, dtype=float) - center[..., None, :]) / scale[..., None, None]


def pow_monomials(points, center, scale, k):
    """Scaled monomials ((x - center)/scale)^s, |s| <= k: each coordinate
    raised to the exponent array of all n_poly(k) monomials."""
    exps = monomial_exponents(k)
    rel = _relative(points, center, scale)
    return rel[..., 0, None] ** exps[:, 0] * rel[..., 1, None] ** exps[:, 1]


def pow_monomial_gradients(points, center, scale, k):
    """x and y derivatives of pow_monomials, four pow calls per monomial."""
    a, b = monomial_exponents(k).T
    rel = _relative(points, center, scale)
    x, y = rel[..., 0, None], rel[..., 1, None]
    gx = a * x ** np.maximum(a - 1, 0) * y**b
    gy = b * x**a * y ** np.maximum(b - 1, 0)
    scale = np.asarray(scale, dtype=float)[..., None, None]
    return gx / scale, gy / scale


class MonomialBasis:
    """Scaled monomials ((x - x_K)/h_K)^s, |s| <= k, on one cell."""

    def __init__(self, k, center, scale):
        self.k = k
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.size = n_poly(k)

    def evaluate(self, points):
        """Values at points, shape (npts, size)."""
        return pow_monomials(np.atleast_2d(points), self.center, self.scale, self.k)

    def gradients(self, points):
        """Gradient values, shapes ((npts, size), (npts, size))."""
        return pow_monomial_gradients(np.atleast_2d(points), self.center, self.scale, self.k)

    def derivative_map(self, dim):
        """Matrix mapping coefficients of p to coefficients of dp/dx_dim."""
        return monomial_maps(self.k)[dim] / self.scale

    def laplacian_coeffs(self, i):
        """Monomial coefficients of the Laplacian of basis member i."""
        return monomial_maps(self.k)[2, i] / self.scale**2


def gauss_on_segment(p0, p1, npts):
    x, w = roots_legendre(npts)
    t = (x + 1.0) / 2.0
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    L = np.hypot(*(p1 - p0))
    return pts, w * L / 2.0, t


def monomial_integral_divthm(verts, a, b):
    """Integral of x^a y^b over a polygon via the divergence theorem.

    Uses int x^a y^b = boundary integral of (x^{a+1}/(a+1)) y^b n_x with
    exact 1D Gauss rules per edge.
    """
    total = 0.0
    n = len(verts)
    npts = (a + 1 + b) // 2 + 2
    for i in range(n):
        p0, p1 = verts[i], verts[(i + 1) % n]
        t = p1 - p0
        L = np.hypot(*t)
        nx = t[1] / L
        pts, w, _ = gauss_on_segment(p0, p1, npts)
        total += np.sum(w * (pts[:, 0] ** (a + 1) / (a + 1)) * pts[:, 1] ** b * nx)
    return total


def random_convex_polygon(rng, n_min=4, n_max=9, scale=1.0):
    """Convex polygon from angularly sorted random points, CCW order."""
    from scipy.spatial import ConvexHull

    while True:
        pts = rng.random((rng.integers(n_min + 2, n_max + 4), 2)) * scale
        hull = ConvexHull(pts)
        verts = pts[hull.vertices]
        if n_min <= len(verts) <= n_max:
            return verts


#: not convex, and no point sees the whole boundary
U_SHAPE = np.array(
    [[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]], dtype=float
)


def polygon_mesh(polygons):
    """A mesh of separate cells (no shared edges) from vertex loops."""
    vertices = np.vstack(polygons)
    offsets = np.cumsum([0] + [len(p) for p in polygons])
    cells = [np.arange(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
    return PolyMesh(vertices, cells)


def cell_polygon(mesh, ci):
    """Vertex loop of cell ci, (nv, 2)."""
    return mesh.vertices[mesh.cells[ci]]


def cell_edges(mesh, ci):
    """(edge, direction) pairs of cell ci in loop order, (nv, 2), read
    from the cell group that holds it."""
    for cg in mesh.cell_groups:
        row = np.flatnonzero(cg.cells == ci)
        if len(row):
            return np.column_stack([cg.edges[row[0]], cg.directions[row[0]]])
    raise IndexError(f"no cell {ci}")


# -- one-cell views and L2 distances of the batched package types --------


def one_cell_group(verts):
    """A CellGroup of one cell, numbered on its own: vertices and edges 0..nv-1."""
    verts = np.asarray(verts, dtype=float)
    loop = np.arange(len(verts))[None]
    return CellGroup(
        np.zeros(1, dtype=int), loop, loop, np.ones_like(loop), verts[None],
        np.array([polyops.signed_area(verts)]), polyops.centroid(verts)[None],
        np.array([polyops.diameter(verts)]),
    )


class VemElement:
    """Projectors, stabilizations and local matrices of one cell: an
    ElementGroup of one, without the leading cell axis.

    Parameters
    ----------
    verts : (n, 2) array
        Counter-clockwise vertex loop of the cell.
    k : int
        Polynomial degree of the local space (k >= 1).
    """

    def __init__(self, verts, k):
        if k < 1:
            raise ValueError("degree k must be >= 1")
        self.verts = np.asarray(verts, dtype=float)
        if polyops.signed_area(self.verts) <= 0.0:
            raise ValueError("cell must be counter-clockwise with positive area")
        group = ElementGroup(one_cell_group(self.verts), k)
        self.group = group
        self.k = k
        self.nv = group.nv
        self.n_poly = group.n_poly
        self.n_moments = group.n_moments
        self.n_dofs = group.n_dofs
        self.area = float(group.area[0])
        self.centroid = group.centroid[0]
        self.diameter = float(group.diameter[0])
        for name in ("dof_points", "data_points", "data_weights", "data_phi", "D", "H",
                     "G_stiff", "pin_coef", "pin_dof", "pi0_coef", "pi0_dof", "mass",
                     "stiff_unit"):
            setattr(self, name, getattr(group, name)[0])
        self.pg_coef = group.pg_coef[:, 0]

    def mass_matrix(self):
        return self.mass

    def stiffness_matrix(self, diffusion):
        """Diffusion bilinear form with scalar coefficient."""
        return diffusion * self.stiff_unit

    def convection_matrix(self, u_coef):
        """Convection pairing for a polynomial velocity u_coef (2, n_poly)."""
        return self.group.convection(np.asarray(u_coef, dtype=float)[None])[0]

    def reaction_matrix(self, f_callback):
        """Reaction form weighted by |f| at the quadrature points."""
        return self.data_gram(np.abs(np.asarray(f_callback(self.data_points), dtype=float)))

    def data_gram(self, values):
        """Gram matrix of Pi0 of the basis weighted by values at the data-rule points."""
        return self.group.data_gram(np.asarray(values, dtype=float)[None])[0]

    def load_vector(self, values):
        """Integrate values (given at the data-rule points) against Pi0 of the basis."""
        v0 = self.data_phi @ self.pi0_coef
        return v0.T @ (self.data_weights * values)

    def interpolate(self, g):
        """Dof vector of a scalar callback: point values plus moments."""
        dofs = np.zeros(self.n_dofs)
        dofs[: len(self.dof_points)] = np.asarray(g(self.dof_points), dtype=float)
        if self.n_moments:
            vals = np.asarray(g(self.data_points), dtype=float)
            mom = self.data_phi[:, : self.n_moments].T @ (self.data_weights * vals)
            dofs[self.nv * self.k :] = mom / self.area
        return dofs

    def project_h1_values(self, dofs, points):
        """Values of the H1-type projection of a dof vector at points."""
        return monomials(points, self.centroid, self.diameter, self.k) @ (self.pin_coef @ dofs)

    def project_l2_values(self, dofs, points):
        """Values of the L2 projection of a dof vector at points."""
        return monomials(points, self.centroid, self.diameter, self.k) @ (self.pi0_coef @ dofs)


def group_values(coeffs, k, cg, points):
    """Values on the cells of group cg at points (n, m, 2) of elementwise
    degree-k polynomials with per-cell scaled monomial coefficients
    coeffs, (num_cells, n_poly) or (num_cells, components, n_poly):
    (n, m), or (n, m, components)."""
    phi = monomials(points, cg.centroid, cg.diameter, k)
    c = coeffs[cg.cells]
    if c.ndim == 2:
        return np.einsum("cpi,ci->cp", phi, c)
    return phi @ np.swapaxes(c, 1, 2)


def l2_distance(mesh, coeffs, k, callback, degree):
    """L2 distance between elementwise degree-k polynomials and a callback,
    which is called once on the stacked rule points of all cells."""
    rules, points = stack_rules(mesh.cell_groups, degree)
    exact = split_stacked(callback(points), [w.shape for _, w in rules])
    total = 0.0
    for cg, (pts, w), ex in zip(mesh.cell_groups, rules, exact):
        diff = group_values(coeffs, k, cg, pts) - ex
        total += float(np.sum(w * (diff**2 if diff.ndim == 2 else np.sum(diff**2, axis=-1))))
    return np.sqrt(total)


def velocity_l2_error(velocity, u_callback, quad_degree=None):
    """L2 distance between the element velocity polynomials and a field."""
    deg = quad_degree if quad_degree is not None else 2 * velocity.k + 6
    return l2_distance(velocity.mesh, velocity.cell_velocity, velocity.k, u_callback, deg)


def pressure_l2_error(pressure, k, p_callback, mesh, quad_degree=6):
    """L2 distance between elementwise degree-k pressures and a reference field."""
    return l2_distance(mesh, pressure, k, p_callback, quad_degree)


# -- per-cell local spaces: the loop reference for the batched build ----


class LoopVemElement:
    """One cell's projectors and matrices, built the per-cell way:
    one polygon rule per degree and one edge rule per edge.

    Reference for the batched ElementGroup.

    Parameters
    ----------
    verts : (n, 2) array
        Counter-clockwise vertex loop of the cell.
    k : int
        Polynomial degree of the local space (k >= 1).
    """

    def __init__(self, verts, k):
        if k < 1:
            raise ValueError("degree k must be >= 1")
        self.verts = np.asarray(verts, dtype=float)
        self.k = k
        self.nv = len(self.verts)
        self.area = polyops.signed_area(self.verts)
        if self.area <= 0.0:
            raise ValueError("cell must be counter-clockwise with positive area")
        self.centroid = polyops.centroid(self.verts)
        self.diameter = polyops.diameter(self.verts)
        self.basis = MonomialBasis(k, self.centroid, self.diameter)
        self.n_poly = self.basis.size
        self.n_moments = n_poly(k - 2)
        self.n_dofs = self.nv * k + self.n_moments

        self._edge_geometry()
        self._volume_rules()
        self._build_projectors()
        self._build_matrices()

    # -- construction ------------------------------------------------

    def _edge_geometry(self):
        k = self.k
        self.edge_starts = self.verts
        self.edge_ends = np.roll(self.verts, -1, axis=0)
        tang = self.edge_ends - self.edge_starts
        lengths = np.hypot(tang[:, 0], tang[:, 1])
        self.edge_lens = lengths
        self.edge_normals_out = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
        self.perimeter = float(lengths.sum())
        # local dof indices along each edge, in traversal order
        self.edge_trace_dofs = []
        for i in range(self.nv):
            trace = [i]
            trace += [self.nv + i * (k - 1) + j for j in range(k - 1)]
            trace.append((i + 1) % self.nv)
            self.edge_trace_dofs.append(np.asarray(trace, dtype=int))
        params = uniform_edge_params(k)
        self.dof_points = np.vstack(
            [self.verts]
            + [
                self.edge_starts[i] + params[1:-1, None] * (self.edge_ends[i] - self.edge_starts[i])
                for i in range(self.nv)
            ]
        ) if k > 1 else self.verts.copy()

    def _volume_rules(self):
        k = self.k
        self.rule_poly = polygon_rule(self.verts, max(2 * k, 2))
        self.rule_data = polygon_rule(self.verts, 2 * k + 2)
        self.rule_conv = polygon_rule(self.verts, 3 * k)
        self._phi_poly = self.basis.evaluate(self.rule_poly.points)
        self._phi_data = self.basis.evaluate(self.rule_data.points)
        self._phi_conv = self.basis.evaluate(self.rule_conv.points)
        w = self.rule_poly.weights
        self.H = self._phi_poly.T @ (w[:, None] * self._phi_poly)
        gx, gy = self.basis.gradients(self.rule_poly.points)
        self.G_stiff = gx.T @ (w[:, None] * gx) + gy.T @ (w[:, None] * gy)

    def _edge_quadrature(self, degree):
        """Per-edge rules plus trace basis values at the quadrature params."""
        out = []
        params = uniform_edge_params(self.k)
        for i in range(self.nv):
            er = edge_rule(self.edge_starts[i], self.edge_ends[i], degree)
            out.append((er, lagrange_values(params, er.params)))
        return out

    def _build_projectors(self):
        k, nv = self.k, self.nv
        npol, ndof = self.n_poly, self.n_dofs

        # dof matrix: dofs of each monomial
        D = np.zeros((ndof, npol))
        D[: len(self.dof_points)] = self.basis.evaluate(self.dof_points)
        if self.n_moments:
            D[nv * k :, :] = self.H[: self.n_moments, :] / self.area

        # H1-type projector: gradient matching plus boundary-mean constraint
        B = np.zeros((npol, ndof))
        edge_quads = self._edge_quadrature(2 * k)
        for i in range(nv):
            er, trace = edge_quads[i]
            gx, gy = self.basis.gradients(er.points)
            gn = gx * self.edge_normals_out[i, 0] + gy * self.edge_normals_out[i, 1]
            contrib = gn.T @ (er.weights[:, None] * trace)
            B[:, self.edge_trace_dofs[i]] += contrib
        for alpha in range(npol):
            lam = self.basis.laplacian_coeffs(alpha)
            for gamma in np.nonzero(lam)[0]:
                B[alpha, nv * k + gamma] -= self.area * lam[gamma]
        # constant fixed by the boundary mean
        p0_row = np.zeros(ndof)
        g0_row = np.zeros(npol)
        for i in range(nv):
            er, trace = edge_quads[i]
            p0_row[self.edge_trace_dofs[i]] += er.weights @ trace
            g0_row += er.weights @ self.basis.evaluate(er.points)
        G = self.G_stiff.copy()
        G[0, :] = g0_row / self.perimeter
        B[0, :] = p0_row / self.perimeter
        self.D = D
        self.pin_coef = np.linalg.solve(G, B)
        self.pin_dof = D @ self.pin_coef

        # L2 projector: stored moments up to k-2, higher moments from the
        # H1 projection (enhancement convention)
        C = np.zeros((npol, ndof))
        if self.n_moments:
            C[: self.n_moments, nv * k :] = self.area * np.eye(self.n_moments)
        high = self.H @ self.pin_coef
        C[self.n_moments :, :] = high[self.n_moments :, :]
        self.pi0_coef = self.pin_coef + np.linalg.solve(self.H, C - high)
        self.pi0_dof = D @ self.pi0_coef

        # componentwise L2 projection of the gradient at degree k
        self.pg_coef = []
        for dim in range(2):
            E = np.zeros((npol, ndof))
            for i in range(nv):
                er, trace = edge_quads[i]
                phi = self.basis.evaluate(er.points)
                nd = self.edge_normals_out[i, dim]
                E[:, self.edge_trace_dofs[i]] += phi.T @ (er.weights[:, None] * trace) * nd
            dmap = self.basis.derivative_map(dim)
            E -= dmap.T @ C
            self.pg_coef.append(np.linalg.solve(self.H, E))

    def _build_matrices(self):
        eye = np.eye(self.n_dofs)
        self.S_m = self.area * (eye - self.pi0_dof).T @ (eye - self.pi0_dof)
        self.mass = self.pi0_coef.T @ self.H @ self.pi0_coef + self.S_m
        self.mass = 0.5 * (self.mass + self.mass.T)
        self.S_a = (eye - self.pin_dof).T @ (eye - self.pin_dof)
        self.stiff_unit = self.pin_coef.T @ self.G_stiff @ self.pin_coef + self.S_a
        self.stiff_unit = 0.5 * (self.stiff_unit + self.stiff_unit.T)

    def convection_matrix(self, u_coef):
        """Convection pairing for a polynomial velocity on this cell.

        u_coef is (2, n_poly): monomial coefficients of the projected
        velocity. Entry (i, j) integrates (u . grad phi_j, phi_i) with the
        projected gradient (degree k) and values.
        """
        phi = self._phi_conv
        w = self.rule_conv.weights
        u = phi @ np.asarray(u_coef).T  # (npts, 2)
        gx = phi @ self.pg_coef[0]
        gy = phi @ self.pg_coef[1]
        v0 = phi @ self.pi0_coef
        adv = u[:, 0:1] * gx + u[:, 1:2] * gy
        return v0.T @ (w[:, None] * adv)


class LoopFluxElement:
    """Local mixed-VEM operators of one cell, built the per-cell way.

    Reference for the batched darcy flux groups.

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
        self.edges = cell_edges(mesh, ci)
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
        self.T_edges = []
        signs = []
        edge_data = []
        for e, direction in self.edges:
            p0, p1 = mesh.vertices[mesh.edges[e]]
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




# -- per-cell data projections and dof maps -------------------------------


def edge_trace_matrix(p0, p1, k, weight_values, degree=None):
    """Gram matrix of the k+1 edge trace dofs weighted by a function.

    weight_values maps quadrature params in (0, 1) along p0 -> p1 to the
    weight (e.g. |u . n|). Returns the (k+1, k+1) matrix in canonical
    trace-dof order [start, interior..., end].
    """
    er = edge_rule(p0, p1, degree if degree is not None else 2 * k + 4)
    trace = lagrange_values(uniform_edge_params(k), er.params)
    w = er.weights * np.asarray(weight_values(er.params), dtype=float)
    return trace.T @ (w[:, None] * trace)


def h1_project_callback(verts, k, g, quad_degree=None):
    """H1-type projection of a raw callback onto degree-k polynomials.

    Solves the defining equations with boundary and volume quadrature of
    g itself (no dof interpolation), returning monomial coefficients.
    Used for data that is not in the discrete space.
    """
    verts = np.asarray(verts, dtype=float)
    k = int(k)
    basis = MonomialBasis(k, polyops.centroid(verts), polyops.diameter(verts))
    deg = quad_degree if quad_degree is not None else 2 * k + 6
    rule = polygon_rule(verts, deg)
    gx, gy = basis.gradients(rule.points)
    w = rule.weights
    G = gx.T @ (w[:, None] * gx) + gy.T @ (w[:, None] * gy)
    gvals = np.asarray(g(rule.points), dtype=float)
    rhs = np.zeros(basis.size)
    for alpha in range(basis.size):
        lam = basis.laplacian_coeffs(alpha)
        if np.any(lam):
            rhs[alpha] -= w @ (gvals * (basis.evaluate(rule.points) @ lam))
    starts = verts
    ends = np.roll(verts, -1, axis=0)
    perimeter = 0.0
    g0_row = np.zeros(basis.size)
    bmean = 0.0
    for i in range(len(verts)):
        er = edge_rule(starts[i], ends[i], deg)
        t = ends[i] - starts[i]
        n = np.array([t[1], -t[0]]) / np.hypot(*t)
        egx, egy = basis.gradients(er.points)
        gn = egx * n[0] + egy * n[1]
        ev = np.asarray(g(er.points), dtype=float)
        rhs += gn.T @ (er.weights * ev)
        g0_row += er.weights @ basis.evaluate(er.points)
        bmean += er.weights @ ev
        perimeter += er.length
    G[0, :] = g0_row / perimeter
    rhs[0] = bmean / perimeter
    return basis, np.linalg.solve(G, rhs)


def dof_map(space, other, perm):
    """Dof transfer to a space on the same vertices with permuted cells.

    `other` must be built on a mesh with the vertices of space.mesh and
    its cells reordered by perm. Returns an index array m with
    u_other = u_space[m].
    """
    k = space.k
    nv = space.mesh.num_vertices
    ne = space.mesh.num_edges
    m = np.zeros(other.n_dofs, dtype=int)
    m[:nv] = np.arange(nv)
    old_edge = {tuple(space.mesh.edges[e]): e for e in range(ne)}
    for e_new in range(other.mesh.num_edges):
        e_old = old_edge[tuple(other.mesh.edges[e_new])]
        for j in range(k - 1):
            m[nv + e_new * (k - 1) + j] = nv + e_old * (k - 1) + j
    base_old = nv + ne * (k - 1)
    base_new = nv + other.mesh.num_edges * (k - 1)
    for ci_new, ci_old in enumerate(perm):
        for j in range(space.n_moments):
            m[base_new + ci_new * space.n_moments + j] = base_old + ci_old * space.n_moments + j
    return m


# -- classical Radau-IIA Runge-Kutta ------------------------------------

SQ6 = np.sqrt(6.0)
RADAU_IIA_TABLEAUX = {
    0: (np.array([[1.0]]), np.array([1.0])),
    1: (
        np.array([[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]]),
        np.array([3.0 / 4.0, 1.0 / 4.0]),
    ),
    2: (
        np.array(
            [
                [(88 - 7 * SQ6) / 360, (296 - 169 * SQ6) / 1800, (-2 + 3 * SQ6) / 225],
                [(296 + 169 * SQ6) / 1800, (88 + 7 * SQ6) / 360, (-2 - 3 * SQ6) / 225],
                [(16 - SQ6) / 36, (16 + SQ6) / 36, 1.0 / 9.0],
            ]
        ),
        np.array([(16 - SQ6) / 36, (16 + SQ6) / 36, 1.0 / 9.0]),
    ),
}


def radau_iia_tableau(q, nodes=None):
    """Butcher data for the (q+1)-stage method.

    Textbook coefficients for q <= 2; for larger q the matrix is built by
    integrating the Lagrange cardinal polynomials of the given nodes.
    """
    if q in RADAU_IIA_TABLEAUX:
        return RADAU_IIA_TABLEAUX[q]
    assert nodes is not None, "need collocation nodes for q > 2"
    s = q + 1
    A = np.zeros((s, s))
    for j in range(s):
        pj = np.polynomial.Polynomial([1.0])
        for b in range(s):
            if b != j:
                pj = pj * np.polynomial.Polynomial([-nodes[b], 1.0]) / (nodes[j] - nodes[b])
        integ = pj.integ()
        for i in range(s):
            A[i, j] = integ(nodes[i]) - integ(0.0)
    return A, A[-1].copy()


def radau_iia_step(L, y0, tau, q, nodes=None):
    """One step of the classical Radau-IIA method for y' = -L y."""
    A, b = radau_iia_tableau(q, nodes)
    s = len(b)
    n = len(y0)
    big = np.eye(s * n) + tau * np.kron(A, L)
    rhs = np.tile(y0, s)
    Y = np.linalg.solve(big, rhs)
    stages = Y.reshape(s, n)
    return y0 - tau * (b @ (stages @ L.T))


# -- local PDE oracle -----------------------------------------------------


def _refine_triangulation(nodes, tris, rounds):
    for _ in range(rounds):
        edge_mid = {}
        new_nodes = list(nodes)
        new_tris = []

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in edge_mid:
                edge_mid[key] = len(new_nodes)
                new_nodes.append(0.5 * (np.asarray(new_nodes[a]) + np.asarray(new_nodes[b])))
            return edge_mid[key]

        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        nodes = np.asarray(new_nodes)
        tris = np.asarray(new_tris, dtype=int)
    return np.asarray(nodes), np.asarray(tris, dtype=int)


def _p1_matrices(nodes, tris):
    n = len(nodes)
    K = sp.lil_matrix((n, n))
    M = sp.lil_matrix((n, n))
    mloc = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    for tri in tris:
        p = nodes[tri]
        J = np.column_stack([p[1] - p[0], p[2] - p[0]])
        detJ = abs(np.linalg.det(J))
        grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        grads = grads_ref @ np.linalg.inv(J)
        K[np.ix_(tri, tri)] += detJ / 2.0 * grads @ grads.T
        M[np.ix_(tri, tri)] += detJ / 2.0 * mloc
    return K.tocsr(), M.tocsr()


class LocalSpaceOracle:
    """Finite element realization of the degree-k local space on one cell.

    Given the cell dofs it solves the defining PDE (Laplacian equal to a
    degree-k polynomial, boundary trace fixed by the edge dofs, moments
    matched: stored ones up to degree k-2, the rest identified with the
    H1-projection computed independently from the same data) on a
    refined fan triangulation, exposing L2/H1 norms and products.
    """

    def __init__(self, verts, k, refine=4):
        self.verts = np.asarray(verts, dtype=float)
        self.k = k
        nv = len(verts)
        center = self.verts.mean(axis=0)
        nodes = [center]
        base_tris = []
        # fan triangulation whose boundary nodes are exactly the polygon edges
        for i in range(nv):
            nodes.append(self.verts[i])
        for i in range(nv):
            base_tris.append([0, 1 + i, 1 + (i + 1) % nv])
        self.nodes, self.tris = _refine_triangulation(np.asarray(nodes), base_tris, refine)
        self.K, self.M = _p1_matrices(self.nodes, self.tris)
        self.basis = MonomialBasis(k, _centroid(self.verts), _diameter(self.verts))
        self._classify_boundary_nodes()

    def _classify_boundary_nodes(self):
        nv = len(self.verts)
        self.boundary = {}
        tol = 1e-12
        for idx, p in enumerate(self.nodes):
            for i in range(nv):
                a, b = self.verts[i], self.verts[(i + 1) % nv]
                t = b - a
                L2 = t @ t
                s = ((p - a) @ t) / L2
                if -tol <= s <= 1 + tol:
                    off = p - (a + s * t)
                    if off @ off < tol * L2:
                        self.boundary[idx] = (i, min(max(s, 0.0), 1.0))
                        break

    def _trace_values(self, dofs):
        """Boundary node values from the edge trace polynomials."""
        nv = len(self.verts)
        k = self.k
        params = uniform_edge_params(k)
        out = {}
        for idx, (edge, s) in self.boundary.items():
            trace_dofs = [edge]
            trace_dofs += [nv + edge * (k - 1) + j for j in range(k - 1)]
            trace_dofs.append((edge + 1) % nv)
            vals = dofs[trace_dofs]
            out[idx] = float((lagrange_values(params, np.array([s])) @ vals)[0])
        return out

    def _independent_h1_projection(self, dofs):
        """H1-type projection from boundary trace and stored moments only."""
        k = self.k
        nv = len(self.verts)
        npol = self.basis.size
        area = _area(self.verts)
        G = np.zeros((npol, npol))
        rhs = np.zeros(npol)
        # dense boundary quadrature of the known trace
        params = uniform_edge_params(k)
        perimeter = 0.0
        bmean = 0.0
        g0 = np.zeros(npol)
        for i in range(nv):
            a, b = self.verts[i], self.verts[(i + 1) % nv]
            pts, w, t = gauss_on_segment(a, b, 2 * k + 4)
            tr_dofs = [i] + [nv + i * (k - 1) + j for j in range(k - 1)] + [(i + 1) % nv]
            tvals = lagrange_values(params, t) @ dofs[tr_dofs]
            tang = b - a
            L = np.hypot(*tang)
            normal = np.array([tang[1], -tang[0]]) / L
            gx, gy = self.basis.gradients(pts)
            rhs += (gx * normal[0] + gy * normal[1]).T @ (w * tvals)
            g0 += w @ self.basis.evaluate(pts)
            bmean += w @ tvals
            perimeter += L
        rule_pts, rule_w = _dense_polygon_rule(self.verts, 2 * k + 2)
        gx, gy = self.basis.gradients(rule_pts)
        G[:, :] = gx.T @ (rule_w[:, None] * gx) + gy.T @ (rule_w[:, None] * gy)
        for alpha in range(npol):
            lam = self.basis.laplacian_coeffs(alpha)
            for gamma in np.nonzero(lam)[0]:
                # moments of degree <= k-2 are stored dofs
                rhs[alpha] -= area * lam[gamma] * dofs[nv * k + gamma]
        G[0, :] = g0 / perimeter
        rhs[0] = bmean / perimeter
        return np.linalg.solve(G, rhs)

    def solve(self, dofs):
        """Nodal values of the local function with the given dofs."""
        k = self.k
        nv = len(self.verts)
        npol = self.basis.size
        n_mom = npol - (k + 1) - k  # = dim P_{k-2}
        n_nodes = len(self.nodes)
        trace = self._trace_values(dofs)
        fixed = np.zeros(n_nodes)
        is_fixed = np.zeros(n_nodes, dtype=bool)
        for idx, val in trace.items():
            fixed[idx] = val
            is_fixed[idx] = True
        free = np.where(~is_fixed)[0]
        phi_nodes = self.basis.evaluate(self.nodes)
        # unknowns: free node values + npol Laplacian coefficients
        # Laplace rows: K[free,:] v + (M Phi c)[free] = 0
        K_ff = self.K[free][:, free]
        K_fb = self.K[free][:, is_fixed]
        MPhi = self.M @ phi_nodes
        A11 = K_ff
        A12 = MPhi[free]
        b1 = -K_fb @ fixed[is_fixed]
        # moment rows: (1/area) int v m_gamma = stored dof (gamma <= k-2)
        #               int v m_gamma = int (Pi v) m_gamma (higher gamma)
        area = _area(self.verts)
        rule_pts, rule_w = _dense_polygon_rule(self.verts, 2 * k + 2)
        phi_rule = self.basis.evaluate(rule_pts)
        Hdense = phi_rule.T @ (rule_w[:, None] * phi_rule)
        pin = self._independent_h1_projection(dofs)
        rows = []
        rhs2 = []
        Mphi_all = self.M @ phi_nodes  # int v m via FEM mass
        for gamma in range(npol):
            row_v = Mphi_all[:, gamma]
            if gamma < n_mom:
                target = area * dofs[nv * k + gamma]
            else:
                target = Hdense[gamma] @ pin
            rows.append(row_v)
            rhs2.append(target)
        rows = np.asarray(rows)
        A21 = rows[:, free]
        b2 = np.asarray(rhs2) - rows[:, is_fixed] @ fixed[is_fixed]
        # the polynomial coefficients do not enter the moment rows directly
        big = np.block(
            [[A11.toarray(), A12], [A21, np.zeros((npol, npol))]]
        )
        rhs_full = np.concatenate([b1, b2])
        sol = np.linalg.solve(big, rhs_full)
        values = fixed.copy()
        values[free] = sol[: len(free)]
        return values

    def l2_norm(self, values):
        return float(np.sqrt(values @ (self.M @ values)))

    def h1_seminorm(self, values):
        return float(np.sqrt(values @ (self.K @ values)))

    def l2_product_with(self, values, func):
        fv = func(self.nodes)
        return float(values @ (self.M @ fv))


def _area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _centroid(verts):
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross)
    return np.array([np.sum((x + xn) * cross), np.sum((y + yn) * cross)]) / (6.0 * a)


def _diameter(verts):
    d2 = np.sum((verts[:, None, :] - verts[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


def _second_moment(verts, point):
    x = verts[:, 0] - point[0]
    y = verts[:, 1] - point[1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    ixx = np.sum((x * x + x * xn + xn * xn) * cross) / 12.0
    iyy = np.sum((y * y + y * yn + yn * yn) * cross) / 12.0
    return float(ixx + iyy)


def lloyd_voronoi_loop(n_seeds, lloyd_iters, rng_seed):
    """generate_voronoi one seed and one cell at a time: the Lloyd
    relaxation with the per-seed kites below, each step after the first
    on the reduced mirror whose reach starts at REACH_PER_RADIUS times the
    previous step's r_max, the cells from the per-seed corners, then the
    per-cell clip, merge and topology. Returns (LoopPolyMesh, Lloyd
    energies of the raw seeds and after every step)."""
    seeds = np.random.default_rng(rng_seed).random((n_seeds, 2))
    energies = []
    reach = 1.0
    for _ in range(lloyd_iters):
        energy, seeds, r_max = loop_kite_moments(seeds, reach)
        energies.append(energy)
        reach = REACH_PER_RADIUS * r_max
    energies.append(loop_kite_moments(seeds, reach)[0])
    cells = loop_delaunay_cells(seeds, reach)
    return loop_merge_cell_polygons(loop_clipped_cells(cells)), energies


def _seed_corners(points, n):
    """Per seed, one of the first n points: the corners of the Delaunay
    triangles at it, one at a time in triangle order, each as (j, k,
    circumcenter) with j and k the triangle's next vertices
    counter-clockwise; None for a seed on the hull or in no triangle.
    Also the largest circumradius of a triangle at a bounded seed."""
    tri = Delaunay(points)
    hull = set(tri.convex_hull.ravel().tolist())
    at = [[] for _ in range(n)]
    for t in tri.simplices.tolist():
        if min(t) >= n:
            continue
        (ax, ay), (bx, by), (cx, cy) = (points[v].tolist() for v in t)
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0.0:
            t = [t[0], t[2], t[1]]
            bx, by, cx, cy = cx, cy, bx, by
        bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
        bb, cc = bx * bx + by * by, cx * cx + cy * cy
        d = 2.0 * (bx * cy - by * cx)
        center = (ax + (cy * bb - by * cc) / d, ay + (bx * cc - cx * bb) / d)
        for r, i in enumerate(t):
            if i < n:
                at[i].append((t[(r + 1) % 3], t[(r + 2) % 3], center))
    corners, r_max = [], 0.0
    for i, seed_corners in enumerate(at):
        if i in hull or not seed_corners:
            corners.append(None)
            continue
        px, py = points[i].tolist()
        for _, _, (ox, oy) in seed_corners:
            r_max = max(r_max, float(np.hypot(ox - px, oy - py)))
        corners.append(seed_corners)
    return corners, r_max


def loop_certified(seeds, reach=1.0):
    """The qhull input (geometry's mirrored points, _mirrored_points), the
    per-seed corners on it and their largest circumradius (_seed_corners).
    A reduced triangulation is taken only when no seed is on its hull and
    every circumradius at a seed is below reach / 2; otherwise the reach
    doubles, up to 1."""
    while True:
        points = _mirrored_points(seeds, reach)
        corners, r_max = _seed_corners(points, len(seeds))
        bounded = all(c is not None for c in corners)
        if reach >= 1.0 or (bounded and 2.0 * r_max < reach):
            break
        reach *= 2.0
    if not bounded:
        raise MeshError("unbounded Voronoi region despite wall mirroring")
    return points, corners, r_max


def loop_kite_moments(seeds, reach=1.0):
    """The Lloyd energy (the cells' second moments about their seeds,
    summed seed by seed), the cell centroids and the largest circumradius,
    one seed at a time from the kites (seed, edge midpoint, circumcenter,
    edge midpoint) of the certified Delaunay corners at it (loop_certified)."""
    points, corners, r_max = loop_certified(seeds, reach)
    energy, centroids = 0.0, []
    for i, seed_corners in enumerate(corners):
        px, py = points[i].tolist()
        area = mx = my = second = 0.0
        for j, k, (ox, oy) in seed_corners:
            (jx, jy), (kx, ky) = points[j].tolist(), points[k].tolist()
            ux, uy = 0.5 * (jx - px), 0.5 * (jy - py)
            vx, vy = 0.5 * (kx - px), 0.5 * (ky - py)
            wx, wy = ox - px, oy - py
            a1, a2 = 0.5 * (ux * wy - uy * wx), 0.5 * (wx * vy - wy * vx)
            area += a1 + a2
            mx += (a1 * (ux + wx) + a2 * (wx + vx)) / 3.0
            my += (a1 * (uy + wy) + a2 * (wy + vy)) / 3.0
            uu, uw, ww = ux * ux + uy * uy, ux * wx + uy * wy, wx * wx + wy * wy
            wv, vv = wx * vx + wy * vy, vx * vx + vy * vy
            second += (a1 * (uu + uw + ww) + a2 * (ww + wv + vv)) / 6.0
        energy += second
        centroids.append((px + mx / area, py + my / area))
    return energy, np.array(centroids), r_max


def loop_delaunay_cells(seeds, reach=1.0):
    """Voronoi cells of seeds in (0,1)^2, one seed at a time: the
    circumcenters of the certified Delaunay corners at it
    (loop_certified), sorted by angle about it, ties in triangle order."""
    points, corners, _ = loop_certified(seeds, reach)
    cells = []
    for i, seed_corners in enumerate(corners):
        centers = np.array([center for _, _, center in seed_corners])
        w = centers - points[i]
        cells.append(centers[np.argsort(np.arctan2(w[:, 1], w[:, 0]), kind="stable")])
    return cells


# -- per-cell mesh generation: the oracle of geometry's stacked path --------


def _qhull_cells(seeds, points):
    """The Voronoi cells of the seeds, the first points of the qhull
    input, one at a time and each sorted by angle about its seed; None
    for a seed whose region is unbounded."""
    vor = Voronoi(points)
    cells = []
    for i, seed in enumerate(seeds):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or len(region) < 3:
            cells.append(None)
            continue
        verts = vor.vertices[region]
        angles = np.arctan2(verts[:, 1] - seed[1], verts[:, 0] - seed[0])
        cells.append(verts[np.argsort(angles)])
    return cells


def loop_voronoi_cells(seeds, reach=1.0):
    """Voronoi cells of seeds in (0,1)^2, one cell at a time: qhull on the
    seeds mirrored across all four walls or, for reach < 1, on geometry's
    near-wall selection (_mirrored_points). A reduced diagram is taken
    only when every cell is bounded with all its vertices nearer than
    reach / 2 to its seed; otherwise the reach doubles."""
    while reach < 1.0:
        cells = _qhull_cells(seeds, _mirrored_points(seeds, reach))
        if all(v is not None and 2.0 * np.hypot(*(v - s).T).max() < reach
               for v, s in zip(cells, seeds)):
            return cells
        reach *= 2.0
    mirrors = [
        seeds * np.array([-1.0, 1.0]),
        seeds * np.array([-1.0, 1.0]) + np.array([2.0, 0.0]),
        seeds * np.array([1.0, -1.0]),
        seeds * np.array([1.0, -1.0]) + np.array([0.0, 2.0]),
    ]
    cells = _qhull_cells(seeds, np.vstack([seeds] + mirrors))
    if any(v is None for v in cells):
        raise MeshError("unbounded Voronoi region despite wall mirroring")
    return cells


def clip_halfplane(verts, normal, offset, tol=1e-14):
    """Sutherland-Hodgman clip keeping the side normal . x <= offset.

    Returns a new vertex loop (possibly empty). Consecutive duplicates
    produced by grazing cuts are removed.
    """
    n = len(verts)
    out = []
    dist = verts @ normal - offset
    for i in range(n):
        j = (i + 1) % n
        di, dj = dist[i], dist[j]
        if di <= tol:
            out.append(verts[i])
        if (di < -tol and dj > tol) or (di > tol and dj < -tol):
            t = di / (di - dj)
            out.append(verts[i] + t * (verts[j] - verts[i]))
    if not out:
        return np.zeros((0, 2))
    out = np.asarray(out)
    keep = [0]
    for i in range(1, len(out)):
        if np.max(np.abs(out[i] - out[keep[-1]])) > tol:
            keep.append(i)
    if len(keep) > 1 and np.max(np.abs(out[keep[-1]] - out[keep[0]])) <= tol:
        keep.pop()
    return out[keep]


def clip_to_box(verts):
    """Clip a polygon against the unit square, one wall at a time."""
    walls = [((-1.0, 0.0), 0.0), ((1.0, 0.0), 1.0), ((0.0, -1.0), 0.0), ((0.0, 1.0), 1.0)]
    out = verts
    for normal, offset in walls:
        out = clip_halfplane(out, np.array(normal), offset)
        if len(out) == 0:
            return out
    return out


def loop_clipped_cells(cells):
    """Every cell snapped, Sutherland-Hodgman clipped to the square and
    snapped again."""
    clipped = []
    for i, verts in enumerate(cells):
        verts = _snap_to_walls(clip_to_box(_snap_to_walls(verts)))
        if len(verts) < 3:
            raise MeshError(f"seed {i} produced an empty clipped cell")
        clipped.append(verts)
    return clipped


def loop_merge_cell_polygons(polys, tol=1e-9):
    """LoopPolyMesh of per-cell loops, shared points merged by union-find
    with the smaller root winning."""
    stacked = np.vstack(polys)
    pairs = cKDTree(stacked).query_pairs(tol, output_type="ndarray")
    parent = np.arange(len(stacked))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(i) for i in range(len(stacked))])
    unique_roots, inverse = np.unique(roots, return_inverse=True)
    cells = []
    offset = 0
    for p in polys:
        ids = inverse[offset : offset + len(p)]
        offset += len(p)
        loop = [int(ids[0])]
        for v in ids[1:]:
            if v != loop[-1]:
                loop.append(int(v))
        if loop[-1] == loop[0]:
            loop.pop()
        if len(loop) < 3:
            raise MeshError("cell degenerated to fewer than 3 vertices during merge")
        cells.append(loop)
    return LoopPolyMesh(stacked[unique_roots], cells)


class LoopPolyMesh(PolyMesh):
    """PolyMesh whose topology is built one loop position at a time with
    an edge dictionary; cell_edges is a list of (edge, direction) lists."""

    def _build_topology(self, counts):
        edge_index = {}
        edges = []
        edge_cells = []
        edge_signs = []
        self.cell_edges = []
        for ci, cell in enumerate(self.cells):
            loop = []
            n = len(cell)
            for i in range(n):
                a, b = int(cell[i]), int(cell[(i + 1) % n])
                if a == b:
                    raise MeshError(f"cell {ci} repeats vertex {a}")
                key = (min(a, b), max(a, b))
                direction = 1 if a < b else -1
                if key not in edge_index:
                    edge_index[key] = len(edges)
                    edges.append(key)
                    edge_cells.append([ci, -1])
                    edge_signs.append([direction, 0])
                else:
                    e = edge_index[key]
                    if edge_cells[e][1] != -1:
                        raise MeshError(f"edge {key} shared by more than two cells")
                    edge_cells[e][1] = ci
                    edge_signs[e][1] = direction
                loop.append((edge_index[key], direction))
            self.cell_edges.append(loop)
        self.edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        self.edge_cells = np.asarray(edge_cells, dtype=int).reshape(-1, 2)
        self._edge_signs = np.asarray(edge_signs, dtype=int).reshape(-1, 2)
        for e in range(len(self.edges)):
            if self.edge_cells[e, 1] != -1 and self._edge_signs[e, 0] == self._edge_signs[e, 1]:
                key = tuple(int(v) for v in self.edges[e])
                raise MeshError(f"edge {key} traversed twice in the same direction")
        self.boundary_edges = np.where(self.edge_cells[:, 1] == -1)[0]
        self.boundary_signs = self._edge_signs[self.boundary_edges, 0]


def loop_generate_hexa(level, distortion=0.15):
    """generate_hexa through the per-cell clip, merge, topology and LP
    audit."""
    seeds, pitch = _hexa_seeds(8 * 2 ** (level - 1))
    base = loop_merge_cell_polygons(
        loop_clipped_cells(loop_delaunay_cells(seeds, reach=4.0 / np.sqrt(len(seeds))))
    )
    if distortion <= 0.0:
        return base
    verts = base.vertices
    interior = np.ones(len(verts), dtype=bool)
    for axis in (0, 1):
        interior &= (verts[:, axis] > 1e-12) & (verts[:, axis] < 1.0 - 1e-12)
    amp = distortion * pitch
    moved = verts.copy()
    x, y = verts[interior, 0], verts[interior, 1]
    moved[interior, 0] += amp * np.sin(3.0 * np.pi * x) * np.sin(2.0 * np.pi * y + 0.7)
    moved[interior, 1] += amp * np.sin(2.0 * np.pi * x + 1.3) * np.sin(3.0 * np.pi * y)
    mesh = LoopPolyMesh(moved, base.cells)
    passed = lp_audit(mesh)[1]
    if not passed.all():
        raise MeshError(f"cell {np.argmin(passed)} fails the shape audit")
    return mesh


def chebyshev_radius(verts):
    """Radius of the largest disk inside a convex polygon: maximize r
    subject to n_i . x + r <= c_i for every edge, by HiGHS."""
    e = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([e[:, 1], -e[:, 0]])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([normals, np.ones(len(verts))]),
        b_ub=np.sum(normals * verts, axis=1),
        bounds=[(None, None), (None, None), (0, None)],
        method="highs",
    )
    assert res.success, res.message
    return float(res.x[2])


def lp_audit(mesh, gamma0=0.1, n0=16):
    """The shape audit one cell at a time by linear programming: the
    Chebyshev radius of each cell over h_K. Returns the per-cell
    (rho_ratio, passed) arrays."""
    ratio = np.zeros(mesh.num_cells)
    passed = np.zeros(mesh.num_cells, dtype=bool)
    for ci in range(mesh.num_cells):
        verts = cell_polygon(mesh, ci)
        ratio[ci] = chebyshev_radius(verts) / mesh.cell_diameters[ci]
        passed[ci] = ratio[ci] >= gamma0 and len(verts) <= n0
    return ratio, passed


def _dense_polygon_rule(verts, degree):
    """Simple fan-based product rule used only inside the oracle."""
    from scipy.special import roots_jacobi

    n = max(2, (degree + 3) // 2)
    xj, wj = roots_jacobi(n, 0.0, 1.0)
    xg, wg = roots_legendre(n)
    xi = (xj + 1.0) / 2.0
    wxi = wj / 4.0
    eta = (xg + 1.0) / 2.0
    weta = wg / 2.0
    XI, ETA = np.meshgrid(xi, eta, indexing="ij")
    W = np.outer(wxi, weta).ravel()
    XI, ETA = XI.ravel(), ETA.ravel()
    apex = verts.mean(axis=0)
    pts, wts = [], []
    nv = len(verts)
    for i in range(nv):
        b, c = verts[i], verts[(i + 1) % nv]
        area2 = (b[0] - apex[0]) * (c[1] - apex[1]) - (b[1] - apex[1]) * (c[0] - apex[0])
        p = apex[None, :] + np.outer(XI, b - apex) + np.outer(XI * ETA, c - b)
        pts.append(p)
        wts.append(W * area2)
    return np.vstack(pts), np.concatenate(wts)


# -- test-only tools over the production time stepping and solves -----


def build_slab_system(M, A0, radau, tau, rhs_blocks, carry):
    """Full block system (matrix, rhs) for one slab, from the production
    slab_matrix and slab_rhs."""
    return slab_matrix(M, A0, radau, tau), slab_rhs(M, radau, tau, rhs_blocks, carry)


def block_slab_matrix(M, a0_blocks, radau, tau):
    """The slab matrix built one (test node j, trial node i) block at a
    time and stacked with sp.bmat: the reference for the Kronecker form
    of slab_matrix."""
    q1 = len(radau.nodes)
    Dref = lagrange_derivative_matrix(radau.nodes)
    ell0 = lagrange_values(radau.nodes, 0.0)[0]
    w = radau.weights
    blocks = [[None] * q1 for _ in range(q1)]
    for j in range(q1):
        for i in range(q1):
            coeff = w[j] * Dref[i, j] + ell0[i] * ell0[j]
            block = coeff * M
            if i == j:
                block = block + tau * w[j] * a0_blocks[j]
            blocks[j][i] = block.tocsr()
    return sp.bmat(blocks, format="csr")


def _saddle_dofs(mesh, cg, k):
    """Global velocity dofs (edge dofs, then internal) and pressure dofs of
    a cell group's cells in the monolithic saddle system, in the local
    order of its flux group."""
    nc, nk = len(cg.cells), n_poly(k)
    n_e = mesh.num_edges * (k + 1)
    edge_dofs = (cg.edges[:, :, None] * (k + 1) + np.arange(k + 1)).reshape(nc, -1)
    internal = n_e + cg.cells[:, None] * (nk - 1) + np.arange(nk - 1)
    n_u = n_e + mesh.num_cells * (nk - 1)
    return np.hstack([edge_dofs, internal]), n_u + cg.cells[:, None] * nk + np.arange(nk)


def _saddle_system(mesh, problem, k, gauge):
    """The monolithic saddle system [coef A, B^T; B, 0] over all flux and
    pressure dofs, with one more row and column for a pressure-mean
    multiplier if gauge. Returns (flux blocks, their (udofs, pdofs), CSR
    matrix, load with the source moments on the pressure rows, n_u)."""
    nk = n_poly(k)
    n_u = mesh.num_edges * (k + 1) + mesh.num_cells * (nk - 1)
    n_sys = n_u + mesh.num_cells * nk + int(gauge)
    blocks = [block for group in _flux_groups(mesh, k, problem.f) for block in group]
    numbering = [_saddle_dofs(mesh, cg, k) for cg, _ in blocks]
    rows, cols, vals = [], [], []

    def add(r, c, block):
        rows.append(np.broadcast_to(r[:, :, None], block.shape).ravel())
        cols.append(np.broadcast_to(c[:, None, :], block.shape).ravel())
        vals.append(block.ravel())

    rhs = np.zeros(n_sys)
    for (_, g), (udofs, pdofs) in zip(blocks, numbering):
        add(udofs, udofs, problem.mu / problem.K_perm * g.A_unit)
        add(pdofs, udofs, g.DIVR)
        add(udofs, pdofs, np.swapaxes(g.DIVR, 1, 2))
        if gauge:
            mean_row = np.full((len(pdofs), 1), n_sys - 1)
            add(mean_row, pdofs, g.int_m[:, None, :])
            add(pdofs, mean_row, g.int_m[:, :, None])
        rhs[pdofs] = g.f_moments
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n_sys, n_sys)
    ).tocsr()
    return blocks, numbering, A, rhs, n_u


def _eliminated_solve(A, rhs, idx, values):
    """Solution of A x = rhs with x[idx] = values: the other unknowns by
    SuperLU (COLAMD, partial pivoting) and two steps of iterative
    refinement."""
    keep = np.setdiff1d(np.arange(A.shape[0]), idx)
    x = np.zeros(A.shape[0])
    x[idx] = values
    A_red, b = A[keep][:, keep].tocsc(), (rhs - A[:, idx] @ values)[keep]
    lu = splu(A_red)
    y = lu.solve(b)
    for _ in range(2):
        y += lu.solve(b - A_red @ y)
    x[keep] = y
    return x


def _saddle_fields(mesh, k, blocks, numbering, x, n_u):
    """Edge flux coefficients, cell velocity and divergence coefficients and
    pressure coefficients of a saddle solution x."""
    nk = n_poly(k)
    jw = 2.0 * np.arange(k + 1) + 1.0
    flux = x[: mesh.num_edges * (k + 1)].reshape(mesh.num_edges, k + 1) * jw
    vel = np.zeros((mesh.num_cells, 2, nk))
    div = np.zeros((mesh.num_cells, nk))
    for (cg, g), (udofs, _) in zip(blocks, numbering):
        vel[cg.cells] = (g.vel @ x[udofs][:, None, :, None])[..., 0]
        div[cg.cells] = (g.div_map @ x[udofs][:, :, None])[..., 0]
    return flux, vel, div, x[n_u:n_u + mesh.num_cells * nk].reshape(mesh.num_cells, nk)


def saddle_darcy_solve(mesh, problem, k):
    """The mixed flow system solved as one monolithic saddle system: the
    reference for the hybridized solve_darcy_mixed. Dirichlet data enters
    the velocity rows, the Neumann flux dofs are eliminated, and a
    pure-Neumann flow pins cell 0's constant pressure dof, shifts the
    pressure rows by -lam * int_K m_alpha and restores the zero pressure
    mean afterwards. The refinement steps of the solve matter: without
    them the rounding of the saddle LU alone moves the cell velocity by up
    to 1e-10 relative on rand meshes at k = 3, six times the distance of
    the refined solution to the hybridized one. Returns the edge flux
    coefficients, the cell velocity and divergence coefficients, the
    pressure coefficients and lam."""
    dirichlet = frozenset(int(e) for e in problem.dirichlet_edges)
    blocks, numbering, A, rhs, n_u = _saddle_system(mesh, problem, k, gauge=False)
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
    if not dirichlet:
        total_f = sum(float(g.f_moments[:, 0].sum()) for _, g in blocks)
        volume = sum(float(g.int_m[:, 0].sum()) for _, g in blocks)
        lam = (total_f - float(np.sum(er.weights * gvals))) / volume
        for (_, g), (_, pdofs) in zip(blocks, numbering):
            rhs[pdofs] -= lam * g.int_m
        idx, values = np.append(idx, n_u), np.append(values, 0.0)
    x = _eliminated_solve(A, rhs, idx, values)
    flux, vel, div, pres = _saddle_fields(mesh, k, blocks, numbering, x, n_u)
    if not dirichlet:
        pres[:, 0] -= sum(float(np.sum(g.int_m * pres[cg.cells])) for cg, g in blocks) / volume
    return flux, vel, div, pres, lam


def multiplier_darcy_solve(mesh, problem, k):
    """Pure-Neumann mixed flow solve with the pressure mean fixed by one
    Lagrange-multiplier row and column: the reference for the pinned,
    load-shifted gauge of solve_darcy_mixed. The Neumann flux dofs are
    eliminated, the rest solved with two steps of iterative refinement:
    with the dense multiplier row the plain LU solution's
    divergence coefficients carry up to 2.5e-12 relative rounding noise
    on hexa meshes at k = 2. Returns the edge flux coefficients, the cell
    velocity and divergence coefficients, and the zero-mean pressure
    coefficients."""
    blocks, numbering, A, rhs, n_u = _saddle_system(mesh, problem, k, gauge=True)
    bd = np.asarray(mesh.boundary_edges)
    moments, er, _ = _boundary_moments(mesh, bd, problem.g_N, k)
    idx = (bd[:, None] * (k + 1) + np.arange(k + 1)).ravel()
    values = (mesh.boundary_signs[:, None] * moments / er.length[:, None]).ravel()
    x = _eliminated_solve(A, rhs, idx, values)
    return _saddle_fields(mesh, k, blocks, numbering, x, n_u)


class WeightedInterpolant:
    """Lagrange interpolant of the node values scaled by 1/xi.

    Interpolates xi_i^{-1} v(t_i) at the mapped Radau nodes; used by the
    temporal stability analysis and its acceptance checks.
    """

    def __init__(self, node_values, radau, t_start=0.0, tau=1.0):
        self.radau = radau
        self.t_start = t_start
        self.tau = tau
        self.scaled = np.asarray(node_values, dtype=float) / radau.nodes

    def __call__(self, t):
        xi = (np.asarray(t, dtype=float) - self.t_start) / self.tau
        return lagrange_values(self.radau.nodes, xi) @ self.scaled


def l_tau(node_values, radau, t_start=0.0, tau=1.0):
    """Interpolant of tau (t - t_start)^{-1} v at the Radau nodes."""
    return WeightedInterpolant(node_values, radau, t_start, tau)


class SlabwiseProjection:
    """Degree-q polynomial per slab: L2-orthogonal residual against
    degree q-1 and exact match at each slab's right endpoint."""

    def __init__(self, callback, ends, q, quad_points=None):
        self.ends = np.asarray(ends, dtype=float)  # slab endpoints t_0 < ... < t_N
        self.q = q
        npts = quad_points if quad_points is not None else max(2 * q + 4, 8)
        self.coeffs = []  # Legendre coefficients on [-1, 1] per slab
        for t0, t1 in zip(self.ends[:-1], self.ends[1:]):
            tau = t1 - t0
            tq, wq = gauss_interval(t0, t1, npts)
            vals = np.asarray(callback(tq), dtype=float)
            x = 2.0 * (tq - t0) / tau - 1.0
            coef = np.zeros(q + 1)
            for i in range(q):
                Li = np.polynomial.legendre.legval(x, np.eye(q + 1)[i])
                coef[i] = (2 * i + 1) / tau * (wq @ (vals * Li))
            # last coefficient from the right-endpoint match (L_i(1) = 1)
            coef[q] = float(callback(np.array([t1]))[0]) - coef[:q].sum()
            self.coeffs.append(coef)

    def evaluate(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        for n, (t0, t1) in enumerate(zip(self.ends[:-1], self.ends[1:])):
            mask = (t > t0) & (t <= t1) if n > 0 else (t >= t0) & (t <= t1)
            if not np.any(mask):
                continue
            x = 2.0 * (t[mask] - t0) / (t1 - t0) - 1.0
            out[mask] = np.polynomial.legendre.legval(x, self.coeffs[n])
        return out


def pi_tau(callback, ends, q):
    """Slabwise projection of a time callback on the slabs between `ends`
    (see SlabwiseProjection)."""
    return SlabwiseProjection(callback, ends, q)


def export_matrix_market(A, path):
    """Debug export of a sparse matrix in Matrix Market format."""
    mmwrite(str(path), A.tocoo())


# -- manufactured problem isolating the temporal order ---------------------


class TemporalProblem:
    """c = sin(t) (1 + (x - 1)^2) under u = (1, 0), with f = 1 and D = 0.1.

    c is quadratic in space, so a space of degree k >= 2 reproduces it
    and every error is temporal. The operator's reaction is
    (div u + |f|) / 2 = 1/2, so the injected concentration is
    c_t + u . grad c + c / 2 - D lap c. The inflow datum on x = 0 is
    ManufacturedProblem's c - D (grad c . n) / (u . n); the normal
    derivative of c vanishes on the other three walls.
    """

    D = 0.1
    t_final = 1.0

    def velocity(self, p):
        return np.column_stack([np.ones(len(p)), np.zeros(len(p))])

    def c(self, t, p):
        return np.sin(t) * (1.0 + (p[:, 0] - 1.0) ** 2)

    def grad_c(self, t, p):
        return np.sin(t) * np.column_stack([2.0 * (p[:, 0] - 1.0), np.zeros(len(p))])

    def f(self, t, p):
        return np.ones(len(p))

    def c_tilde(self, t, p):
        g = 1.0 + (p[:, 0] - 1.0) ** 2
        return np.cos(t) * g + np.sin(t) * (2.0 * (p[:, 0] - 1.0) + 0.5 * g - 2.0 * self.D)

    def c_inflow(self, t, p, normal):
        un = np.sum(self.velocity(p) * normal, axis=1)
        gn = np.sum(self.grad_c(t, p) * normal, axis=1)
        inflow = un < -1e-12
        return np.where(inflow, self.c(t, p) - self.D * gn / np.where(inflow, un, -1.0), 0.0)

    def c0(self, p):
        return np.zeros(len(p))

    def system(self, mesh, k):
        """The TransportSystem of this problem on its analytic velocity."""
        velocity = analytic_velocity(self.velocity, mesh, k)
        return TransportSystem(mesh, k, TransportProblem(
            D=self.D, velocity=velocity, f=self.f, c_tilde=self.c_tilde,
            c_inflow=self.c_inflow, c0=self.c0))
