"""Per-element virtual element machinery and the global scalar space.

Each polygonal cell carries a scaled monomial basis, the H1-type and L2
projectors computed from the degrees of freedom (vertex values, uniform
edge points, internal moments), dofi-dofi stabilizations, and factories
for the local mass, diffusion, convection, reaction, and boundary-edge
matrices. Degrees k >= 2 use the standard enhancement convention: the
missing moments of degree k-1 and k are identified with those of the
H1-projection, which makes the L2 projector computable from the dofs.
"""

import numpy as np
import scipy.sparse as sp

from .quadrature import edge_rule, lagrange_values, polygon_rule
from . import polygon as polyops


def monomial_exponents(k):
    """Exponent pairs of the scaled monomials up to total degree k."""
    exps = []
    for d in range(k + 1):
        for a in range(d, -1, -1):
            exps.append((a, d - a))
    return np.asarray(exps, dtype=int).reshape(-1, 2)


def n_poly(k):
    """Dimension of the bivariate polynomial space of degree k."""
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


class MonomialBasis:
    """Scaled monomials ((x - x_K)/h_K)^s, |s| <= k, on one cell."""

    def __init__(self, k, center, scale):
        self.k = k
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.exps = monomial_exponents(k)
        self.size = len(self.exps)
        self._index = {tuple(e): i for i, e in enumerate(self.exps)}

    def evaluate(self, points):
        """Values at points, shape (npts, size)."""
        rel = (np.atleast_2d(points) - self.center) / self.scale
        return rel[:, 0][:, None] ** self.exps[:, 0] * rel[:, 1][:, None] ** self.exps[:, 1]

    def gradients(self, points):
        """Gradient values, shapes ((npts, size), (npts, size))."""
        rel = (np.atleast_2d(points) - self.center) / self.scale
        a = self.exps[:, 0]
        b = self.exps[:, 1]
        with np.errstate(invalid="ignore"):
            gx = a * rel[:, 0][:, None] ** np.maximum(a - 1, 0) * rel[:, 1][:, None] ** b
            gy = b * rel[:, 0][:, None] ** a * rel[:, 1][:, None] ** np.maximum(b - 1, 0)
        return gx / self.scale, gy / self.scale

    def index(self, a, b):
        return self._index[(a, b)]

    def derivative_map(self, dim):
        """Matrix mapping coefficients of p to coefficients of dp/dx_dim."""
        mat = np.zeros((self.size, self.size))
        for i, (a, b) in enumerate(self.exps):
            if dim == 0 and a > 0:
                mat[self.index(a - 1, b), i] = a / self.scale
            if dim == 1 and b > 0:
                mat[self.index(a, b - 1), i] = b / self.scale
        return mat

    def laplacian_coeffs(self, i):
        """Monomial coefficients of the Laplacian of basis member i."""
        a, b = self.exps[i]
        out = np.zeros(self.size)
        if a >= 2:
            out[self.index(a - 2, b)] += a * (a - 1) / self.scale**2
        if b >= 2:
            out[self.index(a, b - 2)] += b * (b - 1) / self.scale**2
        return out


def uniform_edge_params(k):
    """Parameters of the k+1 edge dofs (endpoints plus uniform interior)."""
    return np.arange(k + 1) / k if k >= 1 else np.array([0.0, 1.0])


class VemElement:
    """Projectors, stabilizations, and local matrices for one cell.

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
        self.pi0_coef = np.linalg.solve(self.H, C)
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

    # -- local operators ----------------------------------------------

    def mass_matrix(self):
        return self.mass

    def stiffness_matrix(self, diffusion):
        """Diffusion bilinear form with scalar coefficient."""
        return diffusion * self.stiff_unit

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

    def reaction_matrix(self, f_callback):
        """Reaction form weighted by |f| at the quadrature points."""
        return self.data_gram(np.abs(np.asarray(f_callback(self.rule_data.points), dtype=float)))

    def data_gram(self, values):
        """Gram matrix of Pi0 of the basis weighted by values at the data-rule points."""
        v0 = self._phi_data @ self.pi0_coef
        return v0.T @ ((self.rule_data.weights * values)[:, None] * v0)

    def load_vector(self, values):
        """Integrate values (given at the data-rule points) against Pi0 of the basis."""
        v0 = self._phi_data @ self.pi0_coef
        return v0.T @ (self.rule_data.weights * values)

    @property
    def data_points(self):
        """Quadrature points used for data-dependent terms."""
        return self.rule_data.points

    def interpolate(self, g):
        """Dof vector of a scalar callback: point values plus moments."""
        dofs = np.zeros(self.n_dofs)
        dofs[: len(self.dof_points)] = np.asarray(g(self.dof_points), dtype=float)
        if self.n_moments:
            vals = np.asarray(g(self.rule_data.points), dtype=float)
            mom = self._phi_data[:, : self.n_moments].T @ (self.rule_data.weights * vals)
            dofs[self.nv * self.k :] = mom / self.area
        return dofs

    def project_h1_values(self, dofs, points):
        """Values of the H1-type projection of a dof vector at points."""
        return self.basis.evaluate(points) @ (self.pin_coef @ dofs)

    def project_l2_values(self, dofs, points):
        """Values of the L2 projection of a dof vector at points."""
        return self.basis.evaluate(points) @ (self.pi0_coef @ dofs)

    def project_h1_gradient(self, dofs, points):
        """Gradient of the H1-type projection at points, shape (npts, 2)."""
        gx, gy = self.basis.gradients(points)
        coef = self.pin_coef @ dofs
        return np.column_stack([gx @ coef, gy @ coef])


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


class VemSpace:
    """Global conforming space of degree k on a PolyMesh.

    Dof layout: vertex values, then k-1 interior values per edge (ordered
    along the canonical min->max vertex direction), then the internal
    moments cell by cell.
    """

    def __init__(self, mesh, k):
        if k < 1:
            raise ValueError("degree k must be >= 1")
        self.mesh = mesh
        self.k = k
        self.n_moments = n_poly(k - 2)
        self.elements = [VemElement(mesh.cell_polygon(ci), k) for ci in range(mesh.num_cells)]
        nv, ne, nc = mesh.num_vertices, mesh.num_edges, mesh.num_cells
        self.n_dofs = nv + ne * (k - 1) + nc * self.n_moments
        self.cell_dofs = []
        for ci in range(nc):
            cell = mesh.cells[ci]
            ids = list(int(v) for v in cell)
            for e, direction in mesh.cell_edges[ci]:
                base = nv + e * (k - 1)
                if direction == 1:
                    ids += [base + j for j in range(k - 1)]
                else:
                    ids += [base + (k - 2 - j) for j in range(k - 1)]
            base = nv + ne * (k - 1) + ci * self.n_moments
            ids += [base + j for j in range(self.n_moments)]
            self.cell_dofs.append(np.asarray(ids, dtype=int))

        # nodal dof points: vertices, then edge interiors in canonical order
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        t = uniform_edge_params(k)[1:-1]
        inner = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        self.dof_points = np.vstack([mesh.vertices, inner.reshape(-1, 2)])

        # the data rules of all cells stacked, with the monomial values
        # there; data terms evaluate their callbacks once on these points
        rules = [el.rule_data for el in self.elements]
        self.data_offsets = np.cumsum([0] + [len(r.weights) for r in rules])
        self.data_points = np.vstack([r.points for r in rules])
        self.data_weights = np.concatenate([r.weights for r in rules])
        self.data_cells = np.repeat(np.arange(nc), np.diff(self.data_offsets))
        self.data_phi = np.vstack([el._phi_data for el in self.elements])
        self.pi0_operator = self.cell_operator([el.pi0_coef for el in self.elements])

    @property
    def num_vertex_dofs(self):
        return self.mesh.num_vertices

    def edge_trace_dofs(self, e):
        """Global dofs of the trace on edge e, canonical min->max order."""
        k = self.k
        nv = self.mesh.num_vertices
        ids = [int(self.mesh.edges[e, 0])]
        ids += [nv + e * (k - 1) + j for j in range(k - 1)]
        ids.append(int(self.mesh.edges[e, 1]))
        return np.asarray(ids, dtype=int)

    def cell_operator(self, blocks):
        """Sparse map from global dofs to per-cell coefficient rows.

        blocks[c] acts on the dofs of cell c; the rows of all cells are
        stacked in cell order. Built directly in CSR form from the
        per-cell row lengths, without COO index temporaries.
        """
        nrows = [len(b) for b in blocks]
        row_len = np.repeat([len(d) for d in self.cell_dofs], nrows)
        indptr = np.concatenate([[0], np.cumsum(row_len)])
        indices = np.concatenate([np.tile(d, n) for d, n in zip(self.cell_dofs, nrows)])
        data = np.concatenate([np.ravel(b) for b in blocks])
        return sp.csr_matrix((data, indices, indptr), shape=(sum(nrows), self.n_dofs))

    def cell_moments(self, values):
        """Integrals of point values against each cell's monomials.

        values are given at data_points; returns shape (num_cells, n_poly).
        """
        weighted = self.data_phi * (self.data_weights * values)[:, None]
        return np.add.reduceat(weighted, self.data_offsets[:-1], axis=0)

    def cell_values(self, coef, table=None):
        """Values at data_points of per-cell polynomials.

        coef holds monomial coefficients, shape (num_cells, n_poly), or
        flattened; table replaces the monomial values (e.g. by their
        derivatives).
        """
        coef = np.reshape(coef, (self.mesh.num_cells, -1))[self.data_cells]
        return np.einsum("pm,pm->p", self.data_phi if table is None else table, coef)

    def load(self, values):
        """Global vector of the integrals of values (given at data_points)
        against Pi0 of every basis function."""
        return self.pi0_operator.T @ self.cell_moments(values).ravel()

    def interpolate(self, g):
        """Global dof vector interpolating a callback g(points) -> values.

        g is called once, on the nodal dof points followed (for k >= 2) by
        the data points that give the internal moments.
        """
        out = np.zeros(self.n_dofs)
        nb = len(self.dof_points)
        pts = np.vstack([self.dof_points, self.data_points]) if self.n_moments else self.dof_points
        vals = np.asarray(g(pts), dtype=float)
        out[:nb] = vals[:nb]
        if self.n_moments:
            mom = self.cell_moments(vals[nb:])[:, : self.n_moments]
            out[nb:] = (mom / self.mesh.cell_areas[:, None]).ravel()
        return out

    def dof_map_to(self, other, perm):
        """Dof transfer to a space on the same vertices with permuted cells.

        `other` must be built on self.mesh.permuted(perm). Returns an index
        array m with u_other = u_self[m].
        """
        k = self.k
        nv = self.mesh.num_vertices
        ne = self.mesh.num_edges
        m = np.zeros(other.n_dofs, dtype=int)
        m[:nv] = np.arange(nv)
        old_edge = {tuple(self.mesh.edges[e]): e for e in range(ne)}
        for e_new in range(other.mesh.num_edges):
            e_old = old_edge[tuple(other.mesh.edges[e_new])]
            for j in range(k - 1):
                m[nv + e_new * (k - 1) + j] = nv + e_old * (k - 1) + j
        base_old = nv + ne * (k - 1)
        base_new = nv + other.mesh.num_edges * (k - 1)
        for ci_new, ci_old in enumerate(perm):
            for j in range(self.n_moments):
                m[base_new + ci_new * self.n_moments + j] = (
                    base_old + ci_old * self.n_moments + j
                )
        return m
