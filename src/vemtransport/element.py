"""Virtual element local spaces, built a cell group at a time, and the
global scalar space.

The cells of a mesh are grouped by vertex count (PolyMesh.cell_groups)
and every group is built at once on stacked arrays: scaled monomial
bases, the H1-type and L2 projectors computed from the degrees of
freedom (vertex values, uniform edge points, internal moments),
dofi-dofi stabilizations, and the local mass, diffusion, convection and
reaction matrices. Degrees k >= 2 use the standard enhancement
convention: the missing moments of degree k-1 and k are identified with
those of the H1-projection, which makes the L2 projector computable
from the dofs.
"""

import numpy as np
import scipy.sparse as sp

from .geometry import split_stacked
from .quadrature import edge_rule, lagrange_values


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


def _power_tables(points, center, scale, k):
    """Power tables u**e, e = 0..k, of both relative coordinates
    u = (points - center)/scale: shape (2, ..., m, k + 1). Columns 0 and 1
    are 1 and u, which pow returns exactly. The columns e >= 2 are filled
    with e and raised in place by one pow call: an exponent of stride 0
    (a scalar, or the one exponent at k = 2) would make numpy compute
    u**2 as u*u, which differs from pow in the last bit.
    """
    center = np.asarray(center, dtype=float)
    scale = np.asarray(scale, dtype=float)
    rel = (np.asarray(points, dtype=float) - center[..., None, :]) / scale[..., None, None]
    u = np.moveaxis(rel, -1, 0)
    tables = np.ones(u.shape + (k + 1,))
    tables[..., 1:2] = u[..., None]
    high = tables[..., 2:]
    high[...] = np.arange(2, k + 1)
    np.power(u[..., None], high, out=high)
    return tables


def monomials(points, center, scale, k):
    """Scaled monomials ((x - center)/scale)^s, |s| <= k, at points.

    points is (..., m, 2), center (..., 2) and scale (...), one per
    leading index; returns (..., m, n_poly(k)), C-contiguous (the layout
    changes the last bit of later matmuls): each column's product is
    written into the preallocated output, with no gathered temporaries.
    """
    px, py = _power_tables(points, center, scale, k)
    phi = np.empty(px.shape[:-1] + (n_poly(k),))
    for i, (a, b) in enumerate(monomial_exponents(k).tolist()):
        np.multiply(px[..., a], py[..., b], out=phi[..., i])
    return phi


def monomial_gradients(points, center, scale, k):
    """Values and x and y derivatives of the scaled monomials from one pair
    of power tables: (phi, gx, gy), each (..., m, n_poly(k)), C-contiguous
    and its own allocation (a caller keeping phi alone frees the others);
    phi equals monomials(points, center, scale, k) bit for bit, and a
    derivative column is (a * u**(a-1)) * v**b / scale."""
    px, py = _power_tables(points, center, scale, k)
    phi, gx, gy = (np.empty(px.shape[:-1] + (n_poly(k),)) for _ in range(3))
    for i, (a, b) in enumerate(monomial_exponents(k).tolist()):
        np.multiply(px[..., a], py[..., b], out=phi[..., i])
        np.multiply(px[..., max(a - 1, 0)], a, out=gx[..., i])
        np.multiply(gx[..., i], py[..., b], out=gx[..., i])
        np.multiply(px[..., a], b, out=gy[..., i])
        np.multiply(gy[..., i], py[..., max(b - 1, 0)], out=gy[..., i])
    for g in (gx, gy):
        g /= np.asarray(scale, dtype=float)[..., None, None]
    return phi, gx, gy


def monomial_maps(k):
    """Unit-scale coefficient maps of the scaled monomials, shape (3, n, n):
    d/dx and d/dy (column i: monomial i; divide by the scale for a cell
    basis) and the Laplacian (row i; divide by the squared scale)."""
    exps = monomial_exponents(k)
    index = {tuple(e): i for i, e in enumerate(exps)}
    maps = np.zeros((3, len(exps), len(exps)))
    for i, (a, b) in enumerate(exps):
        if a > 0:
            maps[0, index[(a - 1, b)], i] = a
        if b > 0:
            maps[1, index[(a, b - 1)], i] = b
        if a >= 2:
            maps[2, i, index[(a - 2, b)]] += a * (a - 1)
        if b >= 2:
            maps[2, i, index[(a, b - 2)]] += b * (b - 1)
    return maps


def uniform_edge_params(k):
    """Parameters of the k+1 edge dofs (endpoints plus uniform interior)."""
    return np.arange(k + 1) / k if k >= 1 else np.array([0.0, 1.0])


def _t(a):
    return np.swapaxes(a, -1, -2)


def gram(a, w, b):
    """Stacked weighted Gram matrices a^T diag(w) b over the point axis:
    a (..., m, i), w (..., m), b (..., m, j) -> (..., i, j)."""
    return _t(a) @ (w[..., None] * b)


def local_trace_dofs(nv, k):
    """Local dofs along each edge of an nv-gon, (nv, k+1), in traversal
    order [start, interior..., end]."""
    i = np.arange(nv)[:, None]
    interior = nv + i * (k - 1) + np.arange(k - 1)[None, :]
    return np.hstack([i, interior, (i + 1) % nv])


class ElementGroup:
    """Projectors, stabilizations and local matrices of a cell group.

    Every array has the cell as its leading axis. group is a
    geometry.CellGroup, k the polynomial degree (k >= 1). The group keeps
    the monomial values at two rules: the data rule (degree 2k+2, for the
    data terms) and the convection rule (degree 3k).
    """

    def __init__(self, group, k):
        if k < 1:
            raise ValueError("degree k must be >= 1")
        self.k = k
        self.nv = nv = group.verts.shape[1]
        self.area = area = group.area
        self.centroid = c = group.centroid
        self.diameter = h = group.diameter
        self.n_poly = npol = n_poly(k)
        self.n_moments = nm = n_poly(k - 2)
        self.n_dofs = ndof = nv * k + nm
        trace_dofs = local_trace_dofs(nv, k)
        nc = len(area)

        starts = group.verts
        ends = np.roll(starts, -1, axis=1)
        tang = ends - starts
        lengths = np.hypot(tang[..., 0], tang[..., 1])
        normals = np.stack([tang[..., 1], -tang[..., 0]], axis=-1) / lengths[..., None]
        perimeter = lengths.sum(axis=1)
        params = uniform_edge_params(k)
        inner = starts[:, :, None, :] + params[1:-1, None] * tang[:, :, None, :]
        self.dof_points = np.concatenate([starts, inner.reshape(nc, -1, 2)], axis=1)

        # rules with the same point count (degree + 2) // 2 are built once
        # (e.g. 2k and 3k at k = 1); the stiffness rule, of degree 2k, comes
        # first and alone needs the gradients
        points, w = group.rule(2 * k)
        phi, gx, gy = monomial_gradients(points, c, h, k)
        rules = {k + 1: (points, w, phi)}

        def rule(degree):
            n = (degree + 2) // 2
            if n not in rules:
                points, weights = group.rule(degree)
                rules[n] = (points, weights, monomials(points, c, h, k))
            return rules[n]

        self.H = H = gram(phi, w, phi)
        self.G_stiff = gram(gx, w, gx) + gram(gy, w, gy)
        self.data_points, self.data_weights, self.data_phi = rule(2 * k + 2)
        _, self.conv_weights, self.conv_phi = rule(3 * k)

        # dof matrix: dofs of each monomial
        D = np.zeros((nc, ndof, npol))
        D[:, : nv * k] = monomials(self.dof_points, c, h, k)
        D[:, nv * k :] = H[:, :nm, :] / area[:, None, None]

        # edge integrals of the monomials (and their normal derivatives)
        # against the trace basis
        er = edge_rule(starts, ends, 2 * k)
        trace = lagrange_values(params, er.params)
        cv, hv = c[:, None], h[:, None]
        phi_e, egx, egy = monomial_gradients(er.points, cv, hv, k)
        gn = egx * normals[..., 0, None, None] + egy * normals[..., 1, None, None]
        weighted_trace = er.weights[..., None] * trace
        flux = _t(gn) @ weighted_trace
        moments = _t(phi_e) @ weighted_trace

        # H1-type projector: gradient matching plus boundary-mean constraint
        B = np.zeros((nc, npol, ndof))
        p0_row = np.zeros((nc, ndof))
        g0_row = np.zeros((nc, npol))
        for i in range(nv):
            B[:, :, trace_dofs[i]] += flux[:, i]
            p0_row[:, trace_dofs[i]] += er.weights[:, i] @ trace
            g0_row += (er.weights[:, i, None, :] @ phi_e[:, i])[:, 0]
        maps = monomial_maps(k)
        B[:, :, nv * k :] -= area[:, None, None] * (maps[2, :, :nm] / h[:, None, None] ** 2)
        G = self.G_stiff.copy()
        G[:, 0, :] = g0_row / perimeter[:, None]
        B[:, 0, :] = p0_row / perimeter[:, None]
        self.D = D
        self.pin_coef = np.linalg.solve(G, B)
        self.pin_dof = D @ self.pin_coef

        # L2 projector: stored moments up to k-2, higher moments from the
        # H1 projection (enhancement convention). It is solved as a
        # correction of pin_coef: C - H pin_coef vanishes from row nm on, so
        # the solve with H (condition number above 1e8 on sliver cells at
        # k = 3) does not undo the rounding of the product H pin_coef
        Hpin = H @ self.pin_coef
        C = np.zeros((nc, npol, ndof))
        C[:, :nm, nv * k :] = area[:, None, None] * np.eye(nm)
        C[:, nm:, :] = Hpin[:, nm:, :]
        self.pi0_coef = self.pin_coef + np.linalg.solve(H, C - Hpin)
        self.pi0_dof = D @ self.pi0_coef

        # componentwise L2 projection of the gradient at degree k, (2, nc, npol, ndof)
        pg = []
        for dim in range(2):
            E = np.zeros((nc, npol, ndof))
            for i in range(nv):
                E[:, :, trace_dofs[i]] += moments[:, i] * normals[:, i, dim, None, None]
            E -= _t(maps[dim] / h[:, None, None]) @ C
            pg.append(np.linalg.solve(H, E))
        self.pg_coef = np.stack(pg)

        rest = np.eye(ndof) - self.pi0_dof
        mass = _t(self.pi0_coef) @ H @ self.pi0_coef + (area[:, None, None] * _t(rest)) @ rest
        self.mass = 0.5 * (mass + _t(mass))
        rest = np.eye(ndof) - self.pin_dof
        stiff = _t(self.pin_coef) @ self.G_stiff @ self.pin_coef + _t(rest) @ rest
        self.stiff_unit = 0.5 * (stiff + _t(stiff))

    def convection(self, u_coef):
        """Convection pairings for per-cell polynomial velocities.

        u_coef is (nc, 2, n_poly): monomial coefficients of the projected
        velocity. Entry (i, j) integrates (u . grad phi_j, phi_i) with
        the projected gradient (degree k) and values.
        """
        phi = self.conv_phi
        u = phi @ _t(u_coef)
        adv = u[..., 0:1] * (phi @ self.pg_coef[0]) + u[..., 1:2] * (phi @ self.pg_coef[1])
        return gram(phi @ self.pi0_coef, self.conv_weights, adv)

    def data_gram(self, values):
        """Gram matrices of Pi0 of the basis weighted by values (nc, m) at
        the data-rule points."""
        v0 = self.data_phi @ self.pi0_coef
        return gram(v0, self.data_weights * values, v0)


class VemSpace:
    """Global conforming space of degree k on a PolyMesh.

    Dof layout: vertex values, then k-1 interior values per edge (ordered
    along the canonical min->max vertex direction), then the internal
    moments cell by cell. The local spaces are ElementGroups, one per
    cell group of the mesh (mesh.cell_groups); per-cell rows of stacked
    arrays (data points, coefficient rows) run group by group.
    """

    def __init__(self, mesh, k):
        if k < 1:
            raise ValueError("degree k must be >= 1")
        self.mesh = mesh
        self.k = k
        self.n_moments = nm = n_poly(k - 2)
        nv, ne, nc = mesh.num_vertices, mesh.num_edges, mesh.num_cells
        self.n_dofs = nv + ne * (k - 1) + nc * nm
        self.groups = [ElementGroup(cg, k) for cg in mesh.cell_groups]
        # global dofs of every group, (n, n_dofs) in the local order
        self.group_dofs = []
        j = np.arange(k - 1)
        for cg in mesh.cell_groups:
            forward = cg.directions[:, :, None] == 1
            edge = nv + cg.edges[:, :, None] * (k - 1) + np.where(forward, j, k - 2 - j)
            moment = nv + ne * (k - 1) + cg.cells[:, None] * nm + np.arange(nm)
            self.group_dofs.append(
                np.hstack([cg.vertex_ids, edge.reshape(len(cg.cells), -1), moment])
            )

        # nodal dof points: vertices, then edge interiors in canonical order
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        t = uniform_edge_params(k)[1:-1]
        inner = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        self.dof_points = np.vstack([mesh.vertices, inner.reshape(-1, 2)])

        # the data rules of all cells stacked, with the monomial values
        # there; data terms evaluate their callbacks once on these points,
        # which are read-only so that problem data can cache fields on them
        groups = self.groups
        self.data_points = np.concatenate([g.data_points.reshape(-1, 2) for g in groups])
        self.data_points.flags.writeable = False
        self.data_weights = np.concatenate([g.data_weights.ravel() for g in groups])
        self.data_phi = np.concatenate([g.data_phi.reshape(-1, g.n_poly) for g in groups])
        per_cell = np.concatenate([np.full(len(g.area), g.data_weights.shape[1]) for g in groups])
        self.data_offsets = np.concatenate([[0], np.cumsum(per_cell)])

    @property
    def num_vertex_dofs(self):
        return self.mesh.num_vertices

    def trace_dofs(self, edges):
        """Global dofs of the traces on the given edges, (n, k+1), each
        row in canonical min->max order."""
        ends = self.mesh.edges[edges]
        inner = self.mesh.num_vertices + edges[:, None] * (self.k - 1) + np.arange(self.k - 1)
        return np.hstack([ends[:, :1], inner, ends[:, 1:]])

    def cell_operator(self, blocks):
        """Sparse map from global dofs to per-cell coefficient rows.

        blocks[g] is (n, rows, n_dofs) and acts on the dofs of the cells
        of group g; the rows of all cells are stacked group by group.
        Built directly in CSR form, without COO index temporaries.
        """
        indices = np.concatenate([
            np.repeat(d[:, None, :], b.shape[1], axis=1).ravel()
            for d, b in zip(self.group_dofs, blocks)
        ])
        row_len = np.concatenate([np.full(b.shape[0] * b.shape[1], b.shape[2]) for b in blocks])
        indptr = np.concatenate([[0], np.cumsum(row_len)])
        data = np.concatenate([np.ravel(b) for b in blocks])
        return sp.csr_matrix((data, indices, indptr), shape=(len(row_len), self.n_dofs))

    def assemble(self, blocks):
        """Global matrix from local ones: blocks[g] is (n, n_dofs, n_dofs)
        for the cells of group g; one COO -> CSR build."""
        pairs = list(zip(self.group_dofs, blocks))
        rows = np.concatenate([np.broadcast_to(d[:, :, None], b.shape).ravel() for d, b in pairs])
        cols = np.concatenate([np.broadcast_to(d[:, None, :], b.shape).ravel() for d, b in pairs])
        data = np.concatenate([b.ravel() for b in blocks])
        return sp.coo_matrix((data, (rows, cols)), shape=(self.n_dofs, self.n_dofs)).tocsr()

    def cell_moments(self, values):
        """Integrals of point values against each cell's monomials.

        values are given at data_points; returns shape (num_cells, n_poly),
        rows group by group.
        """
        weighted = self.data_phi * (self.data_weights * values)[:, None]
        return np.add.reduceat(weighted, self.data_offsets[:-1], axis=0)

    def load_operator(self, weights):
        """Sparse map (CSR) from values at data_points to the global load:
        the integrals of weights * values against Pi0 of every basis
        function. Points of zero weight get no entries."""
        groups = self.groups
        parts = split_stacked(self.data_weights * weights, [g.data_weights.shape for g in groups])
        blocks = [(g.data_phi * w[..., None]) @ g.pi0_coef for g, w in zip(groups, parts)]
        load = self.cell_operator(blocks).T.tocsr()
        load.eliminate_zeros()
        return load

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
            area = np.concatenate([g.area for g in self.groups])
            out[np.vstack([d[:, -self.n_moments :] for d in self.group_dofs])] = mom / area[:, None]
        return out
