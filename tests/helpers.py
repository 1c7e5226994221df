"""Independent oracles shared by the test modules.

Everything here deliberately avoids the production code paths it is used
to check: polygon integrals go through the divergence theorem, time
steps through a classical Runge-Kutta formulation, and local norms
through a P1 finite element solve of the space-defining PDE on a fine
triangulation.
"""

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_legendre

from vemtransport.element import MonomialBasis, uniform_edge_params
from vemtransport.quadrature import lagrange_values


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
