"""Numerical integration on polygons, edges, and time slabs.

Polygon rules fan-triangulate the convex cell around its centroid and
apply a collapsed Gauss-Jacobi x Gauss-Legendre product per triangle, so
weights stay positive and points interior. The temporal rule is the right
Gauss-Radau family on (0, 1] with the endpoint node pinned at 1.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_jacobi, roots_jacobi, roots_legendre

from . import polygon


class QuadratureError(ValueError):
    """Raised for degenerate geometry or a rule failing its exactness check."""


@dataclass(frozen=True)
class PolygonRule:
    """Positive-weight rule integrating polynomials on one polygonal cell."""

    points: np.ndarray
    weights: np.ndarray
    exact_degree: int


@dataclass(frozen=True)
class EdgeRule:
    """Gauss-Legendre rule mapped to a straight edge.

    ``params`` are the quadrature abscissae in (0, 1) along p0 -> p1.
    """

    points: np.ndarray
    weights: np.ndarray
    params: np.ndarray
    length: float


@dataclass(frozen=True)
class RadauRule:
    """Right Gauss-Radau rule on (0, 1]: q+1 nodes, exact to degree 2q."""

    q: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def _reference_triangle_rule(degree):
    """Collapsed product rule on the reference map (xi, eta) in [0,1]^2."""
    n = max(1, (degree + 2) // 2)
    xj, wj = roots_jacobi(n, 0.0, 1.0)
    xg, wg = roots_legendre(n)
    xi = (xj + 1.0) / 2.0
    wxi = wj / 4.0
    eta = (xg + 1.0) / 2.0
    weta = wg / 2.0
    XI, ETA = np.meshgrid(xi, eta, indexing="ij")
    W = np.outer(wxi, weta)
    return XI.ravel(), ETA.ravel(), W.ravel()


@lru_cache(maxsize=64)
def _gauss_01(npts):
    """Gauss-Legendre nodes/weights on (0, 1), cached and read-only
    (EdgeRule.params shares the node array)."""
    x, w = roots_legendre(npts)
    t, w = (x + 1.0) / 2.0, w / 2.0
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def gauss_interval(a, b, npts):
    """Plain Gauss-Legendre nodes/weights on the interval (a, b)."""
    t, w = _gauss_01(npts)
    return a + (b - a) * t, (b - a) * w


def edge_rule(p0, p1, degree):
    """Gauss-Legendre rule on the segment p0 -> p1, exact to `degree`.

    p0 and p1 are points (2,) or stacks of them (..., 2); a stack gives
    points (..., n, 2), weights (..., n) and lengths (...), one rule per
    segment, with the params shared. Raises QuadratureError for a
    zero-length edge.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    length = np.hypot(d[..., 0], d[..., 1])
    if np.any(length <= 0.0):
        raise QuadratureError("zero-length edge")
    n = max(1, (degree + 2) // 2)
    t, w = _gauss_01(n)
    points = p0[..., None, :] + t[:, None] * d[..., None, :]
    weights = w * length[..., None]
    return EdgeRule(points, weights, t, float(length) if length.ndim == 0 else length)


def fan_rule(verts, apex, degree):
    """Polygon rules of a stack of cells with the same vertex count.

    verts (nc, nv, 2) are counter-clockwise loops and apex (nc, 2) the
    points they are fanned around; returns points (nc, nv * m, 2) and
    weights (nc, nv * m), the collapsed product rule on every fan
    triangle, exact for total degree `degree`. Raises QuadratureError
    when an apex does not see its whole cell (a fan triangle of
    non-positive area).
    """
    if degree < 0:
        raise QuadratureError("degree must be >= 0")
    xi, eta, w_ref = _reference_triangle_rule(degree)
    a = apex[:, None, :]
    b = verts
    c = np.roll(verts, -1, axis=1)
    area2 = (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (
        c[..., 0] - a[..., 0]
    )
    if np.any(area2 <= 0.0):
        raise QuadratureError("fan triangle with non-positive area")
    points = (
        a[:, :, None, :]
        + xi[:, None] * (b - a)[:, :, None, :]
        + (xi * eta)[:, None] * (c - b)[:, :, None, :]
    )
    nc = len(verts)
    return points.reshape(nc, -1, 2), (w_ref * area2[..., None]).reshape(nc, -1)


def polygon_rule(verts, degree):
    """Quadrature on a convex polygon, exact for total degree `degree`.

    The cell is fanned into triangles around its centroid; a cell the
    centroid does not see raises QuadratureError (see fan_rule).
    """
    verts = np.asarray(verts, dtype=float)
    points, weights = fan_rule(verts[None], polygon.centroid(verts)[None], degree)
    return PolygonRule(points=points[0], weights=weights[0], exact_degree=degree)


def _radau_interior_nodes(q, tol=1e-14, maxit=60):
    """Interior right-Radau nodes on (0, 1): roots of the Jacobi(1,0) polynomial."""
    s, _ = roots_jacobi(q, 1.0, 0.0)
    for _ in range(maxit):
        f = eval_jacobi(q, 1.0, 0.0, s)
        df = 0.5 * (q + 2) * eval_jacobi(q - 1, 2.0, 1.0, s)
        step = f / df
        s = s - step
        if np.max(np.abs(step)) < tol:
            break
    return (s + 1.0) / 2.0


def gauss_radau(q):
    """Right Gauss-Radau rule with q+1 nodes on (0, 1].

    Nodes are Newton-polished roots of the degree-q Jacobi-type Radau
    polynomial plus the fixed endpoint 1; weights solve the moment
    equations. Construction fails if the rule misses exactness through
    degree 2q by more than 1e-12.
    """
    if not 0 <= q <= 10:
        raise QuadratureError("q must be in [0, 10]")
    if q == 0:
        return RadauRule(q=0, nodes=np.array([1.0]), weights=np.array([1.0]))
    nodes = np.append(_radau_interior_nodes(q), 1.0)
    vander = np.vander(nodes, increasing=True).T
    moments = 1.0 / (1.0 + np.arange(q + 1))
    weights = np.linalg.solve(vander, moments)
    for j in range(2 * q + 1):
        err = abs(weights @ nodes**j - 1.0 / (j + 1))
        if err > 1e-12:
            raise QuadratureError(f"Radau rule q={q} misses moment {j} by {err:.2e}")
    if np.any(weights <= 0.0):
        raise QuadratureError(f"Radau rule q={q} produced non-positive weights")
    return RadauRule(q=q, nodes=nodes, weights=weights)


def map_radau(rule, t_start, t_end):
    """Affine image of a Radau rule on the slab (t_start, t_end].

    The last node equals t_end exactly.
    """
    if not t_end > t_start:
        raise QuadratureError("slab must satisfy t_end > t_start")
    tau = t_end - t_start
    nodes = t_start + tau * rule.nodes
    nodes[-1] = t_end
    return nodes, tau * rule.weights


def lagrange_values(nodes, t):
    """Lagrange basis on `nodes` evaluated at scalar or array t, shape (nt, nn);
    used for edge traces and for slab polynomials in time."""
    nodes = np.asarray(nodes, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.ones((len(t), len(nodes)))
    for a in range(len(nodes)):
        for b in range(len(nodes)):
            if a != b:
                out[:, a] *= (t - nodes[b]) / (nodes[a] - nodes[b])
    return out
