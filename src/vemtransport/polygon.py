"""Planar polygon primitives shared by the mesh and quadrature layers.

All polygons are (n, 2) float arrays of vertices in counter-clockwise
order unless stated otherwise. Every function also takes a stack
(..., n, 2) and gives, loop for loop, the bits of the call on that loop
alone. Cutting cells to the unit square is geometry's work: the wall
mirror already bounds them, so it only drops vertices.
"""

import numpy as np


def signed_area(verts):
    """Shoelace signed area; positive for counter-clockwise loops."""
    x = verts[..., 0]
    y = verts[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def centroid(verts):
    """Area centroid of a simple polygon."""
    x = verts[..., 0]
    y = verts[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * a)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * a)
    return np.stack([cx, cy], axis=-1)


def diameter(verts):
    """Maximum vertex-vertex distance."""
    d2 = np.sum((verts[..., :, None, :] - verts[..., None, :, :]) ** 2, axis=-1)
    d = np.sqrt(d2.max(axis=(-2, -1)))
    return float(d) if d.ndim == 0 else d


def is_convex(verts, tol=1e-12):
    """True if every corner turns left (within tol relative to scale); a
    stack of loops (..., n, 2) gives one answer per loop."""
    e = np.roll(verts, -1, axis=-2) - verts
    nxt = np.roll(e, -1, axis=-2)
    cross = e[..., 0] * nxt[..., 1] - e[..., 1] * nxt[..., 0]
    scale = np.max(np.abs(e), axis=(-2, -1)) ** 2
    convex = np.all(cross >= -tol * scale[..., None], axis=-1)
    return bool(convex) if convex.ndim == 0 else convex


def is_simple(verts, tol=1e-14):
    """Brute-force check that no two non-adjacent edges intersect; a stack
    of loops (..., n, 2) gives one answer per loop."""
    n = verts.shape[-2]
    i, j = np.triu_indices(n, 2)
    keep = j - i < n - 1  # (0, n-1) are adjacent through the wrap-around
    i, j = i[keep], j[keep]
    e = np.roll(verts, -1, axis=-2) - verts
    d, r, s = verts[..., j, :] - verts[..., i, :], e[..., i, :], e[..., j, :]
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    parallel = np.abs(denom) < tol
    denom = np.where(parallel, 1.0, denom)
    t = (d[..., 0] * s[..., 1] - d[..., 1] * s[..., 0]) / denom
    u = (d[..., 0] * r[..., 1] - d[..., 1] * r[..., 0]) / denom
    crossing = ~parallel & (tol < t) & (t < 1 - tol) & (tol < u) & (u < 1 - tol)
    simple = ~np.any(crossing, axis=-1)
    return bool(simple) if simple.ndim == 0 else simple
