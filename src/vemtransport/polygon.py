"""Planar polygon primitives shared by the mesh and quadrature layers.

All polygons are (n, 2) float arrays of vertices in counter-clockwise
order unless stated otherwise. signed_area, centroid, diameter,
second_moment_about, is_convex and is_simple also take a stack (..., n, 2)
and give, loop for loop, the bits of the call on that loop alone.
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


def _scalar_if_one(value):
    return float(value) if np.ndim(value) == 0 else value


def diameter(verts):
    """Maximum vertex-vertex distance."""
    d2 = np.sum((verts[..., :, None, :] - verts[..., None, :, :]) ** 2, axis=-1)
    return _scalar_if_one(np.sqrt(d2.max(axis=(-2, -1))))


def second_moment_about(verts, point):
    """Closed-form integral of |x - point|^2 over a simple polygon."""
    point = np.asarray(point)
    x = verts[..., 0] - point[..., 0, None]
    y = verts[..., 1] - point[..., 1, None]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    ixx = np.sum((x * x + x * xn + xn * xn) * cross, axis=-1) / 12.0
    iyy = np.sum((y * y + y * yn + yn * yn) * cross, axis=-1) / 12.0
    return _scalar_if_one(ixx + iyy)


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
