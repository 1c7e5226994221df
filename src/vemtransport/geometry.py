"""Polygonal meshes of the unit square and their regularity audits.

Provides the half-edge style PolyMesh container, four mesh generators
(structured quads, distorted hexagons, Lloyd-optimized and random
Voronoi), and a shape-regularity audit. Cells are convex and stored
counter-clockwise; outward normals are edge tangents rotated by -90
degrees.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from . import polygon
from .quadrature import fan_rule


class MeshError(ValueError):
    """Raised for invalid generator arguments or broken mesh topology."""


class PolyMesh:
    """Planar polygonal tessellation with edge adjacency.

    Parameters
    ----------
    vertices : (nv, 2) array
        Vertex coordinates.
    cells : sequence of int arrays
        Counter-clockwise vertex index loops, one per cell; each cell
        must be a simple convex polygon of positive area.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float).copy()
        counts = np.array([len(c) for c in cells], dtype=int)
        self._loop_vertices = np.concatenate(cells).astype(int)
        self._loop_groups = _length_groups(counts)
        self.cells = np.split(self._loop_vertices, np.cumsum(counts)[:-1])
        self._build_topology(counts)
        self._build_geometry()

    def _build_topology(self, counts):
        """Number the edges by first occurrence along the cell loops, in
        cell order; a direction is +1 where a loop runs min -> max."""
        a = self._loop_vertices
        b = a[_next_in_loop(counts)]
        n = len(a)
        owner = np.repeat(np.arange(len(counts)), counts)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * (a.max() + 1) + hi
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        edge = rank[inverse]
        direction = np.where(a < b, 1, -1)
        # occurrence 0, 1, 2, ... of each position's edge, in loop order
        by_edge = np.argsort(edge, kind="stable")
        count = np.bincount(edge)
        occurrence = np.empty(n, dtype=int)
        occurrence[by_edge] = np.arange(n) - np.repeat(np.cumsum(count) - count, count)

        repeat = np.flatnonzero(a == b)
        third = np.flatnonzero(occurrence > 1)
        if len(repeat) and (not len(third) or repeat[0] < third[0]):
            p = repeat[0]
            raise MeshError(f"cell {owner[p]} repeats vertex {a[p]}")
        if len(third):
            p = third[0]
            raise MeshError(f"edge {(int(lo[p]), int(hi[p]))} shared by more than two cells")

        firsts = np.sort(first)
        self.edges = np.column_stack([lo[firsts], hi[firsts]])
        self.edge_cells = np.full((len(firsts), 2), -1)
        self.edge_cells[edge, occurrence] = owner
        self._edge_signs = np.zeros((len(firsts), 2), dtype=int)
        self._edge_signs[edge, occurrence] = direction
        twice = np.flatnonzero(
            (self.edge_cells[:, 1] != -1) & (self._edge_signs[:, 0] == self._edge_signs[:, 1])
        )
        if len(twice):
            e = twice[0]
            raise MeshError(
                f"edge {(int(self.edges[e, 0]), int(self.edges[e, 1]))} "
                "traversed twice in the same direction"
            )
        self._loop_edges = np.column_stack([edge, direction])
        self.boundary_edges = np.where(self.edge_cells[:, 1] == -1)[0]
        # outward normal = sign * canonical normal on each boundary edge
        self.boundary_signs = self._edge_signs[self.boundary_edges, 0]

    def _build_geometry(self):
        nc = len(self.cells)
        loops = [(cells, self.vertices[self._loop_vertices[pos]])
                 for cells, pos in self._loop_groups]
        self.cell_areas = np.empty(nc)
        simple = np.empty(nc, dtype=bool)
        convex = np.empty(nc, dtype=bool)
        for cells, verts in loops:
            self.cell_areas[cells] = polygon.signed_area(verts)
            simple[cells] = polygon.is_simple(verts)
            convex[cells] = polygon.is_convex(verts)
        bad = np.flatnonzero((self.cell_areas <= 0.0) | ~simple | ~convex)
        if len(bad):
            ci, a = bad[0], self.cell_areas[bad[0]]
            if a <= 0.0:
                raise MeshError(f"cell {ci} has non-positive signed area {a}")
            if not simple[ci]:
                raise MeshError(f"cell {ci} is not a simple polygon")
            raise MeshError(f"cell {ci} is not convex")
        self.cell_centroids = np.empty((nc, 2))
        self.cell_diameters = np.empty(nc)
        for cells, verts in loops:
            self.cell_centroids[cells] = polygon.centroid(verts)
            self.cell_diameters[cells] = polygon.diameter(verts)
        self.mesh_size = float(self.cell_diameters.max())

        tangents = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_lengths = np.hypot(tangents[:, 0], tangents[:, 1])
        if np.any(self.edge_lengths <= 0.0):
            raise MeshError("degenerate zero-length edge")
        tangents = tangents / self.edge_lengths[:, None]
        # canonical normal: min->max tangent rotated by -90 degrees
        self.edge_normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])

    # -- accessors -------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_edges(self):
        return len(self.edges)

    @cached_property
    def cell_groups(self):
        """The cells grouped by vertex count, ascending, as CellGroups."""
        groups = []
        for cells, pos in self._loop_groups:
            ids = self._loop_vertices[pos]
            loops = self._loop_edges[pos]
            verts = self.vertices[ids]
            groups.append(CellGroup(
                cells, ids, loops[..., 0], loops[..., 1], verts, self.cell_areas[cells],
                self.cell_centroids[cells], self.cell_diameters[cells],
            ))
        return groups


@dataclass(frozen=True)
class CellGroup:
    """Cells with one vertex count nv, as stacked arrays (n cells each).

    vertex_ids, edges and directions are (n, nv) in each cell's
    counter-clockwise order; a direction is +1 where the loop runs along
    the canonical min -> max edge direction. verts is (n, nv, 2).
    """

    cells: np.ndarray
    vertex_ids: np.ndarray
    edges: np.ndarray
    directions: np.ndarray
    verts: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    diameter: np.ndarray

    def rule(self, degree):
        """Polygon rules of all cells, fanned around their centroids:
        points (n, m, 2), weights (n, m)."""
        return fan_rule(self.verts, self.centroid, degree)


def _length_groups(counts):
    """Stacked loops of the given lengths grouped by length, ascending: one
    (loop indices, (n, length) positions in the stack) pair per length."""
    starts = np.cumsum(counts) - counts
    return [(idx, starts[idx, None] + np.arange(n))
            for n in np.unique(counts) for idx in [np.flatnonzero(counts == n)]]


def _next_in_loop(counts):
    """For stacked loops of the given lengths, the stack position of each
    vertex's successor in its own loop."""
    starts = np.cumsum(counts) - counts
    nxt = np.arange(1, counts.sum() + 1)
    nxt[starts + counts - 1] = starts
    return nxt


def stack_rules(groups, degree):
    """Polygon rules of every cell group, (points, weights) each, and all
    their points stacked into one (npts, 2) array for a single callback call."""
    rules = [cg.rule(degree) for cg in groups]
    return rules, np.concatenate([points.reshape(-1, 2) for points, _ in rules])


def split_stacked(values, shapes):
    """Split values given at stacked points into one piece per group, the
    piece of shape shapes[g] (plus any trailing value axes)."""
    values = np.asarray(values, dtype=float)
    sizes = [int(np.prod(shape)) for shape in shapes]
    parts = np.split(values, np.cumsum(sizes)[:-1])
    return [part.reshape(tuple(shape) + values.shape[1:]) for part, shape in zip(parts, shapes)]


@dataclass(frozen=True)
class MeshAudit:
    """Per-cell shape checks, one entry per cell: rho_K / h_K, the edge
    count, and whether the cell passes both bounds."""

    rho_ratio: np.ndarray
    edge_count: np.ndarray
    cell_passed: np.ndarray

    @property
    def passed(self):
        return bool(self.cell_passed.all())


#: the shape-regularity thresholds: rho_K >= GAMMA0 h_K and at most N0 edges
GAMMA0 = 0.1
N0 = 16


def audit_mesh(mesh):
    """Audit every cell against the shape-regularity assumptions.

    A cell passes when it has at most N0 edges and rho_K >= GAMMA0 * h_K.
    rho_K is the smallest distance from the cell's centroid to the lines
    through its edges. The cell is convex, so the ball B(centroid, rho_K)
    lies in it and the cell is star-shaped with respect to that ball:
    rho_K is a lower bound of the cell's inscribed radius, equal to it
    when the centroid is the Chebyshev center (a square, a regular
    hexagon). Report-only: never raises on failures.
    """
    rho = np.empty(mesh.num_cells)
    edge_count = np.empty(mesh.num_cells, dtype=int)
    for cells, pos in mesh._loop_groups:
        verts = mesh.vertices[mesh._loop_vertices[pos]]
        e = np.roll(verts, -1, axis=1) - verts
        d = mesh.cell_centroids[cells][:, None, :] - verts
        dist = (e[..., 0] * d[..., 1] - e[..., 1] * d[..., 0]) / np.hypot(e[..., 0], e[..., 1])
        rho[cells] = dist.min(axis=1)
        edge_count[cells] = pos.shape[1]
    ratio = rho / mesh.cell_diameters
    return MeshAudit(ratio, edge_count, (ratio >= GAMMA0) & (edge_count <= N0))


# -- generators ----------------------------------------------------------


def generate_quad(n):
    """Structured n x n mesh of axis-aligned squares on (0, 1)^2."""
    if n < 1:
        raise MeshError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    # cell (i, j), i major, runs from vertex i (n + 1) + j counter-clockwise
    corners = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).reshape(-1, 1)
    cells = corners + np.array([0, n + 1, n + 2, 1])
    return PolyMesh(vertices, cells)


def _merge_cell_polygons(stacked, counts, tol=1e-9):
    """The vertices and cells of a PolyMesh from cell loops stacked cell
    by cell with the given vertex counts, merging shared points.

    Points closer than tol are chained into components; each component
    becomes the vertex at its smallest stacked index. In every loop a
    repeat of the previous vertex is dropped, and then a last vertex
    equal to the first.
    """
    pairs = cKDTree(stacked).query_pairs(tol, output_type="ndarray")
    roots = np.arange(len(stacked))
    while True:  # min-label propagation along the pairs
        merged = roots.copy()
        np.minimum.at(merged, pairs[:, 0], roots[pairs[:, 1]])
        np.minimum.at(merged, pairs[:, 1], roots[pairs[:, 0]])
        if np.array_equal(merged, roots):
            break
        roots = merged
    unique_roots, ids = np.unique(roots, return_inverse=True)

    starts = np.cumsum(counts) - counts
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    keep[starts] = True
    kept = np.add.reduceat(keep.astype(int), starts)
    wraps = ids[starts + counts - 1] == ids[starts]
    keep[np.flatnonzero(keep)[np.cumsum(kept)[wraps] - 1]] = False
    kept[wraps] -= 1
    if np.any(kept < 3):
        raise MeshError(
            f"cell {np.argmax(kept < 3)} degenerated to fewer than 3 vertices during merge"
        )
    return stacked[unique_roots], np.split(ids[keep], np.cumsum(kept)[:-1])


def _snap_to_walls(verts, tol=1e-10):
    out = verts.copy()
    for axis in (0, 1):
        out[np.abs(out[:, axis]) < tol, axis] = 0.0
        out[np.abs(out[:, axis] - 1.0) < tol, axis] = 1.0
    return out


def _mirrored_points(seeds, reach=1.0):
    """The seeds, then their mirror images across the walls x = 0, x = 1,
    y = 0 and y = 1 in that order: across each wall those of the seeds
    within reach of it (<=, so every seed for reach >= 1). A seed on a
    wall is its own image there, so it is left out: qhull would drop one
    of the two coincident points, perhaps the seed."""
    x, y = seeds[:, 0], seeds[:, 1]

    def near(d):
        return (d > 0.0) & (d <= reach)

    return np.vstack([
        seeds,
        seeds[near(x)] * np.array([-1.0, 1.0]),
        seeds[near(1.0 - x)] * np.array([-1.0, 1.0]) + np.array([2.0, 0.0]),
        seeds[near(y)] * np.array([1.0, -1.0]),
        seeds[near(1.0 - y)] * np.array([1.0, -1.0]) + np.array([0.0, 2.0]),
    ])


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _dot(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _corners(points, n):
    """The corners of the Delaunay triangles of points at the first n
    points, the seeds, in triangle order: each corner's seed i, its
    triangle's circumcenter o, and the offsets u and v from the seed to
    the midpoints of the triangle's edges at it (counter-clockwise) and
    w to o.

    The circumcenters of the triangles at a seed are the vertices of its
    Voronoi cell. A seed on the hull of the triangulation, or in no
    triangle, has an unbounded cell (the mask bad), and r_max is the
    largest circumradius of a triangle at a seed.
    """
    tri = Delaunay(points)
    s = tri.simplices  # counter-clockwise in 2-D, as scipy documents
    a = points[s[:, 0]]
    b, c = points[s[:, 1]] - a, points[s[:, 2]] - a
    bb, cc = _dot(b, b), _dot(c, c)
    d = 2.0 * _cross(b, c)
    o = a + np.column_stack([c[:, 1] * bb - b[:, 1] * cc, b[:, 0] * cc - c[:, 0] * bb]) / d[:, None]

    t, r = np.nonzero(s < n)
    i = s[t, r]
    p = points[i]
    u = 0.5 * (points[s[t, (r + 1) % 3]] - p)
    v = 0.5 * (points[s[t, (r + 2) % 3]] - p)
    o = o[t]
    w = o - p
    bad = np.bincount(i, minlength=n) == 0
    hull = tri.convex_hull.ravel()
    bad[hull[hull < n]] = True
    return (i, o, u, v, w), bad, np.hypot(w[:, 0], w[:, 1]).max()


def _certified(seeds, reach=1.0):
    """The corners (see _corners) of the seeds in (0,1)^2 mirrored across
    the walls, which bounds every cell by them, at the smallest certified
    reach from the given one up.

    With reach < 1 only the seeds within reach of a wall are mirrored
    across it. A left-out image of a seed off the wall lies at least
    reach from every seed, so when every cell is bounded and
    2 r_max < reach it lies on the far side of each cell's bisectors,
    and the cells are the full mirror's. Otherwise the reach doubles, up
    to mirroring every seed.
    """
    while True:
        corners, bad, r_max = _corners(_mirrored_points(seeds, reach), len(seeds))
        if reach >= 1.0 or (not bad.any() and 2.0 * r_max < reach):
            break
        reach *= 2.0
    if bad.any():
        raise MeshError(
            f"seed {np.argmax(bad)} has an unbounded Voronoi region despite wall mirroring"
        )
    return corners


def _lloyd_step(seeds, reach=1.0):
    """The centroids of the seeds' Voronoi cells.

    A corner's share of its seed's cell is the kite (p, m_ij, O, m_ki)
    through the edge midpoints m: two signed triangles, one negative where
    O lies past an obtuse corner. The kites at a seed tile its cell, so
    the cell's area and first moment are bincounts over the corners.
    """
    i, _, u, v, w = _certified(seeds, reach)
    a1, a2 = 0.5 * _cross(u, w), 0.5 * _cross(w, v)
    first = (a1[:, None] * (u + w) + a2[:, None] * (w + v)) / 3.0
    area, fx, fy = (np.bincount(i, x, minlength=len(seeds))
                    for x in (a1 + a2, first[:, 0], first[:, 1]))
    return seeds + np.column_stack([fx, fy]) / area[:, None]


def _voronoi_cells(seeds, reach=1.0):
    """The seeds' Voronoi cells: the circumcenters of each seed's
    triangles stacked seed by seed, sorted by angle about the seed, and
    the vertex counts."""
    i, o, _, _, w = _certified(seeds, reach)
    order = np.lexsort((np.arctan2(w[:, 1], w[:, 0]), i))
    return o[order], np.bincount(i, minlength=len(seeds))


def _cut_to_square(verts, counts):
    """The stacked cell loops cut to the unit square: (verts, counts).

    The vertices are snapped to the walls and those outside [0, 1]^2
    dropped. The wall mirror bounds every cell by the walls, so a cell
    reaches past a wall only where its seed lies on that wall and the
    Voronoi cut falls on cell vertices: every edge the cut creates must
    join two vertices on one wall, or the seed's cell is rejected.
    """
    verts = _snap_to_walls(verts)
    inside = np.all((verts >= 0.0) & (verts <= 1.0), axis=1)
    owner = np.repeat(np.arange(len(counts)), counts)[inside]
    kept = np.bincount(owner, minlength=len(counts))
    if np.any(kept < 3):
        raise MeshError(f"seed {np.argmax(kept < 3)} produced an empty clipped cell")
    # a kept vertex followed by a dropped one starts an edge of the cut
    cut = ~inside[_next_in_loop(counts)][inside]
    verts = verts[inside]
    nxt = verts[_next_in_loop(kept)]
    on_wall = np.any((verts == nxt) & ((verts == 0.0) | (verts == 1.0)), axis=1)
    bad = owner[cut & ~on_wall]
    if len(bad):
        raise MeshError(f"seed {bad[0]} has a cell edge crossing a wall off its vertices")
    return verts, kept


def generate_voronoi(n_seeds, lloyd_iters=0, rng_seed=0):
    """Voronoi tessellation of (0,1)^2 from random seed points.

    lloyd_iters = 0 gives the raw random ("rand") family; lloyd_iters > 0
    relaxes the seeds toward cell centroids ("voro" family). Deterministic
    for a fixed rng_seed.
    """
    if n_seeds < 2:
        raise MeshError("need at least 2 seeds")
    seeds = np.random.default_rng(rng_seed).random((n_seeds, 2))
    reach = 1.0  # the raw seeds are mirrored in full
    for _ in range(lloyd_iters):
        seeds = _lloyd_step(seeds, reach)
        reach = 4.0 / np.sqrt(n_seeds)
    return PolyMesh(*_merge_cell_polygons(*_cut_to_square(*_voronoi_cells(seeds, reach))))


def _hexa_seeds(nx):
    """Triangular seed lattice, mirror-symmetric in both axes."""
    a = 1.0 / nx
    ny = int(round(2.0 * nx / np.sqrt(3.0)))
    if ny % 2 == 0:
        ny += 1
    dy = 1.0 / ny
    rows = []
    for j in range(ny):
        y = (j + 0.5) * dy
        if j % 2 == 0:
            xs = (np.arange(nx) + 0.5) * a
        else:
            xs = np.arange(nx + 1) * a
        rows.append(np.column_stack([xs, np.full(len(xs), y)]))
    return np.vstack(rows), a


def generate_hexa(level, distortion=0.15):
    """Tessellation of (0,1)^2 by (possibly distorted) hexagons.

    A triangular seed lattice generates a honeycomb cut to the square;
    interior vertices then get a deterministic sinusoidal perturbation of
    amplitude `distortion` times the lattice pitch. A distorted cell that
    is not convex or fails the shape audit raises MeshError naming it.
    distortion = 0 keeps the regular honeycomb (used by the wells example).
    """
    if level < 1:
        raise MeshError("level must be >= 1")
    seeds, pitch = _hexa_seeds(8 * 2 ** (level - 1))
    verts, cells = _merge_cell_polygons(
        *_cut_to_square(*_voronoi_cells(seeds, 4.0 / np.sqrt(len(seeds))))
    )
    if distortion <= 0.0:
        return PolyMesh(verts, cells)

    interior = np.all((verts > 1e-12) & (verts < 1.0 - 1e-12), axis=1)
    amp = distortion * pitch
    x, y = verts[interior, 0], verts[interior, 1]
    verts[interior, 0] += amp * np.sin(3.0 * np.pi * x) * np.sin(2.0 * np.pi * y + 0.7)
    verts[interior, 1] += amp * np.sin(2.0 * np.pi * x + 1.3) * np.sin(3.0 * np.pi * y)
    mesh = PolyMesh(verts, cells)
    audit = audit_mesh(mesh)
    if not audit.passed:
        raise MeshError(f"cell {np.argmin(audit.cell_passed)} fails the shape audit")
    return mesh


#: mesh levels sized so that h is approximately proportional to the time
#: steps 1/3, 1/6, 1/12, 1/24 used by the convergence studies; the level-1
#: quad is 8 x 8, fine enough that raising the degree on the coarsest pair
#: gains the expected order of magnitude per step
FAMILY_LEVEL_SIZES = {
    "quad": [8, 16, 32, 64],
    "hexa": [1, 2, 3, 4],
    "voro": [64, 256, 1024, 4096],
    "rand": [64, 256, 1024, 4096],
}


def generate_family(family, level, rng_seed=0):
    """Generate level 1..4 of one of the four mesh families."""
    if family not in FAMILY_LEVEL_SIZES:
        raise MeshError(f"unknown mesh family {family!r}")
    if not 1 <= level <= len(FAMILY_LEVEL_SIZES[family]):
        raise MeshError(f"level {level} out of range for family {family!r}")
    size = FAMILY_LEVEL_SIZES[family][level - 1]
    if family == "quad":
        return generate_quad(size)
    if family == "hexa":
        return generate_hexa(size)
    if family == "voro":
        return generate_voronoi(size, lloyd_iters=100, rng_seed=rng_seed)
    return generate_voronoi(size, lloyd_iters=0, rng_seed=rng_seed)
