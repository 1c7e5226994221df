"""Polygonal meshes of the unit square and their regularity audits.

Provides the half-edge style PolyMesh container, four mesh generators
(structured quads, distorted hexagons, Lloyd-optimized and random
Voronoi), and a star-shapedness audit. Cells are stored
counter-clockwise; outward normals are edge tangents rotated by -90
degrees.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from . import polygon
from .quadrature import fan_rule, star_points

log = logging.getLogger(__name__)


class MeshError(ValueError):
    """Raised for invalid generator arguments or broken mesh topology."""


class PolyMesh:
    """Planar polygonal tessellation with edge adjacency.

    Parameters
    ----------
    vertices : (nv, 2) array
        Vertex coordinates.
    cells : sequence of int arrays
        Counter-clockwise vertex index loops, one per cell.
    validate : bool
        Run the geometric sanity checks (simple cells, positive area,
        outward normals).
    """

    def __init__(self, vertices, cells, meta=None, validate=True):
        self.vertices = np.asarray(vertices, dtype=float).copy()
        self.cells = [np.asarray(c, dtype=int).copy() for c in cells]
        self.meta = dict(meta or {})
        self._build_topology()
        self._build_geometry(validate)

    def _build_topology(self):
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
                raise MeshError(f"edge {tuple(self.edges[e])} traversed twice in the same direction")
        self.boundary_edges = np.where(self.edge_cells[:, 1] == -1)[0]
        # outward normal = sign * canonical normal on each boundary edge
        self.boundary_signs = self._edge_signs[self.boundary_edges, 0]
        self._is_boundary = np.zeros(len(self.edges), dtype=bool)
        self._is_boundary[self.boundary_edges] = True

    def _build_geometry(self, validate):
        nc = len(self.cells)
        self._loops_by_count = _stack_by_length(self.cells)
        loops = [(cells, self.vertices[ids]) for cells, ids in self._loops_by_count]
        self.cell_areas = np.empty(nc)
        simple = np.ones(nc, dtype=bool)
        for cells, verts in loops:
            self.cell_areas[cells] = polygon.signed_area(verts)
            if validate:
                simple[cells] = polygon.is_simple(verts)
        bad = np.flatnonzero((self.cell_areas <= 0.0) | ~simple)
        if len(bad):
            ci, a = bad[0], self.cell_areas[bad[0]]
            if a <= 0.0:
                raise MeshError(f"cell {ci} has non-positive signed area {a}")
            raise MeshError(f"cell {ci} is not a simple polygon")
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

        if validate:
            for e in self.boundary_edges:
                n_out = self.outward_normal(e)
                mid = 0.5 * (self.vertices[self.edges[e, 0]] + self.vertices[self.edges[e, 1]])
                c = self.cell_centroids[self.edge_cells[e, 0]]
                if np.dot(n_out, mid - c) <= 0.0:
                    raise MeshError(f"boundary edge {e} normal does not point outward")

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

    def cell_polygon(self, ci):
        return self.vertices[self.cells[ci]]

    def boundary_sign(self, e):
        """Sign s with outward normal = s * canonical normal on edge e."""
        if not self._is_boundary[e]:
            raise MeshError(f"edge {e} is not on the boundary")
        return int(self._edge_signs[e, 0])

    def outward_normal(self, e):
        return self.boundary_sign(e) * self.edge_normals[e]

    @cached_property
    def cell_groups(self):
        """The cells grouped by vertex count, ascending, as CellGroups."""
        groups = []
        for cells, ids in self._loops_by_count:
            loops = np.array([self.cell_edges[c] for c in cells])
            verts = self.vertices[ids]
            centroids = self.cell_centroids[cells]
            groups.append(CellGroup(
                cells, ids, loops[..., 0], loops[..., 1], verts, self.cell_areas[cells],
                centroids, self.cell_diameters[cells], star_points(verts, centroids),
            ))
        return groups


@dataclass(frozen=True)
class CellGroup:
    """Cells with one vertex count nv, as stacked arrays (n cells each).

    vertex_ids, edges and directions are (n, nv) in each cell's
    counter-clockwise order; a direction is +1 where the loop runs along
    the canonical min -> max edge direction. verts is (n, nv, 2); apex
    holds the star points every cell's quadrature is fanned around.
    """

    cells: np.ndarray
    vertex_ids: np.ndarray
    edges: np.ndarray
    directions: np.ndarray
    verts: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    diameter: np.ndarray
    apex: np.ndarray

    @classmethod
    def of_polygon(cls, verts):
        """A group of one cell, numbered on its own: vertices and edges 0..nv-1."""
        verts = np.asarray(verts, dtype=float)
        loop = np.arange(len(verts))[None]
        centroid = polygon.centroid(verts)[None]
        return cls(
            np.zeros(1, dtype=int), loop, loop, np.ones_like(loop), verts[None],
            np.array([polygon.signed_area(verts)]), centroid,
            np.array([polygon.diameter(verts)]), star_points(verts[None], centroid),
        )

    def rule(self, degree):
        """Polygon rules of all cells: points (n, m, 2), weights (n, m)."""
        return fan_rule(self.verts, self.apex, degree)


def _stack_by_length(loops):
    """Loops of varying length stacked by length, ascending: one
    (indices, (n, length, ...) array) pair per length."""
    counts = np.array([len(loop) for loop in loops])
    flat, starts = np.concatenate(loops), np.cumsum(counts) - counts
    return [(idx, flat[starts[idx, None] + np.arange(n)])
            for n in np.unique(counts) for idx in [np.flatnonzero(counts == n)]]


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


@dataclass
class CellAudit:
    cell: int
    rho_ratio: float
    edge_count: int
    min_edge_ratio: float
    passed: bool


@dataclass
class MeshAudit:
    """Report of the per-cell star-shapedness and edge-count checks."""

    gamma0: float
    n0: int
    cells: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.cells)


def audit_mesh(mesh, gamma0=0.1, n0=16):
    """Audit every cell against the shape-regularity assumptions.

    Checks that each cell is star-shaped with respect to a ball of radius
    gamma0 * h_K (inscribed-ball radius from the Chebyshev center, via
    the kernel polygon for non-convex cells) and has at most n0 edges.
    Report-only: never raises on failures.
    """
    if not 0.0 < gamma0 < 1.0:
        raise MeshError("gamma0 must lie in (0, 1)")
    if n0 < 3:
        raise MeshError("n0 must be at least 3")
    report = MeshAudit(gamma0=gamma0, n0=n0)
    for ci in range(mesh.num_cells):
        verts = mesh.cell_polygon(ci)
        h = mesh.cell_diameters[ci]
        region = verts if polygon.is_convex(verts) else polygon.kernel_polygon(verts)
        if len(region) < 3:
            rho = 0.0
        else:
            _, rho = polygon.chebyshev_center(region)
        edges = [e for e, _ in mesh.cell_edges[ci]]
        min_edge = float(mesh.edge_lengths[edges].min())
        ratio = rho / h
        ok = ratio >= gamma0 and len(verts) <= n0
        report.cells.append(
            CellAudit(
                cell=ci,
                rho_ratio=ratio,
                edge_count=len(verts),
                min_edge_ratio=min_edge / mesh.mesh_size,
                passed=ok,
            )
        )
    return report


# -- generators ----------------------------------------------------------


def generate_quad(n):
    """Structured n x n mesh of axis-aligned squares on (0, 1)^2."""
    if n < 1:
        raise MeshError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    mesh = PolyMesh(vertices, cells, meta={"family": "quad", "n": n})
    return mesh


def _merge_cell_polygons(polys, tol=1e-9, meta=None):
    """Build a PolyMesh from per-cell vertex loops, merging shared points."""
    stacked = np.vstack(polys)
    tree = cKDTree(stacked)
    pairs = tree.query_pairs(tol, output_type="ndarray")
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
    vertices = stacked[unique_roots]

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
    return PolyMesh(vertices, cells, meta=meta)


def _snap_to_walls(verts, tol=1e-10):
    out = verts.copy()
    for axis in (0, 1):
        out[np.abs(out[:, axis]) < tol, axis] = 0.0
        out[np.abs(out[:, axis] - 1.0) < tol, axis] = 1.0
    return out


def _clipped_voronoi_cells(seeds, clip=True):
    """Voronoi cells of seeds in (0,1)^2 clipped to the unit square.

    Seeds are mirrored across the four walls so every original region is
    finite and bounded by the walls; each cell loop is then
    Sutherland-Hodgman clipped against the square to pin the wall
    coordinates exactly (skipped with clip=False inside the Lloyd loop,
    where the mirrored cells are already accurate to roundoff).
    """
    mirrors = [
        seeds * np.array([-1.0, 1.0]),
        seeds * np.array([-1.0, 1.0]) + np.array([2.0, 0.0]),
        seeds * np.array([1.0, -1.0]),
        seeds * np.array([1.0, -1.0]) + np.array([0.0, 2.0]),
    ]
    allpts = np.vstack([seeds] + mirrors)
    vor = Voronoi(allpts)
    cells = []
    for i in range(len(seeds)):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or len(region) < 3:
            raise MeshError("unbounded Voronoi region despite wall mirroring")
        verts = vor.vertices[region]
        angles = np.arctan2(verts[:, 1] - seeds[i, 1], verts[:, 0] - seeds[i, 0])
        verts = verts[np.argsort(angles)]
        if clip:
            verts = polygon.clip_to_box(_snap_to_walls(verts))
            verts = _snap_to_walls(verts)
        if len(verts) < 3:
            raise MeshError(f"seed {i} produced an empty clipped cell")
        cells.append(verts)
    return cells


def _lloyd_step(cells, seeds):
    """Energy of the cells about their seeds and the cell centroids, a
    vertex-count group at a time; the energy sums the cells in order."""
    energy = np.empty(len(cells))
    centroids = np.empty((len(cells), 2))
    for idx, verts in _stack_by_length(cells):
        energy[idx] = polygon.second_moment_about(verts, seeds[idx])
        centroids[idx] = polygon.centroid(verts)
    return sum(energy.tolist()), centroids


def generate_voronoi(n_seeds, lloyd_iters=0, rng_seed=0):
    """Clipped Voronoi tessellation of (0,1)^2 from random seed points.

    lloyd_iters = 0 gives the raw random ("rand") family; lloyd_iters > 0
    relaxes the seeds toward cell centroids ("voro" family). Deterministic
    for a fixed rng_seed. Duplicate seeds are jittered deterministically
    and the event is recorded in mesh.meta.
    """
    if n_seeds < 2:
        raise MeshError("need at least 2 seeds")
    rng = np.random.default_rng(rng_seed)
    seeds = rng.random((n_seeds, 2))
    jittered = 0
    tree = cKDTree(seeds)
    while len(tree.query_pairs(1e-9)) > 0:
        pairs = tree.query_pairs(1e-9, output_type="ndarray")
        dup = np.unique(pairs[:, 1])
        seeds[dup] += (rng.random((len(dup), 2)) - 0.5) * 1e-6
        seeds = np.clip(seeds, 1e-6, 1.0 - 1e-6)
        jittered += len(dup)
        tree = cKDTree(seeds)
    if jittered:
        log.warning("jittered %d duplicate Voronoi seeds", jittered)

    energies = []
    cells = _clipped_voronoi_cells(seeds, clip=False)
    for _ in range(lloyd_iters):
        energy, seeds = _lloyd_step(cells, seeds)
        energies.append(energy)
        cells = _clipped_voronoi_cells(seeds, clip=False)
    energies.append(_lloyd_step(cells, seeds)[0])
    cells = _clipped_voronoi_cells(seeds, clip=True)

    meta = {
        "family": "voro" if lloyd_iters > 0 else "rand",
        "n_seeds": n_seeds,
        "lloyd_iters": lloyd_iters,
        "rng_seed": rng_seed,
        "jittered_seeds": jittered,
        "lloyd_energy": energies,
    }
    return _merge_cell_polygons(cells, meta=meta)


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

    A triangular seed lattice generates a clipped honeycomb; interior
    vertices then get a deterministic sinusoidal perturbation of
    amplitude `distortion` times the lattice pitch, halved until the
    shape-regularity audit passes. distortion = 0 keeps the regular
    honeycomb (used by the wells example).
    """
    if level < 1:
        raise MeshError("level must be >= 1")
    nx = 8 * 2 ** (level - 1)
    seeds, pitch = _hexa_seeds(nx)
    cells = _clipped_voronoi_cells(seeds)
    base = _merge_cell_polygons(
        cells, meta={"family": "hexa", "level": level, "distortion": distortion}
    )
    if distortion <= 0.0:
        return base

    verts = base.vertices
    interior = np.ones(len(verts), dtype=bool)
    for axis in (0, 1):
        interior &= (verts[:, axis] > 1e-12) & (verts[:, axis] < 1.0 - 1e-12)

    amp = distortion * pitch
    while amp > 1e-3 * pitch:
        moved = verts.copy()
        x, y = verts[interior, 0], verts[interior, 1]
        moved[interior, 0] += amp * np.sin(3.0 * np.pi * x) * np.sin(2.0 * np.pi * y + 0.7)
        moved[interior, 1] += amp * np.sin(2.0 * np.pi * x + 1.3) * np.sin(3.0 * np.pi * y)
        try:
            mesh = PolyMesh(moved, base.cells, meta=dict(base.meta, distortion_applied=amp / pitch))
        except MeshError:
            amp *= 0.5
            continue
        if audit_mesh(mesh).passed:
            return mesh
        amp *= 0.5
    log.warning("hexa distortion clamped to zero at level %d", level)
    return base


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
