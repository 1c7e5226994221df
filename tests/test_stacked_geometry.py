"""Polygon primitives on stacks of loops, and the mesh geometry, Lloyd
relaxation and mesh generation built on them.

A stacked call must give, loop for loop, the bits of the call on that
loop alone, and the single-loop call the bits of the one-polygon
formulas in helpers.py (_area, _centroid, _diameter). The generators
must give the bits of the per-seed Delaunay-corner loop (kites for the
Lloyd steps, sorted circumcenters for the cells) and the per-cell
Sutherland-Hodgman clip, merge and topology in helpers.py, though they
stack the corners and cut a cell to the square by dropping vertices,
and their errors must name the seed, cell or edge at fault. Their cells
must be the ones of qhull's Voronoi diagram cell by cell to roundoff,
and the kites must give the polygon moments of the cells to roundoff.
The qhull input mirrors only the seeds near a wall; its certified cells
and centroids must be the full mirror's to roundoff.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vemtransport import geometry, polygon
from vemtransport.geometry import (
    FAMILY_LEVEL_SIZES,
    MeshError,
    PolyMesh,
    _certified,
    _cut_to_square,
    _hexa_seeds,
    _lloyd_step,
    _merge_cell_polygons,
    _mirrored_points,
    _voronoi_cells,
    generate_family,
    generate_hexa,
    generate_quad,
    generate_voronoi,
)

from helpers import (
    U_SHAPE,
    LoopPolyMesh,
    _area,
    _centroid,
    _diameter,
    _second_moment,
    cell_edges,
    cell_polygon,
    lloyd_voronoi_loop,
    loop_clipped_cells,
    loop_generate_hexa,
    loop_kite_moments,
    loop_merge_cell_polygons,
    loop_voronoi_cells,
    random_convex_polygon,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
#: self-intersecting, signed area exactly 0
BOW_TIE = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
#: self-intersecting with positive signed area (8.5)
CROSSED_HEXAGON = np.array([[0, 0], [4, 0], [4, 3], [1, 3], [3, -1], [0, 2]], dtype=float)
#: collinear vertices, signed area exactly 0
FLAT = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])


def round_polygon(rng, n):
    """Star-shaped loop of n vertices around its center, counter-clockwise."""
    angles = np.sort(rng.random(n)) * 2.0 * np.pi
    radii = rng.uniform(0.5, 1.0, n)
    return rng.random(2) + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])


def assert_same(actual, expected):
    assert np.shape(actual) == np.shape(expected)
    assert np.array_equal(actual, expected, equal_nan=True)


def check_stack(stack):
    """Every stacked primitive against its per-loop call."""
    assert_same(polygon.signed_area(stack), [polygon.signed_area(v) for v in stack])
    assert_same(polygon.centroid(stack), [polygon.centroid(v) for v in stack])
    assert_same(polygon.diameter(stack), [polygon.diameter(v) for v in stack])
    assert_same(polygon.is_simple(stack), [polygon.is_simple(v) for v in stack])
    for v in stack:
        assert polygon.signed_area(v) == _area(v)
        assert_same(polygon.centroid(v), _centroid(v))
        assert polygon.diameter(v) == _diameter(v)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nv=st.integers(4, 7), size=st.integers(1, 6))
def test_convex_stacks_match_per_loop_calls(seed, nv, size):
    rng = np.random.default_rng(seed)
    stack = np.array([random_convex_polygon(rng, n_min=nv, n_max=nv) for _ in range(size)])
    check_stack(stack)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nv=st.integers(3, 24), size=st.integers(1, 5))
def test_star_shaped_stacks_match_per_loop_calls(seed, nv, size):
    # up to 24 vertices, past the length where numpy's pairwise sums split
    rng = np.random.default_rng(seed)
    stack = np.array([round_polygon(rng, nv) for _ in range(size)])
    check_stack(stack)


@pytest.mark.parametrize("bad", [BOW_TIE, CROSSED_HEXAGON])
def test_non_simple_loop_inside_a_stack(bad):
    rng = np.random.default_rng(5)
    nv = len(bad)
    stack = np.array([random_convex_polygon(rng, n_min=nv, n_max=nv), bad, round_polygon(rng, nv)])
    assert polygon.is_simple(stack).tolist() == [True, False, True]
    with np.errstate(divide="ignore", invalid="ignore"):  # the bow-tie's centroid is 0/0
        check_stack(stack)


def test_single_loops_keep_scalar_results():
    assert isinstance(polygon.diameter(SQUARE), float)
    assert isinstance(polygon.is_simple(SQUARE), bool)
    assert polygon.centroid(SQUARE).shape == (2,)


def separate_cells(polygons):
    vertices = np.vstack(polygons)
    offsets = np.cumsum([0] + [len(p) for p in polygons])
    return PolyMesh(vertices, [np.arange(a, b) for a, b in zip(offsets[:-1], offsets[1:])])


@pytest.mark.parametrize(
    "polygons, message",
    [
        ([SQUARE, FLAT, SQUARE + 4.0, CROSSED_HEXAGON + 8.0], "cell 1 has non-positive signed area 0.0"),
        ([SQUARE, CROSSED_HEXAGON, SQUARE + 4.0, FLAT], "cell 1 is not a simple polygon"),
        ([SQUARE, SQUARE + 4.0, BOW_TIE, FLAT], "cell 2 has non-positive signed area 0.0"),
        ([CROSSED_HEXAGON + 8.0, FLAT + 4.0], "cell 0 is not a simple polygon"),
        ([SQUARE, U_SHAPE + 4.0, SQUARE + 8.0, FLAT + 12.0], "cell 1 is not convex"),
    ],
)
def test_invalid_cell_raises_naming_the_lowest_cell(polygons, message):
    # the centroids divide by the areas, so they must come after the check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=f"^{message}$"):
            separate_cells(polygons)


def test_mesh_geometry_matches_per_cell_formulas():
    mesh = generate_voronoi(40, lloyd_iters=3, rng_seed=11)
    assert len(mesh.cell_groups) > 1
    for c in range(mesh.num_cells):
        verts = cell_polygon(mesh, c)
        assert mesh.cell_areas[c] == _area(verts)
        assert_same(mesh.cell_centroids[c], _centroid(verts))
        assert mesh.cell_diameters[c] == _diameter(verts)
    for cg in mesh.cell_groups:
        assert_same(cg.vertex_ids, np.array([mesh.cells[c] for c in cg.cells]))


def test_lloyd_relaxation_matches_per_cell_loop():
    mesh = generate_voronoi(64, lloyd_iters=100, rng_seed=7)
    ref, _ = lloyd_voronoi_loop(64, 100, 7)
    assert_same(mesh.vertices, ref.vertices)
    assert len(mesh.cells) == len(ref.cells)
    for a, b in zip(mesh.cells, ref.cells):
        assert_same(a, b)


def assert_same_mesh(mesh, ref, tol=0.0):
    """Equal topology, and vertices equal, or within tol."""
    assert mesh.vertices.shape == ref.vertices.shape
    assert np.abs(mesh.vertices - ref.vertices).max() <= tol
    for name in ("edges", "edge_cells", "_edge_signs", "boundary_edges", "boundary_signs"):
        assert_same(getattr(mesh, name), getattr(ref, name))
    loops = [cell_edges(mesh, c) for c in range(mesh.num_cells)]
    assert len(mesh.cells) == len(ref.cells) == len(loops) == len(ref.cell_edges)
    for a, b in zip(mesh.cells, ref.cells):
        assert_same(a, b)
    for a, b in zip(loops, ref.cell_edges):
        assert_same(a, np.array(b))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_quad_topology_matches_edge_dictionary(level):
    mesh = generate_quad(FAMILY_LEVEL_SIZES["quad"][level - 1])
    assert_same_mesh(mesh, LoopPolyMesh(mesh.vertices, mesh.cells))


@pytest.mark.parametrize(
    "level, distortion", [(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (1, 0.15), (2, 0.15)]
)
def test_hexa_matches_per_cell_generation(level, distortion):
    mesh = generate_hexa(level, distortion)
    assert_same_mesh(mesh, loop_generate_hexa(level, distortion))


def test_hexa_distortion_that_breaks_a_cell_raises():
    # applied once: no smaller amplitude is tried in its place
    with pytest.raises(MeshError, match="^cell 24 is not convex$"):
        generate_hexa(1, distortion=0.5)


def test_hexa_cell_that_fails_the_audit_raises(monkeypatch):
    ratio = geometry.audit_mesh(generate_hexa(1)).rho_ratio
    first = np.argmax(ratio < 0.3)
    assert 0 < first and ratio.min() > geometry.GAMMA0
    monkeypatch.setattr(geometry, "GAMMA0", 0.3)
    with pytest.raises(MeshError, match=f"^cell {first} fails the shape audit$"):
        generate_hexa(1)


@pytest.mark.parametrize(
    "family, level, seed",
    [("voro", 1, 2024), ("voro", 2, 2024), ("voro", 1, 801), ("voro", 2, 801),
     ("rand", 1, 0), ("rand", 2, 0), ("rand", 3, 0)],
)
def test_voronoi_matches_per_cell_generation(family, level, seed):
    mesh = generate_family(family, level, rng_seed=seed)
    n_seeds = FAMILY_LEVEL_SIZES[family][level - 1]
    ref, _ = lloyd_voronoi_loop(n_seeds, 100 if family == "voro" else 0, seed)
    assert_same_mesh(mesh, ref)


def record_reaches(monkeypatch):
    """The reach of every qhull input _certified builds, in order."""
    reaches = []

    def recorded(seeds, reach=1.0):
        reaches.append(reach)
        return _mirrored_points(seeds, reach)

    monkeypatch.setattr(geometry, "_mirrored_points", recorded)
    return reaches


def assert_same_cells(loops, expected):
    """The same cells once cut to the square and merged: equal loops, and
    vertices equal within 1e-14. A seed and its neighbour near a wall are
    co-circular with their images, and the triangulations may split that
    Voronoi vertex at different seeds into two, which the merge joins."""
    (verts, cells), (ref_verts, ref_cells) = (
        _merge_cell_polygons(*_cut_to_square(*x)) for x in (loops, expected)
    )
    assert len(cells) == len(ref_cells)
    for a, b in zip(cells, ref_cells):
        assert_same(a, b)
    assert verts.shape == ref_verts.shape
    assert np.abs(verts - ref_verts).max() <= 1e-14


@pytest.mark.parametrize("rng_seed", [0, 1, 2])
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_reduced_mirror_gives_the_full_mirror_cells(monkeypatch, n, rng_seed):
    reach = 4.0 / np.sqrt(n)
    reaches = record_reaches(monkeypatch)
    seeds = np.random.default_rng(rng_seed).random((n, 2))
    for step in range(4):  # the raw seeds, then after 1, 2 and 3 Lloyd steps
        full = _voronoi_cells(seeds)
        centroids, _ = _lloyd_step(seeds, 1.0)
        reaches.clear()
        assert_same_cells(_voronoi_cells(seeds, reach), full)
        assert reaches[0] == reach
        reaches.clear()
        assert np.abs(_lloyd_step(seeds, reach)[0] - centroids).max() <= 1e-14
        assert reaches[0] == reach
        if step:  # relaxed cells are certified at the first reach
            assert reaches == [reach]
        seeds = centroids


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_hexa_lattice_on_the_reduced_mirror_gives_the_full_mirror_cells(monkeypatch, level):
    # generate_hexa mirrors at reach 4 / sqrt(n) too, wall seeds included
    seeds, _ = _hexa_seeds(8 * 2 ** (level - 1))
    reach = 4.0 / np.sqrt(len(seeds))
    reaches = record_reaches(monkeypatch)
    loops = _voronoi_cells(seeds, reach)
    assert reaches == [reach]
    assert_same_cells(loops, _voronoi_cells(seeds))


@pytest.mark.parametrize(
    "far", [[[0.9, 0.9], [0.5, 0.9], [0.9, 0.5], [0.6, 0.6]], [[0.6, 0.6]]],
    ids=["large-cells", "unbounded"],
)
def test_clustered_seeds_widen_the_reach(monkeypatch, far):
    # all but a few of 1,024 seeds in the corner [0, 0.3]^2: the far cells
    # are too large for reach 0.125, and a far seed within no reach of a
    # wall keeps an unbounded region
    rng = np.random.default_rng(5)
    seeds = np.vstack([0.3 * rng.random((1024 - len(far), 2)), far])
    reaches = record_reaches(monkeypatch)
    loops = _voronoi_cells(seeds, 0.125)
    assert reaches[0] == 0.125 and len(reaches) > 1
    assert reaches == sorted(reaches)
    widened = reaches.copy()
    reaches.clear()
    centroids, _ = _lloyd_step(seeds, 0.125)
    assert reaches == widened  # the Lloyd step is certified as the cells are
    assert_same_cells(loops, _voronoi_cells(seeds))
    assert np.abs(centroids - _lloyd_step(seeds, 1.0)[0]).max() <= 1e-14


@pytest.mark.parametrize("lloyd_iters", [0, 10])
def test_one_delaunay_per_lloyd_step_and_one_per_mesh(monkeypatch, lloyd_iters):
    assert not hasattr(geometry, "Voronoi")
    calls = []

    def counted(points, qhull=geometry.Delaunay):
        calls.append(len(points))
        return qhull(points)

    radii = []

    def stepped(seeds, reach, step=geometry._lloyd_step):
        seeds, r_max = step(seeds, reach)
        radii.append(r_max)
        return seeds, r_max

    monkeypatch.setattr(geometry, "Delaunay", counted)
    monkeypatch.setattr(geometry, "_lloyd_step", stepped)
    reaches = record_reaches(monkeypatch)
    generate_voronoi(256, lloyd_iters=lloyd_iters, rng_seed=2024)
    assert len(calls) == lloyd_iters + 1
    # the raw seeds are mirrored in full; each later step, and the final
    # cells, start at REACH_PER_RADIUS times the r_max of the step before
    assert reaches == [1.0] + [geometry.REACH_PER_RADIUS * r for r in radii]
    assert len(radii) == lloyd_iters


@pytest.mark.parametrize(
    "family, level, seed",
    [("voro", 1, 2024), ("voro", 2, 1), ("rand", 2, 0), ("hexa", 1, None), ("hexa", 3, None)],
)
def test_cells_are_qhulls_voronoi_cells_to_roundoff(family, level, seed):
    # the circumcenters of the triangles at a seed are its Voronoi vertices:
    # qhull's Voronoi diagram of the same seeds, cell by cell and clipped,
    # gives the same mesh with vertices within 1e-14
    if family == "hexa":
        mesh = generate_hexa(level, distortion=0.0)
        seeds, _ = _hexa_seeds(8 * 2 ** (level - 1))
        reach = 4.0 / np.sqrt(len(seeds))
    else:
        mesh = generate_family(family, level, rng_seed=seed)
        n = FAMILY_LEVEL_SIZES[family][level - 1]
        seeds, reach = np.random.default_rng(seed).random((n, 2)), 1.0
        for _ in range(100 if family == "voro" else 0):
            seeds, r_max = _lloyd_step(seeds, reach)
            reach = geometry.REACH_PER_RADIUS * r_max
    ref = loop_merge_cell_polygons(loop_clipped_cells(loop_voronoi_cells(seeds, reach)))
    assert_same_mesh(mesh, ref, tol=1e-14)


@pytest.mark.parametrize("n, rng_seed", [(64, 0), (256, 1), (1024, 2)])
def test_kites_give_the_polygon_moments(n, rng_seed):
    # the polygon formulas take moments about the origin, so their roundoff
    # grows on small cells: up to 1.1e-13 was seen on these seeds
    seeds = np.random.default_rng(rng_seed).random((n, 2))
    for _ in range(3):  # the raw seeds, then after 1 and 2 Lloyd steps
        energy, centroids, _ = loop_kite_moments(seeds)
        cells = loop_voronoi_cells(seeds)
        assert np.abs(centroids - [_centroid(v) for v in cells]).max() <= 1e-12
        second = sum(_second_moment(v, p) for v, p in zip(cells, seeds))
        assert abs(energy - second) <= 1e-14 * second
        seeds = centroids


def test_default_mirror_takes_every_seed():
    # the hexa lattice has seeds on x = 0 and x = 1, each its own image
    # across its wall: at full reach every other image is taken, so the
    # qhull input is the one of all four walls without coincident points
    seeds, _ = _hexa_seeds(8)
    left, right = seeds[:, 0] == 0.0, seeds[:, 0] == 1.0
    assert left.any() and right.any()
    mirrors = [
        seeds[~left] * np.array([-1.0, 1.0]),
        seeds[~right] * np.array([-1.0, 1.0]) + np.array([2.0, 0.0]),
        seeds * np.array([1.0, -1.0]),
        seeds * np.array([1.0, -1.0]) + np.array([0.0, 2.0]),
    ]
    points = _mirrored_points(seeds)
    assert_same(points, np.vstack([seeds] + mirrors))
    assert len(np.unique(points, axis=0)) == len(points)


def test_near_repeated_vertices_merge_to_one():
    # an interior cell whose second and third vertices lie 5e-15 apart:
    # the cut keeps both, and the merge drops the repeat as the clip did
    verts = np.array([[0.2, 0.2], [0.8, 0.2], [0.8, 0.2 + 5e-15], [0.8, 0.8], [0.2, 0.8]])
    vertices, cells = _merge_cell_polygons(*_cut_to_square(verts, np.array([5])))
    (expected,) = loop_clipped_cells([verts])
    assert len(expected) == 4
    assert_same(vertices, expected)
    assert_same(cells[0], np.arange(4))


def test_wall_seed_hexagon_is_cut_as_the_clip_does():
    # a lattice seed on x = 0 is its own image, so its hexagon reaches
    # past the wall and the cut drops the vertices on the far side
    seeds, _ = _hexa_seeds(8)
    verts, counts = _voronoi_cells(seeds)
    i = np.flatnonzero(seeds[:, 0] == 0.0)[0]
    start = counts[:i].sum()
    hexagon = verts[start : start + counts[i]]
    assert len(hexagon) == 6 and hexagon[:, 0].min() < 0.0 < hexagon[:, 0].max()
    cut, kept = _cut_to_square(hexagon, np.array([6]))
    (expected,) = loop_clipped_cells([hexagon])
    assert kept.tolist() == [4]
    assert_same(cut, expected)


def test_cut_off_the_vertices_names_the_seed():
    # seed 1's cell crosses x = 0 between two vertices off the wall, where
    # a clip would have to add points
    verts = np.vstack([0.25 + 0.5 * SQUARE, [[0.1, 0.1], [0.3, 0.1], [0.3, 0.3], [-0.2, 0.2]]])
    with pytest.raises(MeshError, match="^seed 1 has a cell edge crossing a wall"):
        _cut_to_square(verts, np.array([4, 4]))


def test_cut_to_fewer_than_three_vertices_names_the_seed():
    verts = np.vstack([0.25 + 0.5 * SQUARE, 0.5 * SQUARE - [0.25, 0.25]])
    with pytest.raises(MeshError, match="^seed 1 produced an empty clipped cell$"):
        _cut_to_square(verts, np.array([4, 4]))


def test_unbounded_region_names_the_seed():
    # a seed outside the square keeps an unbounded region after mirroring
    seeds = np.array([[0.5, 0.5], [0.25, 0.25], [0.5, 3.0]])
    with pytest.raises(MeshError, match="^seed 2 has an unbounded Voronoi region"):
        _certified(seeds)


def test_coincident_seeds_name_a_seed():
    # qhull drops one of two coincident seeds from the triangulation, so
    # it lies in no triangle, and its cell counts as unbounded
    seeds = np.random.default_rng(3).random((64, 2))
    seeds[40] = seeds[12]
    for reach in (1.0, 0.5):
        with pytest.raises(MeshError, match="^seed (12|40) has an unbounded Voronoi region"):
            _certified(seeds, reach)


def test_seeds_1e10_apart_give_a_mesh():
    seeds = np.random.default_rng(3).random((64, 2))
    seeds[40] = seeds[12] + [1e-10, 0.0]
    mesh = PolyMesh(*_merge_cell_polygons(*_cut_to_square(*_voronoi_cells(seeds))))
    assert mesh.num_cells == 64
    assert abs(mesh.cell_areas.sum() - 1.0) < 1e-12


def test_merge_degeneration_names_the_cell():
    with pytest.raises(MeshError, match="^cell 1 degenerated to fewer than 3 vertices"):
        _merge_cell_polygons(
            np.vstack([SQUARE, SQUARE * 1e-10 + 5.0, SQUARE + 2.0]), np.array([4, 4, 4])
        )


#: corners of four unit triangles around the origin, and one more point
FAN = np.array([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (2, 2)], dtype=float)


@pytest.mark.parametrize(
    "cells, message",
    [
        ([[0, 1, 2], [3, 3, 4], [1, 0, 5]], "cell 1 repeats vertex 3"),
        ([[0, 1, 2], [1, 0, 3], [0, 1, 4], [5, 6, 6]],
         r"edge \(0, 1\) shared by more than two cells"),
        ([[0, 1, 2], [5, 6, 6], [1, 0, 3], [0, 1, 4]], "cell 1 repeats vertex 6"),
        ([[0, 1, 2], [0, 1, 3]], r"edge \(0, 1\) traversed twice in the same direction"),
    ],
)
def test_topology_errors_name_the_cell_or_edge(cells, message):
    # the first fault in loop order, as the edge dictionary finds it
    for cls in (PolyMesh, LoopPolyMesh):
        with pytest.raises(MeshError, match=f"^{message}$"):
            cls(FAN, cells)
