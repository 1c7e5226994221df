"""Polygon primitives on stacks of loops, and the mesh geometry and Lloyd
relaxation built on them.

A stacked call must give, loop for loop, the bits of the call on that
loop alone, and the single-loop call the bits of the one-polygon
formulas in helpers.py (_area, _centroid, _diameter, _second_moment).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vemtransport import polygon
from vemtransport.geometry import MeshError, PolyMesh, generate_voronoi

from helpers import (
    _area,
    _centroid,
    _diameter,
    _second_moment,
    lloyd_voronoi_loop,
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


def check_stack(stack, points):
    """Every stacked primitive against its per-loop call."""
    assert_same(polygon.signed_area(stack), [polygon.signed_area(v) for v in stack])
    assert_same(polygon.centroid(stack), [polygon.centroid(v) for v in stack])
    assert_same(polygon.diameter(stack), [polygon.diameter(v) for v in stack])
    assert_same(
        polygon.second_moment_about(stack, points),
        [polygon.second_moment_about(v, s) for v, s in zip(stack, points)],
    )
    assert_same(polygon.is_simple(stack), [polygon.is_simple(v) for v in stack])
    for v, s in zip(stack, points):
        assert polygon.signed_area(v) == _area(v)
        assert_same(polygon.centroid(v), _centroid(v))
        assert polygon.diameter(v) == _diameter(v)
        assert polygon.second_moment_about(v, s) == _second_moment(v, s)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nv=st.integers(4, 7), size=st.integers(1, 6))
def test_convex_stacks_match_per_loop_calls(seed, nv, size):
    rng = np.random.default_rng(seed)
    stack = np.array([random_convex_polygon(rng, n_min=nv, n_max=nv) for _ in range(size)])
    check_stack(stack, rng.random((size, 2)))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nv=st.integers(3, 24), size=st.integers(1, 5))
def test_star_shaped_stacks_match_per_loop_calls(seed, nv, size):
    # up to 24 vertices, past the length where numpy's pairwise sums split
    rng = np.random.default_rng(seed)
    stack = np.array([round_polygon(rng, nv) for _ in range(size)])
    check_stack(stack, rng.random((size, 2)))


@pytest.mark.parametrize("bad", [BOW_TIE, CROSSED_HEXAGON])
def test_non_simple_loop_inside_a_stack(bad):
    rng = np.random.default_rng(5)
    nv = len(bad)
    stack = np.array([random_convex_polygon(rng, n_min=nv, n_max=nv), bad, round_polygon(rng, nv)])
    assert polygon.is_simple(stack).tolist() == [True, False, True]
    with np.errstate(divide="ignore", invalid="ignore"):  # the bow-tie's centroid is 0/0
        check_stack(stack, rng.random((3, 2)))


def test_single_loops_keep_scalar_results():
    assert isinstance(polygon.diameter(SQUARE), float)
    assert isinstance(polygon.second_moment_about(SQUARE, [0.5, 0.5]), float)
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
        verts = mesh.cell_polygon(c)
        assert mesh.cell_areas[c] == _area(verts)
        assert_same(mesh.cell_centroids[c], _centroid(verts))
        assert mesh.cell_diameters[c] == _diameter(verts)
    for cg in mesh.cell_groups:
        assert_same(cg.vertex_ids, np.array([mesh.cells[c] for c in cg.cells]))


def test_lloyd_relaxation_matches_per_cell_loop():
    mesh = generate_voronoi(64, lloyd_iters=100, rng_seed=7)
    ref, energies = lloyd_voronoi_loop(64, 100, 7)
    assert mesh.meta["jittered_seeds"] == 0
    assert_same(mesh.vertices, ref.vertices)
    assert len(mesh.cells) == len(ref.cells)
    for a, b in zip(mesh.cells, ref.cells):
        assert_same(a, b)
    assert mesh.meta["lloyd_energy"] == energies
