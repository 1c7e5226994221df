"""Batched local spaces against the per-cell loops they replaced.

VemSpace builds its projectors and local matrices group by group
(cells of one vertex count at once), and the Darcy solver does the same
for its flux operators. The per-cell constructions in helpers.py
(LoopVemElement, LoopFluxElement) are the oracle; the two differ only
in summation order. Tolerance, fixed beforehand: 1e-13 relative to the
largest entry.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vemtransport.darcy import _flux_groups
from vemtransport.element import VemSpace, n_poly
from vemtransport.geometry import MeshError, generate_hexa, generate_quad, generate_voronoi
from vemtransport.quadrature import QuadratureError, polygon_rule

from helpers import (
    U_SHAPE,
    LoopFluxElement,
    LoopVemElement,
    VemElement,
    cell_polygon,
    polygon_mesh,
    random_convex_polygon,
)

RTOL = 1e-13


def assert_rel_close(actual, expected):
    expected = np.asarray(expected, dtype=float)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(np.asarray(actual) - expected)) <= RTOL * scale


def darcy_source(p):
    return np.exp(p[:, 0]) * np.cos(p[:, 1])


def check_space(mesh, k, rng):
    """Every cell of every group against its LoopVemElement."""
    space = VemSpace(mesh, k)
    u_all = rng.standard_normal((mesh.num_cells, 2, n_poly(k)))
    for g, cg in zip(space.groups, mesh.cell_groups):
        conv = g.convection(u_all[cg.cells])
        for row, c in enumerate(cg.cells):
            ref = LoopVemElement(cell_polygon(mesh, c), k)
            assert_rel_close(g.pin_coef[row], ref.pin_coef)
            assert_rel_close(g.pi0_coef[row], ref.pi0_coef)
            assert_rel_close(g.pg_coef[:, row], np.array(ref.pg_coef))
            assert_rel_close(g.mass[row], ref.mass)
            assert_rel_close(g.stiff_unit[row], ref.stiff_unit)
            assert_rel_close(conv[row], ref.convection_matrix(u_all[c]))


def check_flux(mesh, k):
    """Every cell's Darcy operators against its LoopFluxElement."""
    groups = _flux_groups(mesh, k, darcy_source)
    for g, cg in zip(groups, mesh.cell_groups):
        for row, c in enumerate(cg.cells):
            rule = polygon_rule(cell_polygon(mesh, c), 2 * (k + 1))
            ref = LoopFluxElement(mesh, c, k, rule, darcy_source(rule.points))
            assert_rel_close(g.A_unit[row], ref.A_unit)
            assert_rel_close(g.DIVR[row], ref.DIVR)
            assert_rel_close(g.div_map[row], ref.div_map)
            assert_rel_close(g.vel[row, 0], ref.vel_x)
            assert_rel_close(g.vel[row, 1], ref.vel_y)
            assert_rel_close(g.f_moments[row], ref.f_moments)


MESHES = {
    "quad": lambda: generate_quad(3),
    "hexa": lambda: generate_hexa(1),
    "voro": lambda: generate_voronoi(16, lloyd_iters=20, rng_seed=4),
}


@pytest.mark.parametrize("family", list(MESHES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_space_matches_loop(family, k):
    mesh = MESHES[family]()
    check_space(mesh, k, np.random.default_rng(k))


@pytest.mark.parametrize("family", list(MESHES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_flux_matches_loop(family, k):
    check_flux(MESHES[family](), k)


def test_mesh_families_form_the_expected_groups():
    assert [len(cg.cells) for cg in generate_quad(3).cell_groups] == [9]
    assert [cg.verts.shape[1] for cg in generate_hexa(1).cell_groups] == [4, 5, 6]
    voro = generate_voronoi(16, lloyd_iters=20, rng_seed=4)
    assert len(voro.cell_groups) > 1
    assert sorted(np.concatenate([cg.cells for cg in voro.cell_groups])) == list(range(16))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
@example(seed=407974150, k=3)  # a sliver hexagon, cond(H) = 3e8
def test_random_mixed_batches_match_loop(seed, k):
    rng = np.random.default_rng(seed)
    polygons = [random_convex_polygon(rng, n_min=3, n_max=7) + 2.0 * i for i in range(6)]
    mesh = polygon_mesh(polygons)
    check_space(mesh, k, rng)
    check_flux(mesh, k)


def test_non_star_cell_raises():
    with pytest.raises(QuadratureError):
        VemElement(U_SHAPE, 1)
    with pytest.raises(MeshError, match="^cell 0 is not convex$"):
        polygon_mesh([U_SHAPE - 5.0, U_SHAPE + 5.0])
