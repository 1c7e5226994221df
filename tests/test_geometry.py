import functools

import numpy as np
import pytest

from vemtransport import geometry
from vemtransport.geometry import (
    MeshError,
    PolyMesh,
    audit_mesh,
    generate_family,
    generate_hexa,
    generate_quad,
    generate_voronoi,
)

from helpers import (
    cell_polygon,
    lloyd_voronoi_loop,
    lp_audit,
    polygon_mesh,
    random_convex_polygon,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def euler_characteristic(mesh):
    return mesh.num_vertices - mesh.num_edges + mesh.num_cells


class TestQuadGenerator:
    def test_single_cell(self):
        m = generate_quad(1)
        assert m.num_cells == 1
        assert m.num_vertices == 4
        assert len(m.boundary_edges) == 4

    def test_two_by_two(self):
        m = generate_quad(2)
        assert m.num_cells == 4
        assert m.num_vertices == 9
        assert abs(m.mesh_size - np.sqrt(2.0) / 2.0) < 1e-15

    def test_areas_partition_unity(self):
        m = generate_quad(4)
        assert m.num_cells == 16
        assert abs(m.cell_areas.sum() - 1.0) < 1e-14

    def test_rejects_zero(self):
        with pytest.raises(MeshError):
            generate_quad(0)


class TestHexaGenerator:
    def test_covers_unit_square(self):
        m = generate_hexa(1)
        assert abs(m.cell_areas.sum() - 1.0) < 1e-12

    def test_h_decreases_with_level(self):
        h1 = generate_hexa(1).mesh_size
        h2 = generate_hexa(2).mesh_size
        assert h2 < h1

    @pytest.mark.parametrize("level", [1, 2])
    def test_audit_passes_default_thresholds(self, level):
        assert audit_mesh(generate_hexa(level)).passed

    def test_rejects_level_zero(self):
        with pytest.raises(MeshError):
            generate_hexa(0)

    def test_regular_variant_mirror_symmetric(self):
        m = generate_hexa(1, distortion=0.0)
        from scipy.spatial import cKDTree

        tree = cKDTree(m.vertices)
        mirrored = m.vertices * np.array([-1.0, 1.0]) + np.array([1.0, 0.0])
        d, _ = tree.query(mirrored)
        assert d.max() < 1e-9


class TestVoronoiGenerator:
    def test_two_seeds_single_bisector(self):
        m = generate_voronoi(2, rng_seed=3)
        assert m.num_cells == 2
        assert np.count_nonzero(m.edge_cells[:, 1] >= 0) == 1

    def test_lloyd_energy_non_increasing(self):
        # the energy (Du, Faber & Gunzburger, SIAM Review 41, 1999) of the
        # per-seed oracle, whose steps give generate_voronoi's seeds bit for
        # bit; the steps run on the reduced mirror (reach 4 / sqrt(n) < 1)
        for n_seeds, rng_seed in [(64, 7), (256, 2024), (256, 801)]:
            _, e = lloyd_voronoi_loop(n_seeds, 100, rng_seed)
            assert len(e) == 101
            assert all(e[i + 1] <= e[i] * (1.0 + 1e-12) for i in range(len(e) - 1))

    def test_deterministic_for_fixed_seed(self):
        a = generate_voronoi(32, lloyd_iters=5, rng_seed=11)
        b = generate_voronoi(32, lloyd_iters=5, rng_seed=11)
        assert np.array_equal(a.vertices, b.vertices)
        assert all(np.array_equal(x, y) for x, y in zip(a.cells, b.cells))

    def test_rejects_single_seed(self):
        with pytest.raises(MeshError):
            generate_voronoi(1)

    def test_area_partition(self):
        m = generate_voronoi(64, lloyd_iters=0, rng_seed=5)
        assert abs(m.cell_areas.sum() - 1.0) < 1e-12


@pytest.mark.parametrize(
    "mesh_factory",
    [
        lambda: generate_quad(4),
        lambda: generate_hexa(1),
        lambda: generate_voronoi(40, lloyd_iters=20, rng_seed=1),
        lambda: generate_voronoi(40, lloyd_iters=0, rng_seed=1),
    ],
    ids=["quad", "hexa", "voro", "rand"],
)
class TestMeshInvariants:
    def test_euler_formula(self, mesh_factory):
        assert euler_characteristic(mesh_factory()) == 1

    def test_area_partition(self, mesh_factory):
        assert abs(mesh_factory().cell_areas.sum() - 1.0) < 1e-12

    def test_edge_incidence(self, mesh_factory):
        mesh = mesh_factory()
        for e in range(mesh.num_edges):
            n_inc = int(mesh.edge_cells[e, 0] >= 0) + int(mesh.edge_cells[e, 1] >= 0)
            assert n_inc == (1 if e in mesh.boundary_edges else 2)

    def test_boundary_normals_outward_unit(self, mesh_factory):
        mesh = mesh_factory()
        for e, sign in zip(mesh.boundary_edges, mesh.boundary_signs):
            n = sign * mesh.edge_normals[e]
            assert abs(np.hypot(*n) - 1.0) < 1e-12
            mid = 0.5 * (mesh.vertices[mesh.edges[e, 0]] + mesh.vertices[mesh.edges[e, 1]])
            c = mesh.cell_centroids[mesh.edge_cells[e, 0]]
            assert np.dot(n, mid - c) > 0.0

    def test_mesh_size_is_max_diameter(self, mesh_factory):
        mesh = mesh_factory()
        diams = []
        for ci in range(mesh.num_cells):
            verts = cell_polygon(mesh, ci)
            d2 = np.sum((verts[:, None] - verts[None, :]) ** 2, axis=-1)
            diams.append(np.sqrt(d2.max()))
        assert abs(mesh.mesh_size - max(diams)) < 1e-15


class TestAuditMesh:
    def test_unit_square(self):
        mesh = PolyMesh(SQUARE, [[0, 1, 2, 3]])
        rep = audit_mesh(mesh)
        assert abs(rep.rho_ratio[0] - 0.5 / np.sqrt(2.0)) < 1e-9
        assert rep.edge_count[0] == 4

    def test_regular_hexagon_passes_gamma_03(self):
        ang = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
        hexa = 0.5 * np.column_stack([np.cos(ang), np.sin(ang)])  # unit diameter
        mesh = PolyMesh(hexa, [list(range(6))])
        rep = audit_mesh(mesh)
        assert rep.passed
        assert rep.edge_count[0] == 6
        assert rep.rho_ratio[0] >= 0.3
        assert abs(rep.rho_ratio[0] - np.sqrt(3.0) / 4.0) < 1e-9

    def test_triangle_attains_edge_bound(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.8]])
        mesh = PolyMesh(tri, [[0, 1, 2]])
        rep = audit_mesh(mesh)
        assert rep.passed
        assert rep.edge_count[0] == 3
        assert rep.rho_ratio[0] >= 0.05

    def test_invariant_under_rigid_motion(self):
        mesh = generate_voronoi(25, lloyd_iters=20, rng_seed=4)
        rep = audit_mesh(mesh)
        theta = 0.73
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = PolyMesh(mesh.vertices @ rot.T + np.array([3.0, -1.0]), mesh.cells)
        rep2 = audit_mesh(moved)
        assert np.array_equal(rep.edge_count, rep2.edge_count)
        assert np.allclose(rep.rho_ratio, rep2.rho_ratio, rtol=1e-12, atol=0.0)
        assert np.array_equal(rep.cell_passed, rep2.cell_passed)


def random_convex_mesh(seed):
    rng = np.random.default_rng(seed)
    return polygon_mesh([random_convex_polygon(rng, 3, 9) + 2.0 * i for i in range(8)])


AUDIT_MESHES = {
    "hexa-1": lambda: generate_hexa(1),
    "hexa-2": lambda: generate_hexa(2),
    "hexa-3": lambda: generate_hexa(3),
    "voro-1": lambda: generate_family("voro", 1, rng_seed=2024),
    "voro-2": lambda: generate_family("voro", 2, rng_seed=2024),
    "rand-1": lambda: generate_family("rand", 1, rng_seed=2024),
    "rand-2": lambda: generate_family("rand", 2, rng_seed=2024),
    "convex-0": lambda: random_convex_mesh(0),
    "convex-1": lambda: random_convex_mesh(1),
}


@functools.cache
def lp_audited(name):
    """A mesh of AUDIT_MESHES and its LP audit, built once per test session."""
    mesh = AUDIT_MESHES[name]()
    return mesh, lp_audit(mesh)


class TestAuditAgainstLinearProgram:
    """The closed-form centroid ball against the per-cell LP (helpers.lp_audit):
    it is certified to lie inside the convex cell, so its radius can be at
    most the LP's Chebyshev radius, up to the LP's own rounding."""

    @pytest.mark.parametrize("name", list(AUDIT_MESHES))
    def test_apex_ball_bounds_the_lp_radius(self, name):
        mesh, (lp_rho, _) = lp_audited(name)
        rho = audit_mesh(mesh).rho_ratio
        assert np.all(rho > 0.0)
        assert np.all(rho <= lp_rho * (1.0 + 1e-12))

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_hexa_pass_mask_matches_the_lp(self, level):
        mesh, (_, lp_passed) = lp_audited(f"hexa-{level}")
        assert np.array_equal(audit_mesh(mesh).cell_passed, lp_passed)


class TestPolyMeshValidation:
    def test_rejects_clockwise_cell(self):
        with pytest.raises(MeshError):
            PolyMesh(SQUARE, [[0, 3, 2, 1]])

    def test_rejects_self_intersecting_cell(self):
        with pytest.raises(MeshError):
            PolyMesh(SQUARE, [[0, 2, 1, 3]])

    def test_permuted_preserves_geometry(self):
        mesh = generate_quad(3)
        perm = list(reversed(range(mesh.num_cells)))
        other = PolyMesh(mesh.vertices, [mesh.cells[p] for p in perm])
        assert euler_characteristic(other) == 1
        assert abs(other.cell_areas.sum() - 1.0) < 1e-14
        assert set(map(tuple, other.edges.tolist())) == set(map(tuple, mesh.edges.tolist()))
