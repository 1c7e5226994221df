import numpy as np
import pytest

from vemtransport import darcy
from vemtransport.darcy import (
    DarcyError,
    DarcyProblem,
    _legendre_values,
    analytic_velocity,
    solve_darcy_mixed,
)
from vemtransport.element import gram, monomials, n_poly
from vemtransport.geometry import generate_hexa, generate_quad, generate_voronoi
from vemtransport.linalg import solve as linalg_solve
from vemtransport.quadrature import edge_rule

from helpers import (
    MonomialBasis,
    cell_edges,
    group_values,
    multiplier_darcy_solve,
    pressure_l2_error,
    saddle_darcy_solve,
    velocity_l2_error,
)


def all_dirichlet(mesh):
    return frozenset(int(e) for e in mesh.boundary_edges)


def cell_values(coeffs, k, mesh, degree):
    """(cell, points, weights, values) of elementwise degree-k polynomials
    on the degree-`degree` rule of every cell, a cell group at a time."""
    for cg in mesh.cell_groups:
        points, weights = cg.rule(degree)
        yield from zip(cg.cells, points, weights, group_values(coeffs, k, cg, points))


def exp_field(p):
    return np.column_stack([np.exp(p[:, 0]), np.exp(p[:, 1])])


def exp_pressure(p):
    return np.exp(p[:, 0]) + np.exp(p[:, 1])


def exp_divergence(p):
    return np.exp(p[:, 0]) + np.exp(p[:, 1])


def exp_outward_flux(p):
    """u . n of exp_field on the walls of the unit square."""
    normals = np.column_stack([
        np.isclose(p[:, 0], 1.0, atol=1e-9).astype(float) - np.isclose(p[:, 0], 0.0, atol=1e-9),
        np.isclose(p[:, 1], 1.0, atol=1e-9).astype(float) - np.isclose(p[:, 1], 0.0, atol=1e-9),
    ])
    return np.sum(exp_field(p) * normals, axis=1)


def x_walls(mesh):
    """The boundary edges on the walls x = 0 and x = 1."""
    mids = mesh.vertices[mesh.edges[mesh.boundary_edges]].mean(axis=1)
    on_wall = (mids[:, 0] < 1e-12) | (mids[:, 0] > 1.0 - 1e-12)
    return frozenset(int(e) for e in mesh.boundary_edges[on_wall])


#: flow data on the unit square with exact pressure exp(x) + exp(y): pressure
#: data on every wall, on the x-walls only, or flux data on every wall
DATA = {
    "dirichlet": lambda mesh: DarcyProblem(
        f=exp_divergence, g_D=exp_pressure, dirichlet_edges=all_dirichlet(mesh)),
    "mixed": lambda mesh: DarcyProblem(
        f=exp_divergence, g_D=exp_pressure, g_N=exp_outward_flux, dirichlet_edges=x_walls(mesh)),
    "neumann": lambda mesh: DarcyProblem(
        f=exp_divergence, g_N=exp_outward_flux, dirichlet_edges=frozenset()),
}


def spy_systems(monkeypatch):
    """Matrices that reach darcy.solve, collected while the solve runs."""
    systems = []

    def spy(A, b, **kwargs):
        systems.append(A)
        return linalg_solve(A, b, **kwargs)

    monkeypatch.setattr(darcy, "solve", spy)
    return systems


MESHES = {
    "quad": lambda: generate_quad(4),
    "hexa": lambda: generate_hexa(1),
    "voro": lambda: generate_voronoi(16, lloyd_iters=40, rng_seed=5),
    "rand": lambda: generate_voronoi(16, lloyd_iters=0, rng_seed=11),
}


class TestPatchTest:
    @pytest.mark.parametrize("family", list(MESHES))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_affine_pressure_exact(self, family, k):
        mesh = MESHES[family]()
        prob = DarcyProblem(g_D=lambda p: p[:, 0], dirichlet_edges=all_dirichlet(mesh))
        vel, pres = solve_darcy_mixed(mesh, prob, k)
        uerr = velocity_l2_error(
            vel, lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))])
        )
        assert uerr < 1e-10
        if k >= 1:
            assert pressure_l2_error(pres, k, lambda p: p[:, 0], mesh) < 1e-10

    def test_permeability_scaling(self):
        mesh = generate_quad(3)
        prob = DarcyProblem(
            K_perm=2.0, mu=0.5, g_D=lambda p: p[:, 1], dirichlet_edges=all_dirichlet(mesh)
        )
        vel, _ = solve_darcy_mixed(mesh, prob, 1)
        # u = (K/mu) grad p = 4 e_y
        uerr = velocity_l2_error(
            vel, lambda p: np.column_stack([np.zeros(len(p)), 4.0 * np.ones(len(p))])
        )
        assert uerr < 1e-9


class TestManufacturedRates:
    @pytest.mark.parametrize("k", [1, 2])
    def test_velocity_rate_is_k_plus_one(self, k):
        errs, hs = [], []
        for n in (4, 8, 16):
            mesh = generate_quad(n)
            prob = DarcyProblem(
                f=exp_divergence, g_D=exp_pressure, dirichlet_edges=all_dirichlet(mesh)
            )
            vel, _ = solve_darcy_mixed(mesh, prob, k)
            errs.append(velocity_l2_error(vel, exp_field))
            hs.append(mesh.mesh_size)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(rate - (k + 1)) < 0.2


class TestConservation:
    def test_elementwise_divergence_is_projected_source(self):
        mesh = generate_quad(8)
        prob = DarcyProblem(
            f=exp_divergence, g_D=exp_pressure, dirichlet_edges=all_dirichlet(mesh)
        )
        k = 1
        vel, _ = solve_darcy_mixed(mesh, prob, k)
        worst = 0.0
        for ci, pts, w, dv in cell_values(vel.cell_divergence, k, mesh, 2 * k + 2):
            basis = MonomialBasis(k, mesh.cell_centroids[ci], mesh.cell_diameters[ci])
            phi = basis.evaluate(pts)
            H = phi.T @ (w[:, None] * phi)
            proj = np.linalg.solve(H, phi.T @ (w * exp_divergence(pts)))
            worst = max(worst, np.max(np.abs(dv - phi @ proj)))
        assert worst < 1e-10

    def test_per_cell_flux_balance(self):
        # divergence theorem per cell ties the edge fluxes to the divergence
        mesh = generate_voronoi(25, lloyd_iters=20, rng_seed=3)
        prob = DarcyProblem(
            f=exp_divergence, g_D=exp_pressure, dirichlet_edges=all_dirichlet(mesh)
        )
        k = 1
        vel, _ = solve_darcy_mixed(mesh, prob, k)
        for ci, _, w, dv in cell_values(vel.cell_divergence, k, mesh, 4):
            outflux = 0.0
            for e, direction in cell_edges(mesh, ci):
                p0, p1 = mesh.vertices[mesh.edges[e]]
                er = edge_rule(p0, p1, 2 * k + 2)
                vals = _legendre_values(k, er.params) @ vel.edge_flux_coeffs[e]
                outflux += direction * float(er.weights @ vals)
            assert abs(outflux - float(w @ dv)) < 1e-10

    def test_interior_fluxes_single_valued(self):
        # by construction one flux polynomial per edge; sanity via storage shape
        mesh = generate_quad(3)
        prob = DarcyProblem(g_D=lambda p: p[:, 0], dirichlet_edges=all_dirichlet(mesh))
        vel, _ = solve_darcy_mixed(mesh, prob, 2)
        assert vel.edge_flux_coeffs.shape == (mesh.num_edges, 3)
        assert vel.f_mean_removed == 0.0  # a flow with Dirichlet edges keeps its source


class TestNeumannAndCompatibility:
    def test_pure_neumann_compatible_solves_with_gauge(self):
        mesh = generate_quad(4)
        # f with zero mean; g_N = 0
        prob = DarcyProblem(
            f=lambda p: np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
            g_N=lambda p: np.zeros(len(p)),
            dirichlet_edges=frozenset(),
        )
        vel, pres = solve_darcy_mixed(mesh, prob, 1)
        # zero-mean pressure gauge
        total = 0.0
        for _, _, w, p in cell_values(pres, 1, mesh, 3):
            total += float(w @ p)
        assert abs(total) < 1e-9

    @pytest.mark.parametrize("family", ["quad", "hexa"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_gauge_matches_multiplier_system(self, family, k):
        # a source with integral(f) - integral(g_N) = mismatch, at roundoff
        # size and at a size no rounding makes: the pinned solve must spread
        # it over the domain as the multiplier does, not put it into the
        # pinned cell, and record its mean
        mesh = MESHES[family]()
        for mismatch in (5e-11, 0.3):
            prob = DarcyProblem(
                f=lambda p: p[:, 0] + p[:, 1] ** 2 - 5.0 / 6.0 + mismatch,
                g_N=lambda p: np.zeros(len(p)),
                dirichlet_edges=frozenset(),
            )
            vel, pres = solve_darcy_mixed(mesh, prob, k)
            flux, u, div, p = multiplier_darcy_solve(mesh, prob, k)
            got = (vel.edge_flux_coeffs, vel.cell_velocity, vel.cell_divergence, pres)
            names = ("flux", "velocity", "divergence", "pressure")
            for name, a, b in zip(names, got, (flux, u, div, p)):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (name, mismatch)
            assert abs(vel.f_mean_removed - mismatch / mesh.cell_areas.sum()) <= 1e-14

    def test_saddle_system_has_no_dense_row(self, monkeypatch):
        # the condensed system couples a multiplier dof only to the
        # multipliers of the cells that share its edge: their 2 nv - 1
        # edges; pinning one multiplier adds no row or column
        mesh = generate_hexa(2)
        k = 1
        systems = spy_systems(monkeypatch)
        prob = DarcyProblem(
            f=lambda p: p[:, 0] - 0.5, g_N=lambda p: np.zeros(len(p)), dirichlet_edges=frozenset()
        )
        solve_darcy_mixed(mesh, prob, k)
        nv = max(cg.verts.shape[1] for cg in mesh.cell_groups)
        (A,) = systems
        assert np.diff(A.tocsr().indptr).max() <= (2 * nv - 1) * (k + 1)

    def test_mixed_boundary_types(self):
        # exact solution p = y: flux through y-walls, pressure on x-walls
        mesh = generate_quad(4)
        dirichlet, neumann = [], []
        for e in mesh.boundary_edges:
            mid = 0.5 * (mesh.vertices[mesh.edges[e, 0]] + mesh.vertices[mesh.edges[e, 1]])
            if mid[0] < 1e-12 or mid[0] > 1 - 1e-12:
                dirichlet.append(int(e))
            else:
                neumann.append(int(e))

        def g_N(p):
            # u = (0, 1): outward flux is -1 at y=0 and +1 at y=1
            return np.where(p[:, 1] > 0.5, 1.0, -1.0)

        prob = DarcyProblem(
            g_D=lambda p: p[:, 1], g_N=g_N, dirichlet_edges=frozenset(dirichlet)
        )
        vel, pres = solve_darcy_mixed(mesh, prob, 1)
        uerr = velocity_l2_error(
            vel, lambda p: np.column_stack([np.zeros(len(p)), np.ones(len(p))])
        )
        assert uerr < 1e-9
        assert pressure_l2_error(pres, 1, lambda p: p[:, 1], mesh) < 1e-9


class TestHybridization:
    @pytest.mark.parametrize("family", list(MESHES))
    @pytest.mark.parametrize("data", list(DATA))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_the_saddle_system(self, family, data, k):
        # the condensed solve gives the monolithic saddle solution, and
        # every cell's divergence balances its (shifted) source moments
        mesh = MESHES[family]()
        prob = DATA[data](mesh)
        vel, _ = solve_darcy_mixed(mesh, prob, k)
        flux, u, _, _, lam = saddle_darcy_solve(mesh, prob, k)
        for name, got, ref in (("flux", vel.edge_flux_coeffs, flux),
                               ("velocity", vel.cell_velocity, u)):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), name
        assert abs(vel.f_mean_removed - lam) <= 1e-14
        for g, cg in zip(darcy._flux_groups(mesh, k, prob.f), mesh.cell_groups):
            points, w = cg.rule(2 * (k + 1))
            phi = monomials(points, cg.centroid, cg.diameter, k)
            balance = (gram(phi, w, phi) @ vel.cell_divergence[cg.cells, :, None])[..., 0]
            source = g.f_moments - lam * g.int_m
            assert np.max(np.abs(balance - source)) <= 1e-12 * np.max(np.abs(source))

    @pytest.mark.parametrize("data", list(DATA))
    @pytest.mark.parametrize("k", [1, 2])
    def test_condensed_system_is_symmetric_positive_definite(self, monkeypatch, data, k):
        # the premise of the pivot-free symmetric-mode LU on the multipliers
        mesh = generate_voronoi(9, lloyd_iters=10, rng_seed=2)
        systems = spy_systems(monkeypatch)
        solve_darcy_mixed(mesh, DATA[data](mesh), k)
        (A,) = systems
        dense = A.toarray()
        assert np.max(np.abs(dense - dense.T)) <= 1e-13 * np.max(np.abs(dense))
        assert np.linalg.eigvalsh(dense)[0] > 0.0


class TestAnalyticVelocity:
    def test_unit_field_edge_fluxes(self):
        mesh = generate_quad(2)
        vel = analytic_velocity(
            lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]), mesh, 1
        )
        P = _legendre_values(1, np.array([0.3, 0.7]))
        for e in range(mesh.num_edges):
            p0, p1 = mesh.vertices[mesh.edges[e]]
            vals = P @ vel.edge_flux_coeffs[e]
            if abs(p0[0] - p1[0]) < 1e-14:  # vertical edge
                assert np.allclose(np.abs(vals), 1.0, atol=1e-12)
            else:
                assert np.max(np.abs(vals)) < 1e-12

    def test_exponential_means(self):
        mesh = generate_quad(4)
        vel = analytic_velocity(exp_field, mesh, 1)
        for _, pts, w, u in cell_values(vel.cell_velocity, 1, mesh, 4):
            mean_proj = w @ u[:, 0]
            mean_exact = w @ np.exp(pts[:, 0])
            assert abs(mean_proj - mean_exact) < 1e-8

    def test_zero_field(self):
        mesh = generate_quad(2)
        vel = analytic_velocity(lambda p: np.zeros((len(p), 2)), mesh, 2)
        assert np.max(np.abs(vel.edge_flux_coeffs)) == 0.0
        assert velocity_l2_error(vel, lambda p: np.zeros((len(p), 2))) == 0.0


class TestProblemValidation:
    def test_positive_coefficients_required(self):
        with pytest.raises(DarcyError):
            DarcyProblem(K_perm=0.0)
        with pytest.raises(DarcyError):
            DarcyProblem(mu=-1.0)

    def test_dirichlet_edges_must_lie_on_boundary(self):
        mesh = generate_quad(3)
        interior = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
        prob = DarcyProblem(dirichlet_edges=frozenset([int(interior[0])]))
        with pytest.raises(DarcyError):
            solve_darcy_mixed(mesh, prob, 1)
