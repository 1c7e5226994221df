"""Stacked data evaluation against the per-cell and per-edge loops.

The right-hand side, the boundary and reaction forms, interpolation and
the error norms evaluate the problem data once per time on stacked
points. The loops below evaluate it once per cell or edge, as the
assembly did before, and serve as the oracle; the two differ only in
summation order.
"""

import numpy as np
import pytest

from vemtransport.config import load_preset
from vemtransport.darcy import _legendre_values, analytic_velocity
from vemtransport.element import monomial_gradients, uniform_edge_params
from vemtransport.geometry import generate_quad, generate_voronoi
from vemtransport.postproc import ErrorEvaluator
from vemtransport.problems import ManufacturedProblem, WellsProblem
from vemtransport.quadrature import edge_rule, lagrange_values
from vemtransport.transport import TransportProblem, TransportSystem

from helpers import VemElement, cell_polygon, edge_trace_matrix

RTOL = 1e-13


def assert_rel_close(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= RTOL * scale


# -- the per-cell / per-edge oracles -------------------------------------


def elements(space):
    """(VemElement, global dofs) of every cell, a cell group at a time."""
    mesh = space.mesh
    for cg, group_dofs in zip(mesh.cell_groups, space.group_dofs):
        for ci, dofs in zip(cg.cells, group_dofs):
            yield VemElement(cell_polygon(mesh, ci), space.k), dofs


def boundary_edges(system):
    """(end points, outward normal, global trace dofs, outward u . n as a
    function of the canonical edge parameter) of every boundary edge."""
    mesh, k = system.mesh, system.k
    coeffs = system.problem.velocity.edge_flux_coeffs
    for e, sign in zip(mesh.boundary_edges.tolist(), mesh.boundary_signs.tolist()):
        a, b = mesh.edges[e]
        dofs = [a] + [mesh.num_vertices + e * (k - 1) + j for j in range(k - 1)] + [b]
        un = lambda params, e=e, sign=sign: sign * (_legendre_values(k, params) @ coeffs[e])
        yield mesh.vertices[[a, b]], sign * mesh.edge_normals[e], np.array(dofs), un


def loop_rhs(system, t):
    space, problem = system.space, system.problem
    F = np.zeros(space.n_dofs)
    for elem, dofs in elements(space):
        pts = elem.data_points
        fv = np.asarray(problem.f(t, pts), dtype=float)
        vals = np.maximum(fv, 0.0) * np.asarray(problem.c_tilde(t, pts), dtype=float)
        F[dofs] += elem.load_vector(vals)
    G = np.zeros(space.n_dofs)
    for (p0, p1), normal, dofs, un in boundary_edges(system):
        er = edge_rule(p0, p1, 2 * system.k + 4)
        trace = lagrange_values(uniform_edge_params(system.k), er.params)
        ci_vals = np.asarray(problem.c_inflow(t, er.points, normal), dtype=float)
        G[dofs] += trace.T @ (er.weights * -np.minimum(un(er.params), 0.0) * ci_vals)
    return F, G


def loop_boundary_and_reaction(system, t):
    space, problem = system.space, system.problem
    n = space.n_dofs
    lam = np.zeros((n, n))
    for (p0, p1), _, dofs, un in boundary_edges(system):
        weight = lambda params: np.abs(un(params))
        lam[np.ix_(dofs, dofs)] += edge_trace_matrix(p0, p1, system.k, weight)
    R = np.zeros((n, n))
    for elem, dofs in elements(space):
        R[np.ix_(dofs, dofs)] += elem.reaction_matrix(lambda p: problem.f(t, p))
    return lam, R


def loop_interpolate(space, g):
    out = np.zeros(space.n_dofs)
    for elem, dofs in elements(space):
        out[dofs] = elem.interpolate(g)
    return out


def loop_spatial_errors(system, coeffs, t, c_exact, grad_exact):
    l2 = 0.0
    h1 = 0.0
    for elem, dofs in elements(system.space):
        loc = coeffs[dofs]
        pts, w = elem.data_points, elem.data_weights
        vals = elem.data_phi @ (elem.pi0_coef @ loc)
        l2 += float(w @ (np.asarray(c_exact(t, pts), dtype=float) - vals) ** 2)
        _, gx, gy = monomial_gradients(pts, elem.centroid, elem.diameter, elem.k)
        pin = elem.pin_coef @ loc
        gex = np.asarray(grad_exact(t, pts), dtype=float)
        h1 += float(w @ ((gex[:, 0] - gx @ pin) ** 2 + (gex[:, 1] - gy @ pin) ** 2))
    return l2, h1


# -- fixtures ------------------------------------------------------------


MESHES = {
    "quad": lambda: generate_quad(4),
    "voronoi": lambda: generate_voronoi(20, lloyd_iters=10, rng_seed=3),
}


def skewed_flow(p):
    # u . n varies along the inflow walls x = 0 and y = 0, so the
    # per-point inflow weights differ within every inflow edge
    return ManufacturedProblem().velocity(p) + p[:, ::-1]


def manufactured_system(mesh, k):
    data = ManufacturedProblem(D=0.1)
    vel = analytic_velocity(skewed_flow, mesh, k)
    prob = TransportProblem(
        D=data.D, velocity=vel, f=data.f, c_tilde=data.c_tilde,
        c_inflow=data.c_inflow, c0=data.c0,
    )
    return TransportSystem(mesh, k, prob), data


def wells_system(mesh, k):
    wells = WellsProblem("homo")
    vel = analytic_velocity(skewed_flow, mesh, k)
    prob = TransportProblem(
        D=load_preset("wells-homo").D, velocity=vel, f=wells.f, c_tilde=wells.c_tilde,
        c_inflow=wells.c_inflow, c0=wells.c0,
    )
    return TransportSystem(mesh, k, prob), wells


@pytest.fixture(scope="module", params=[(m, k) for m in MESHES for k in (1, 2, 3)],
                ids=lambda p: f"{p[0]}-k{p[1]}")
def case(request):
    name, k = request.param
    return MESHES[name](), k


# -- tests ---------------------------------------------------------------


@pytest.mark.parametrize("build", [manufactured_system, wells_system])
def test_rhs_matches_loops(case, build):
    mesh, k = case
    system, _ = build(mesh, k)
    for t in (0.3, 0.9):
        F, G = system.rhs(t)
        F_ref, G_ref = loop_rhs(system, t)
        assert np.max(np.abs(F_ref)) > 0.0
        assert_rel_close(F, F_ref)
        assert_rel_close(G, G_ref)
    if build is manufactured_system:
        assert np.max(np.abs(G_ref)) > 0.0  # the inflow term is exercised


@pytest.mark.parametrize("build", [manufactured_system, wells_system])
def test_boundary_and_reaction_forms_match_loops(case, build):
    mesh, k = case
    system, _ = build(mesh, k)
    _, _, lam, R = system.operator_parts()
    lam_ref, R_ref = loop_boundary_and_reaction(system, 0.0)
    assert_rel_close(lam.toarray(), lam_ref)
    assert_rel_close(R.toarray(), R_ref)


def test_interpolate_matches_loop(case):
    mesh, k = case
    system, _ = manufactured_system(mesh, k)
    g = lambda p: np.sin(2.0 * p[:, 0]) * np.exp(p[:, 1])
    assert_rel_close(system.space.interpolate(g), loop_interpolate(system.space, g))


@pytest.mark.parametrize("build", [manufactured_system, wells_system])
def test_spatial_errors_match_loop(case, build):
    mesh, k = case
    system, data = build(mesh, k)
    manufactured = ManufacturedProblem()
    # a dof vector that is not the interpolant, so both norms are nonzero
    coeffs = system.space.interpolate(lambda p: manufactured.c(0.7, p) + 0.1 * data.f(0.7, p))
    ev = ErrorEvaluator(system)
    l2, h1 = ev.spatial_errors(coeffs, 0.7, manufactured.c, manufactured.grad_c)
    l2_ref, h1_ref = loop_spatial_errors(system, coeffs, 0.7, manufactured.c, manufactured.grad_c)
    assert l2_ref > 0.0 and h1_ref > 0.0
    assert l2 == pytest.approx(l2_ref, rel=RTOL)
    assert h1 == pytest.approx(h1_ref, rel=RTOL)


def test_point_map_holds_the_monomial_table_without_a_copy(case):
    mesh, k = case
    system, _ = manufactured_system(mesh, k)
    space = system.space
    point_map = ErrorEvaluator(system).point_map
    assert np.shares_memory(point_map.data, space.data_phi)
    assert point_map.shape == (len(space.data_points), mesh.num_cells * space.data_phi.shape[1])


def test_one_data_call_per_time_node():
    # f is stationary: one call per system; c_tilde and c_inflow: one per time
    mesh = generate_quad(4)
    calls = {"f": 0, "c_tilde": 0, "c_inflow": 0}
    data = ManufacturedProblem()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    vel = analytic_velocity(data.velocity, mesh, 1)
    prob = TransportProblem(
        D=1.0, velocity=vel, f=counted("f", data.f),
        c_tilde=counted("c_tilde", data.c_tilde), c_inflow=counted("c_inflow", data.c_inflow),
    )
    system = TransportSystem(mesh, 1, prob)
    system.rhs(0.5)
    assert calls == {"f": 1, "c_tilde": 1, "c_inflow": 1}
    system.rhs(0.9)
    system.operator_parts()
    assert calls == {"f": 1, "c_tilde": 2, "c_inflow": 2}
