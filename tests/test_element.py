import numpy as np
import pytest

from vemtransport import element
from vemtransport.element import (
    VemSpace,
    monomial_exponents,
    monomial_gradients,
    monomials,
    n_poly,
)
from vemtransport.geometry import generate_quad, generate_voronoi
from vemtransport.quadrature import polygon_rule

from helpers import (
    LocalSpaceOracle,
    VemElement,
    _dense_polygon_rule,
    cell_polygon,
    edge_trace_matrix,
    h1_project_callback,
    pow_monomial_gradients,
    pow_monomials,
    random_convex_polygon,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
HEXAGON = np.array(
    [[np.cos(a), np.sin(a)] for a in np.linspace(0.0, 2.0 * np.pi, 7)[:-1]]
)


def random_poly_callback(rng, k):
    exps = monomial_exponents(k)
    coefs = rng.standard_normal(len(exps))

    def p(pts):
        return sum(
            c * pts[:, 0] ** a * pts[:, 1] ** b for c, (a, b) in zip(coefs, exps)
        )

    def grad(pts):
        gx = sum(
            c * a * pts[:, 0] ** max(a - 1, 0) * pts[:, 1] ** b
            for c, (a, b) in zip(coefs, exps)
        )
        gy = sum(
            c * b * pts[:, 0] ** a * pts[:, 1] ** max(b - 1, 0)
            for c, (a, b) in zip(coefs, exps)
        )
        return np.column_stack([gx + 0 * pts[:, 0], gy + 0 * pts[:, 0]])

    return p, grad


def kernel_cases():
    """(points, center, scale) on the stacked shapes the callers use:
    (m, 2) and (1, 2) for one cell, (n, m, 2) for a cell group and
    (n, e, m, 2) for its edges, which share their cell's center and
    scale. Points scatter on both sides of the centers, so relative
    coordinates take both signs, and every fifth point is a center."""
    rng = np.random.default_rng(7)
    n, e, m = 40, 5, 25

    def around(center, scale, lead):
        points = center[..., None, :] + rng.uniform(-1.0, 1.0, lead + (m, 2)) * scale[..., None, None]
        points[..., ::5, :] = center[..., None, :]
        return points

    c1, h1 = rng.uniform(-1.0, 1.0, 2), np.asarray(rng.uniform(0.05, 2.0))
    cn, hn = rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(0.05, 2.0, n)
    ce, he = cn[:, None], hn[:, None]
    return [
        (around(c1, h1, ()), c1, h1),
        (around(c1, h1, ())[1:2], c1, h1),
        (around(cn, hn, (n,)), cn, hn),
        (around(ce, he, (n, e)), ce, he),
    ]


def kernel_faults(values_fn, gradients_fn):
    """Every way values_fn and gradients_fn (values, d/dx, d/dy) depart from
    the pow-per-monomial oracle: a value that differs in any bit, or an
    output that is not C-contiguous (the layout changes the bits of later
    matmuls)."""
    faults = []
    names = ["values", "gradient-call values", "d/dx", "d/dy"]
    for k in range(1, 7):
        for points, center, scale in kernel_cases():
            values = pow_monomials(points, center, scale, k)
            ref = [values, values, *pow_monomial_gradients(points, center, scale, k)]
            got = [values_fn(points, center, scale, k),
                   *gradients_fn(points, center, scale, k)]
            assert len(got) == len(ref)
            for name, r, g in zip(names, ref, got):
                where = f"k={k} {name} on {points.shape}"
                if not g.flags.c_contiguous:
                    faults.append(f"{where}: not C-contiguous")
                if g.shape != r.shape or not np.array_equal(g.view(np.uint64), r.view(np.uint64)):
                    faults.append(f"{where}: bits differ")
    return faults


def stride0_power_tables(points, center, scale, k):
    # scalar exponents: numpy squares instead of calling pow for e = 2
    u = element._power_tables(points, center, scale, 1)[..., 1]
    return np.stack([u**e for e in range(k + 1)], axis=-1)


def gathered_monomials(power_tables, columns):
    """element.monomials with its power tables and its column gather
    replaced, to show that kernel_faults catches either rule broken."""
    def values(points, center, scale, k):
        a, b = monomial_exponents(k).T
        px, py = power_tables(points, center, scale, k)
        return columns(px, a) * columns(py, b)
    return values


def take_columns(table, exps):
    return np.take(table, exps, -1)


def fancy_columns(table, exps):
    return table[..., exps]


class TestPowerTableKernel:
    def test_matches_pow_oracle_bitwise_and_c_contiguous(self):
        assert kernel_faults(monomials, monomial_gradients) == []

    def test_gradient_outputs_own_their_memory(self):
        # ElementGroup keeps phi alone at k = 1; views of one block would
        # keep the two derivative tables alive with it
        points, center, scale = kernel_cases()[2]
        assert all(out.base is None for out in monomial_gradients(points, center, scale, 2))

    def test_gather_alone_passes_the_check(self):
        values = gathered_monomials(element._power_tables, take_columns)
        assert kernel_faults(values, monomial_gradients) == []

    def test_check_catches_a_stride0_exponent(self):
        values = gathered_monomials(stride0_power_tables, take_columns)
        faults = kernel_faults(values, monomial_gradients)
        assert "k=2 values on (25, 2): bits differ" in faults

    def test_check_catches_fancy_indexed_columns(self):
        values = gathered_monomials(element._power_tables, fancy_columns)
        faults = kernel_faults(values, monomial_gradients)
        assert any("not C-contiguous" in f for f in faults)


class TestProjectorConsistency:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_projectors_reproduce_polynomials_random_cells(self, k):
        rng = np.random.default_rng(k)
        for _ in range(12):
            poly = random_convex_polygon(rng)
            el = VemElement(poly, k)
            eye = np.eye(el.n_poly)
            assert np.max(np.abs(el.pin_coef @ el.D - eye)) < 1e-10
            assert np.max(np.abs(el.pi0_coef @ el.D - eye)) < 1e-10

    def test_constant_dof_vector_is_fixed_point(self):
        el = VemElement(SQUARE, 2)
        ones = el.interpolate(lambda p: np.ones(len(p)))
        pts = np.array([[0.2, 0.3], [0.8, 0.9]])
        assert np.allclose(el.project_h1_values(ones, pts), 1.0, atol=1e-13)
        assert np.allclose(el.project_l2_values(ones, pts), 1.0, atol=1e-13)

    def test_h1_projection_of_x_squared_function(self):
        # projecting the raw function (not its dof interpolant): x^2 -> x - 1/12
        basis, coef = h1_project_callback(SQUARE, 1, lambda p: p[:, 0] ** 2)
        pts = np.array([[0.15, 0.4], [0.75, 0.2], [0.5, 0.9]])
        got = basis.evaluate(pts) @ coef
        assert np.allclose(got, pts[:, 0] - 1.0 / 12.0, atol=1e-12)

    def test_h1_projection_against_dense_least_squares(self):
        # oracle: minimize the gradient misfit over sampled quadrature points
        g = lambda p: np.exp(p[:, 0]) * np.sin(p[:, 1])
        basis, coef = h1_project_callback(HEXAGON, 2, g)
        pts, w = _dense_polygon_rule(HEXAGON, 8)
        eps = 1e-6
        gx = (g(pts + [eps, 0]) - g(pts - [eps, 0])) / (2 * eps)
        gy = (g(pts + [0, eps]) - g(pts - [0, eps])) / (2 * eps)
        bx, by = basis.gradients(pts)
        sw = np.sqrt(w)
        A = np.vstack([sw[:, None] * bx, sw[:, None] * by])
        b = np.concatenate([sw * gx, sw * gy])
        coef_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
        # gradients match; constants compared through the boundary mean
        grad_got = np.column_stack([bx @ coef, by @ coef])
        grad_ls = np.column_stack([bx @ coef_ls, by @ coef_ls])
        assert np.max(np.abs(grad_got - grad_ls)) < 1e-4

    def test_dof_interpolant_of_x_squared_projects_to_x(self):
        # the k=1 dof vector only sees vertex values, so the projection is x
        el = VemElement(SQUARE, 1)
        dofs = el.interpolate(lambda p: p[:, 0] ** 2)
        pts = np.array([[0.25, 0.6], [0.8, 0.1]])
        assert np.allclose(el.project_h1_values(dofs, pts), pts[:, 0], atol=1e-13)


class TestPi0AndGradients:
    def test_constant_projection(self):
        el = VemElement(HEXAGON, 1)
        ones = el.interpolate(lambda p: np.ones(len(p)))
        assert np.allclose(el.project_l2_values(ones, HEXAGON * 0.3), 1.0, atol=1e-13)

    def test_linear_consistency(self):
        el = VemElement(SQUARE, 1)
        dofs = el.interpolate(lambda p: p[:, 0])
        pts = np.array([[0.1, 0.5], [0.9, 0.2]])
        assert np.allclose(el.project_l2_values(dofs, pts), pts[:, 0], atol=1e-13)

    def test_gradient_projection_of_x_squared_dofs(self):
        el = VemElement(SQUARE, 1)
        dofs = el.interpolate(lambda p: p[:, 0] ** 2)
        coef = el.pg_coef[0] @ dofs
        # mean of 2x over the unit square is 1; higher coefficients vanish
        assert abs(coef[0] - 1.0) < 1e-12
        assert np.max(np.abs(coef[1:])) < 1e-12


class TestLocalMatrices:
    def test_mass_constants(self):
        el = VemElement(SQUARE, 1)
        ones = el.interpolate(lambda p: np.ones(len(p)))
        assert abs(ones @ el.mass_matrix() @ ones - 1.0) < 1e-13

    def test_mass_symmetric(self):
        for k in (1, 2, 3):
            el = VemElement(HEXAGON, k)
            M = el.mass_matrix()
            assert np.max(np.abs(M - M.T)) <= 1e-14 * np.max(np.abs(M))

    def test_stiffness_kernel_is_constants(self):
        el = VemElement(HEXAGON, 2)
        ones = el.interpolate(lambda p: np.ones(len(p)))
        A = el.stiffness_matrix(1.0)
        assert np.max(np.abs(A @ ones)) < 1e-12
        w, _ = np.linalg.eigh(A)
        assert np.sum(w < 1e-10) == 1  # exactly the constants

    def test_stiffness_linear(self):
        el = VemElement(SQUARE, 1)
        dofs = el.interpolate(lambda p: p[:, 0])
        for D in (1.0, 0.37):
            assert abs(dofs @ el.stiffness_matrix(D) @ dofs - D) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_patch_property_random_polygons(self, k):
        # discrete forms match the exact polynomial integrals
        rng = np.random.default_rng(100 + k)
        for _ in range(17):  # ~50 cells over the three degrees
            poly = random_convex_polygon(rng)
            el = VemElement(poly, k)
            p, gp = random_poly_callback(rng, k)
            r, gr = random_poly_callback(rng, k)
            dp = el.interpolate(p)
            dr = el.interpolate(r)
            rule = polygon_rule(poly, 2 * k + 2)
            m_exact = rule.weights @ (p(rule.points) * r(rule.points))
            a_exact = rule.weights @ np.sum(gp(rule.points) * gr(rule.points), axis=1)
            scale = max(1.0, abs(m_exact), abs(a_exact))
            assert abs(dp @ el.mass_matrix() @ dr - m_exact) < 1e-11 * scale
            assert abs(dp @ el.stiffness_matrix(1.0) @ dr - a_exact) < 1e-11 * scale

    def test_convection_example(self):
        el = VemElement(SQUARE, 1)
        u = np.zeros((2, el.n_poly))
        u[0, 0] = 1.0  # constant (1, 0)
        K = el.convection_matrix(u)
        dx = el.interpolate(lambda p: p[:, 0])
        ones = el.interpolate(lambda p: np.ones(len(p)))
        assert abs(ones @ K @ dx - 1.0) < 1e-12

    def test_convection_zero_velocity(self):
        el = VemElement(HEXAGON, 2)
        K = el.convection_matrix(np.zeros((2, el.n_poly)))
        assert np.max(np.abs(K)) == 0.0

    def test_convection_skew_pairing(self):
        el = VemElement(HEXAGON, 2)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((2, el.n_poly))
        K = el.convection_matrix(u)
        B = 0.5 * (K - K.T)
        for _ in range(10):
            v = rng.standard_normal(el.n_dofs)
            assert abs(v @ B @ v) < 1e-14 * max(1.0, np.abs(K).max() * (v @ v))

    def test_reaction_constant(self):
        el = VemElement(SQUARE, 1)
        ones = el.interpolate(lambda p: np.ones(len(p)))
        R = el.reaction_matrix(lambda p: 2.0 * np.ones(len(p)))
        assert abs(ones @ R @ ones - 2.0) < 1e-12

    def test_reaction_zero(self):
        el = VemElement(SQUARE, 2)
        R = el.reaction_matrix(lambda p: np.zeros(len(p)))
        assert np.max(np.abs(R)) == 0.0

    def test_reaction_exponential(self):
        el = VemElement(SQUARE, 1)
        ones = el.interpolate(lambda p: np.ones(len(p)))
        R = el.reaction_matrix(lambda p: np.exp(p[:, 0]) + np.exp(p[:, 1]))
        assert abs(ones @ R @ ones - 2.0 * (np.e - 1.0)) < 1e-5

    def test_reaction_positive_semidefinite(self):
        el = VemElement(HEXAGON, 2)
        R = el.reaction_matrix(lambda p: np.sin(3 * p[:, 0]))  # sign-changing f
        w = np.linalg.eigvalsh(0.5 * (R + R.T))
        assert w.min() > -1e-12


class TestEdgeTrace:
    def test_unit_flux_trace_gram(self):
        # |u.n| = 1 on both x-walls of the unit square, constants: total 2
        total = 0.0
        for p0, p1 in [
            (np.array([0.0, 0.0]), np.array([0.0, 1.0])),
            (np.array([1.0, 0.0]), np.array([1.0, 1.0])),
        ]:
            mat = edge_trace_matrix(p0, p1, 1, lambda t: np.ones(len(t)))
            total += np.ones(2) @ mat @ np.ones(2)
        assert abs(total - 2.0) < 1e-12

    def test_tangent_velocity_zero_matrix(self):
        mat = edge_trace_matrix(
            np.array([0.0, 0.0]), np.array([1.0, 0.0]), 2, lambda t: np.zeros(len(t))
        )
        assert np.max(np.abs(mat)) == 0.0

    def test_homogeneous_in_weight(self):
        p0, p1 = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        w = lambda t: 1.0 + t
        m1 = edge_trace_matrix(p0, p1, 2, w)
        m2 = edge_trace_matrix(p0, p1, 2, lambda t: 2.0 * w(t))
        assert np.allclose(m2, 2.0 * m1, atol=1e-14)


class TestInterpolation:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_polynomial_reproduced(self, k):
        rng = np.random.default_rng(7 + k)
        p, _ = random_poly_callback(rng, k)
        el = VemElement(HEXAGON, k)
        dofs = el.interpolate(p)
        pts, _ = _dense_polygon_rule(HEXAGON, 4)
        assert np.max(np.abs(el.project_h1_values(dofs, pts) - p(pts))) < 1e-12 * max(
            1.0, np.abs(p(pts)).max()
        )

    def test_constant_dofs(self):
        el = VemElement(SQUARE, 2)
        dofs = el.interpolate(lambda p: np.ones(len(p)))
        n_points = len(el.dof_points)
        assert np.allclose(dofs[:n_points], 1.0, atol=1e-15)
        # moment against the constant monomial is 1
        assert abs(dofs[n_points] - 1.0) < 1e-13

    def test_zero_initial_state(self):
        el = VemElement(SQUARE, 2)
        dofs = el.interpolate(lambda p: np.sin(0.0) * np.exp(p[:, 0]))
        assert np.max(np.abs(dofs)) == 0.0

    def test_dof_count_formula(self):
        for k in (1, 2, 3, 4):
            el = VemElement(HEXAGON, k)
            assert el.n_dofs == 6 * k + k * (k - 1) // 2


class TestStabilizationEquivalence:
    @pytest.mark.parametrize("k", [1, 2])
    def test_mass_quotient_stable_under_scaling(self, k):
        # (vemI1): on the kernel of the L2 projector the discrete mass is
        # equivalent to the true L2 norm, uniformly in h
        rng = np.random.default_rng(20 + k)
        quotients = []
        for scale in (1.0, 0.5, 0.25, 0.125):
            el = VemElement(SQUARE * scale, k)
            oracle = LocalSpaceOracle(SQUARE * scale, k, refine=4)
            local = []
            for _ in range(4):
                v = rng.standard_normal(el.n_dofs)
                v = v - el.pi0_dof @ v
                if np.linalg.norm(v) < 1e-12:
                    continue
                vals = oracle.solve(v)
                local.append((v @ el.mass_matrix() @ v) / oracle.l2_norm(vals) ** 2)
            quotients.append((min(local), max(local)))
        lo = min(q[0] for q in quotients)
        hi = max(q[1] for q in quotients)
        assert 1e-2 < lo and hi < 1e3
        assert hi / lo < 10.0  # bracket does not drift with h

    @pytest.mark.parametrize("k", [1, 2])
    def test_stiffness_quotient_stable_under_scaling(self, k):
        # (vemI2) for the gradient seminorm on the kernel of the H1 projector
        rng = np.random.default_rng(30 + k)
        quotients = []
        for scale in (1.0, 0.5, 0.25, 0.125):
            el = VemElement(SQUARE * scale, k)
            oracle = LocalSpaceOracle(SQUARE * scale, k, refine=4)
            local = []
            for _ in range(4):
                v = rng.standard_normal(el.n_dofs)
                v = v - el.pin_dof @ v
                if np.linalg.norm(v) < 1e-12:
                    continue
                vals = oracle.solve(v)
                local.append(
                    (v @ el.stiffness_matrix(1.0) @ v) / oracle.h1_seminorm(vals) ** 2
                )
            quotients.append((min(local), max(local)))
        lo = min(q[0] for q in quotients)
        hi = max(q[1] for q in quotients)
        assert 1e-2 < lo and hi < 1e3
        assert hi / lo < 10.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_l2_projection_contraction(self, k):
        rng = np.random.default_rng(40 + k)
        el = VemElement(HEXAGON, k)
        oracle = LocalSpaceOracle(HEXAGON, k, refine=4)
        pts, w = _dense_polygon_rule(HEXAGON, 2 * k + 2)
        for _ in range(6):
            v = rng.standard_normal(el.n_dofs)
            vals = oracle.solve(v)
            pv = oracle.basis.evaluate(pts) @ (el.pi0_coef @ v)
            norm_proj = np.sqrt(w @ pv**2)
            norm_v = oracle.l2_norm(vals)
            assert norm_proj <= norm_v * (1.0 + 5e-3)


class TestVemSpace:
    def test_global_dof_count(self):
        mesh = generate_quad(3)
        for k in (1, 2, 3):
            space = VemSpace(mesh, k)
            expected = (
                mesh.num_vertices
                + mesh.num_edges * (k - 1)
                + mesh.num_cells * n_poly(k - 2)
            )
            assert space.n_dofs == expected

    def test_interpolation_continuity_across_cells(self):
        # shared edge dofs agree regardless of which cell writes them
        mesh = generate_voronoi(20, lloyd_iters=10, rng_seed=2)
        space = VemSpace(mesh, 3)
        g = lambda p: np.sin(2 * p[:, 0]) + p[:, 1] ** 2
        vec = space.interpolate(g)
        for cg, group_dofs in zip(mesh.cell_groups, space.group_dofs):
            for ci, dofs in zip(cg.cells, group_dofs):
                local = VemElement(cell_polygon(mesh, ci), 3).interpolate(g)
                assert np.max(np.abs(vec[dofs] - local)) < 1e-12

    def test_edge_trace_dofs_orientation(self):
        mesh = generate_quad(2)
        space = VemSpace(mesh, 3)
        g = lambda p: p[:, 0] + 2 * p[:, 1]
        vec = space.interpolate(g)
        edges = np.arange(mesh.num_edges)
        params = np.arange(space.k + 1) / space.k
        for dofs, (p0, p1) in zip(space.trace_dofs(edges), mesh.vertices[mesh.edges]):
            pts = p0[None, :] + params[:, None] * (p1 - p0)[None, :]
            assert np.max(np.abs(vec[dofs] - g(pts))) < 1e-13
