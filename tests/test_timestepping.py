import numpy as np
import pytest
import scipy.sparse as sp

from vemtransport.darcy import analytic_velocity
from vemtransport.geometry import generate_voronoi
from vemtransport.quadrature import gauss_interval, gauss_radau, lagrange_values
from vemtransport.timestepping import (
    SlabSolution,
    TimePartition,
    TimeSteppingError,
    lagrange_derivative_matrix,
    slab_matrix,
    slab_rhs,
)
from vemtransport.transport import TransportProblem, TransportSystem

from helpers import block_slab_matrix, build_slab_system, l_tau, pi_tau, radau_iia_step


@pytest.fixture(scope="module")
def vem_pair():
    """Mass and advection operators of a k = 2 VEM transport system on a
    Lloyd-Voronoi mesh."""
    mesh = generate_voronoi(16, lloyd_iters=20, rng_seed=3)
    vel = analytic_velocity(lambda p: np.column_stack([1.0 + p[:, 1], -0.5 * p[:, 0]]), mesh, 2)
    system = TransportSystem(mesh, 2, TransportProblem(D=0.1, velocity=vel))
    return system.mass(), system.advection_operator()


def dense_solve(mat, rhs):
    return np.linalg.solve(mat.toarray(), rhs)


class TestSlabSystem:
    def test_q0_is_implicit_euler(self):
        rng = np.random.default_rng(0)
        n = 6
        M = rng.standard_normal((n, n))
        M = M @ M.T + n * np.eye(n)
        A0 = rng.standard_normal((n, n))
        F = rng.standard_normal(n)
        carry = rng.standard_normal(n)
        tau = 0.17
        mat, rhs = build_slab_system(
            sp.csr_matrix(M), sp.csr_matrix(A0), gauss_radau(0), tau, [F], carry
        )
        got = dense_solve(mat, rhs)
        want = np.linalg.solve(M + tau * A0, tau * F + M @ carry)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_scalar_radau2_stability_value(self):
        # M = 1, A0 = 1, tau = 1, carry = 1: outgoing value is R(-1) = 4/11
        radau = gauss_radau(1)
        one = sp.csr_matrix(np.array([[1.0]]))
        mat, rhs = build_slab_system(one, one, radau, 1.0, [np.zeros(1)] * 2, np.ones(1))
        got = dense_solve(mat, rhs)
        assert abs(got[-1] - 4.0 / 11.0) < 1e-13

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_no_dynamics_keeps_carry(self, q):
        radau = gauss_radau(q)
        one = sp.csr_matrix(np.array([[1.0]]))
        zero = sp.csr_matrix(np.array([[0.0]]))
        mat, rhs = build_slab_system(
            one, zero, radau, 0.3, [np.zeros(1)] * (q + 1), np.array([2.5])
        )
        got = dense_solve(mat, rhs)
        assert np.allclose(got, 2.5, atol=1e-12)

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_matches_classical_radau_iia_on_random_systems(self, q):
        rng = np.random.default_rng(q + 10)
        radau = gauss_radau(q)
        for _ in range(3):
            L = rng.random((10, 10)) + 10.0 * np.eye(10)
            y0 = rng.random(10)
            tau = 0.08
            mat, rhs = build_slab_system(
                sp.csr_matrix(np.eye(10)),
                sp.csr_matrix(L),
                radau,
                tau,
                [np.zeros(10)] * (q + 1),
                y0,
            )
            got = dense_solve(mat, rhs)[-10:]
            want = radau_iia_step(L, y0, tau, q, nodes=radau.nodes)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_split_builders_agree(self, vem_pair):
        # the Kronecker form against the per-block assembly it replaced
        M, A0 = vem_pair
        rng = np.random.default_rng(0)
        tau = 0.4
        for q in (0, 1, 2, 3):
            radau = gauss_radau(q)
            got = slab_matrix(M, A0, radau, tau)
            want = block_slab_matrix(M, [A0] * (q + 1), radau, tau)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)
            loads = [rng.standard_normal(M.shape[0]) for _ in range(q + 1)]
            carry = rng.standard_normal(M.shape[0])
            w, ell0 = radau.weights, lagrange_values(radau.nodes, 0.0)[0]
            per_node = [tau * w[j] * loads[j] + ell0[j] * (M @ carry) for j in range(q + 1)]
            assert np.array_equal(slab_rhs(M, radau, tau, loads, carry), np.concatenate(per_node))


class TestTemporalOrders:
    def _march_scalar(self, lam, q, n_steps, t_final=1.0):
        radau = gauss_radau(q)
        one = sp.csr_matrix(np.array([[1.0]]))
        A = sp.csr_matrix(np.array([[lam]]))
        part = TimePartition.uniform(t_final, n_steps)
        carry = np.array([1.0])
        slabs = []
        for n in range(part.n_slabs):
            t0, t1 = part.slab(n)
            tau = t1 - t0
            mat, rhs = build_slab_system(
                one, A, radau, tau, [np.zeros(1)] * (q + 1), carry
            )
            x = dense_solve(mat, rhs).reshape(q + 1, 1)
            nodes = t0 + tau * radau.nodes
            slabs.append(SlabSolution(t0, t1, nodes, x))
            carry = slabs[-1].trace_out
        return slabs

    @pytest.mark.parametrize("q", [1, 2])
    def test_trace_superconvergence_2q_plus_1(self, q):
        lam = 1.0
        errs, taus = [], []
        for n_steps in (2, 4, 8, 16):
            slabs = self._march_scalar(lam, q, n_steps)
            err = abs(slabs[-1].trace_out[0] - np.exp(-lam))
            errs.append(err)
            taus.append(1.0 / n_steps)
        rate = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(rate - (2 * q + 1)) < 0.3

    @pytest.mark.parametrize("q", [1, 2])
    def test_interval_l2_rate_q_plus_1(self, q):
        lam = 1.0
        errs, taus = [], []
        for n_steps in (2, 4, 8, 16):
            slabs = self._march_scalar(lam, q, n_steps)
            total = 0.0
            for slab in slabs:
                tq, wq = gauss_interval(slab.t_start, slab.t_end, q + 3)
                vals = slab.evaluate(tq)[:, 0]
                total += wq @ (vals - np.exp(-lam * tq)) ** 2
            errs.append(np.sqrt(total))
            taus.append(1.0 / n_steps)
        rate = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(rate - (q + 1)) < 0.3

    def test_trace_equals_polynomial_at_slab_end(self):
        slabs = self._march_scalar(2.0, 2, 3)
        for slab in slabs:
            val = slab.evaluate(slab.t_end)
            assert val[0] == slab.trace_out[0]  # bit-exact at the endpoint


class TestWeightedInterpolant:
    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    def test_scaling_values(self, q):
        radau = gauss_radau(q)
        lt = l_tau(np.ones(q + 1), radau)
        got = lt(radau.nodes)
        assert np.allclose(got, 1.0 / radau.nodes, atol=1e-12)

    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    def test_derivative_pairing_identity(self, q):
        # int v' Lv + v(0) Lv(0) = (v(1)^2 + sum w xi^-2 v(xi)^2) / 2
        radau = gauss_radau(q)
        rng = np.random.default_rng(q)
        for _ in range(100):
            v = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, q + 1))
            dv = v.deriv() if q > 0 else np.polynomial.Polynomial([0.0])
            lt = l_tau(v(radau.nodes), radau)
            tq, wq = gauss_interval(0.0, 1.0, q + 3)
            lhs = wq @ (dv(tq) * lt(tq)) + v(0.0) * lt(np.array([0.0]))[0]
            rhs = 0.5 * (
                v(1.0) ** 2 + np.sum(radau.weights / radau.nodes**2 * v(radau.nodes) ** 2)
            )
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_left_trace_bound_constant_stable(self, q):
        # (Lv(t_{n-1}))^2 <= C/tau int v^2 with C independent of tau:
        # fit C over one fixed sample of polynomials at every refinement
        radau = gauss_radau(q)
        rng = np.random.default_rng(q + 50)
        samples = rng.standard_normal((200, q + 1))
        fitted = []
        for tau in (1.0, 0.5, 0.25, 0.125):
            worst = 0.0
            for vals in samples:
                lt = l_tau(vals, radau, t_start=0.0, tau=tau)
                tq, wq = gauss_interval(0.0, tau, q + 2)
                basis = lagrange_values(radau.nodes, tq / tau)
                denom = (wq @ (basis @ vals) ** 2) / tau
                worst = max(worst, lt(np.array([0.0]))[0] ** 2 / denom)
            fitted.append(worst)
        assert max(fitted) / min(fitted) < 1.0 + 1e-9


class TestSlabwiseProjection:
    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_reproduces_degree_q(self, q):
        part = TimePartition.uniform(1.0, 3)
        coeffs = np.arange(1.0, q + 2.0)
        v = np.polynomial.Polynomial(coeffs)
        proj = pi_tau(lambda t: v(t), part, q)
        tt = np.linspace(0.05, 1.0, 13)
        assert np.max(np.abs(proj.evaluate(tt) - v(tt))) < 1e-12

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_l2_rate_q_plus_1(self, q):
        errs, taus = [], []
        for n_steps in (1, 2, 4, 8):
            part = TimePartition.uniform(1.0, n_steps)
            proj = pi_tau(lambda t: t ** (q + 1), part, q)
            tq, wq = gauss_interval(0.0, 1.0, 60)
            errs.append(np.sqrt(wq @ (proj.evaluate(tq) - tq ** (q + 1)) ** 2))
            taus.append(1.0 / n_steps)
        rate = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(rate - (q + 1)) < 0.3

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_right_endpoint_match(self, q):
        part = TimePartition.uniform(2.0, 4)
        v = lambda t: np.cos(3.0 * np.asarray(t))
        proj = pi_tau(v, part, q)
        for tn in part.nodes[1:]:
            assert abs(proj.evaluate(np.array([tn]))[0] - v(tn)) < 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_orthogonality_to_lower_degree(self, q):
        part = TimePartition.uniform(1.0, 2)
        v = lambda t: np.exp(np.asarray(t))
        proj = pi_tau(v, part, q)
        for n in range(part.n_slabs):
            t0, t1 = part.slab(n)
            tq, wq = gauss_interval(t0, t1, 30)
            for j in range(q):
                w = (tq - t0) ** j
                resid = wq @ ((proj.evaluate(tq) - v(tq)) * w)
                assert abs(resid) < 1e-10


class TestTimePartition:
    def test_uniform(self):
        part = TimePartition.uniform(1.0, 4)
        assert part.n_slabs == 4
        assert np.diff(part.nodes) == pytest.approx([0.25] * 4)

    def test_rejects_non_increasing(self):
        with pytest.raises(TimeSteppingError):
            TimePartition([0.0, 0.5, 0.5, 1.0])

    def test_rejects_too_short(self):
        with pytest.raises(TimeSteppingError):
            TimePartition([0.0])


def test_lagrange_derivative_matrix():
    nodes = np.array([0.2, 0.6, 1.0])
    D = lagrange_derivative_matrix(nodes)
    # derivative of sum of basis = 0; derivative of the interpolant of t = 1
    assert np.max(np.abs(D.sum(axis=0))) < 1e-13
    assert np.allclose(nodes @ D, np.ones(3), atol=1e-13)
