import numpy as np
import pytest
import scipy.sparse as sp

from vemtransport import timestepping
from vemtransport.darcy import DarcyProblem, analytic_velocity, solve_darcy_mixed
from vemtransport.geometry import generate_family, generate_hexa, generate_quad, generate_voronoi
from vemtransport.linalg import Factorization
from vemtransport.postproc import error_norms
from vemtransport.problems import ManufacturedProblem, WellsProblem
from vemtransport.quadrature import gauss_interval, gauss_radau, lagrange_values
from vemtransport.timestepping import (
    StageSolver,
    TimeSteppingError,
    advance,
    lagrange_derivative_matrix,
    radau_stages,
    slab_matrix,
    slab_rhs,
    stage_matrix,
)
from vemtransport.transport import TransportProblem, TransportSystem

from helpers import (
    TemporalProblem,
    block_slab_matrix,
    build_slab_system,
    l_tau,
    pi_tau,
    radau_iia_step,
)


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

    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    def test_stage_solve_matches_the_assembled_slab(self, q):
        # the decoupled stages, real and complex-conjugate pairs, give the
        # direct solve of kron(C, M) + tau kron(W, A0)
        rng = np.random.default_rng(q + 10)
        radau = gauss_radau(q)
        n_pairs = int(np.sum(radau_stages(radau).eigenvalues.imag > 0.0))
        assert n_pairs == (q + 1) // 2
        for _ in range(3):
            M = sp.csr_matrix(np.eye(10))
            A0 = sp.csr_matrix(rng.random((10, 10)) + 10.0 * np.eye(10))
            mat, rhs = build_slab_system(M, A0, radau, 0.08, list(rng.standard_normal((q + 1, 10))),
                                         rng.standard_normal(10))
            want = dense_solve(mat, rhs)
            got = StageSolver(M, A0, radau, 0.08).solve(rhs)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

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
        """Slab ends (N+1,) and node values (N, q+1) of y' = -lam y, y(0) = 1."""
        radau = gauss_radau(q)
        one = sp.csr_matrix(np.array([[1.0]]))
        A = sp.csr_matrix(np.array([[lam]]))
        ends = np.linspace(0.0, t_final, n_steps + 1)
        values = np.empty((n_steps, q + 1))
        carry = np.array([1.0])
        for n in range(n_steps):
            mat, rhs = build_slab_system(
                one, A, radau, ends[n + 1] - ends[n], [np.zeros(1)] * (q + 1), carry
            )
            values[n] = dense_solve(mat, rhs)
            carry = values[n, -1:]
        return ends, values

    @pytest.mark.parametrize("q", [1, 2])
    def test_trace_superconvergence_2q_plus_1(self, q):
        lam = 1.0
        errs, taus = [], []
        for n_steps in (2, 4, 8, 16):
            _, values = self._march_scalar(lam, q, n_steps)
            err = abs(values[-1, -1] - np.exp(-lam))
            errs.append(err)
            taus.append(1.0 / n_steps)
        rate = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(rate - (2 * q + 1)) < 0.3

    @pytest.mark.parametrize("q", [1, 2])
    def test_interval_l2_rate_q_plus_1(self, q):
        lam = 1.0
        errs, taus = [], []
        nodes = gauss_radau(q).nodes
        for n_steps in (2, 4, 8, 16):
            ends, values = self._march_scalar(lam, q, n_steps)
            total = 0.0
            for n in range(n_steps):
                t0, t1 = ends[n], ends[n + 1]
                tq, wq = gauss_interval(t0, t1, q + 3)
                vals = lagrange_values(nodes, (tq - t0) / (t1 - t0)) @ values[n]
                total += wq @ (vals - np.exp(-lam * tq)) ** 2
            errs.append(np.sqrt(total))
            taus.append(1.0 / n_steps)
        rate = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(rate - (q + 1)) < 0.3

    def test_trace_equals_polynomial_at_slab_end(self):
        # the slab polynomial at its right end is the last node value, bit-exact
        for q in range(5):
            basis = lagrange_values(gauss_radau(q).nodes, 1.0)
            assert np.array_equal(basis, np.eye(q + 1)[-1:])


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
        ends = np.linspace(0.0, 1.0, 4)
        coeffs = np.arange(1.0, q + 2.0)
        v = np.polynomial.Polynomial(coeffs)
        proj = pi_tau(lambda t: v(t), ends, q)
        tt = np.linspace(0.05, 1.0, 13)
        assert np.max(np.abs(proj.evaluate(tt) - v(tt))) < 1e-12

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_l2_rate_q_plus_1(self, q):
        errs, taus = [], []
        for n_steps in (1, 2, 4, 8):
            ends = np.linspace(0.0, 1.0, n_steps + 1)
            proj = pi_tau(lambda t: t ** (q + 1), ends, q)
            tq, wq = gauss_interval(0.0, 1.0, 60)
            errs.append(np.sqrt(wq @ (proj.evaluate(tq) - tq ** (q + 1)) ** 2))
            taus.append(1.0 / n_steps)
        rate = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert abs(rate - (q + 1)) < 0.3

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_right_endpoint_match(self, q):
        ends = np.linspace(0.0, 2.0, 5)
        v = lambda t: np.cos(3.0 * np.asarray(t))
        proj = pi_tau(v, ends, q)
        for tn in ends[1:]:
            assert abs(proj.evaluate(np.array([tn]))[0] - v(tn)) < 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_orthogonality_to_lower_degree(self, q):
        ends = np.linspace(0.0, 1.0, 3)
        v = lambda t: np.exp(np.asarray(t))
        proj = pi_tau(v, ends, q)
        for t0, t1 in zip(ends[:-1], ends[1:]):
            tq, wq = gauss_interval(t0, t1, 30)
            for j in range(q):
                w = (tq - t0) ** j
                resid = wq @ ((proj.evaluate(tq) - v(tq)) * w)
                assert abs(resid) < 1e-10


class TestAdvance:
    @pytest.fixture(scope="class")
    def system(self):
        mesh = generate_quad(3)
        vel = analytic_velocity(lambda p: np.column_stack([1.0 + p[:, 1], -0.5 * p[:, 0]]), mesh, 1)
        prob = TransportProblem(D=0.1, velocity=vel, c0=lambda p: np.sin(3.0 * p[:, 0]))
        return TransportSystem(mesh, 1, prob)

    @pytest.mark.parametrize("t_final,n_steps,q", [(1.0, 7, 1), (10.0, 100, 0), (1.0, 3, 2)])
    def test_one_factorization_per_march(self, system, monkeypatch, t_final, n_steps, q):
        # one factorization per stage system, whatever the number of slabs:
        # one per real eigenvalue of W^-1 C and one per conjugate pair
        calls = {"slab_matrix": 0, "Factorization": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(timestepping, name, counted(name, getattr(timestepping, name)))
        march = advance(system, t_final, n_steps, q)
        assert calls == {"slab_matrix": 1, "Factorization": q // 2 + 1}
        assert march.values.shape == (n_steps, q + 1, system.space.n_dofs)
        assert march.times.shape == (n_steps, q + 1)
        ends = np.linspace(0.0, t_final, n_steps + 1)
        assert np.array_equal(march.ends, ends)
        assert np.array_equal(march.times[:, -1], ends[1:])

    @pytest.mark.parametrize("t_final,n_steps", [(0.0, 4), (1.0, 0)])
    def test_rejects_empty_march(self, system, t_final, n_steps):
        with pytest.raises(TimeSteppingError):
            advance(system, t_final, n_steps, 1)


def test_lagrange_derivative_matrix():
    nodes = np.array([0.2, 0.6, 1.0])
    D = lagrange_derivative_matrix(nodes)
    # derivative of sum of basis = 0; derivative of the interpolant of t = 1
    assert np.max(np.abs(D.sum(axis=0))) < 1e-13
    assert np.allclose(nodes @ D, np.ones(3), atol=1e-13)


def manufactured_darcy_system(mesh, k, D):
    """A manufactured-problem system on its Darcy flow, and the slab width
    of a 3-step march."""
    data = ManufacturedProblem(D=D)
    dprob = DarcyProblem(K_perm=data.K_perm, mu=data.mu, f=data.darcy_f, g_D=data.darcy_g_D,
                         dirichlet_edges=frozenset(int(e) for e in mesh.boundary_edges))
    vel, _ = solve_darcy_mixed(mesh, dprob, k)
    prob = TransportProblem(D=D, velocity=vel, f=data.f, c_tilde=data.c_tilde,
                            c_inflow=data.c_inflow, c0=data.c0)
    return TransportSystem(mesh, k, prob), data.t_final / 3


def wells_system():
    """The five-well problem on hexa level 1 with D = 1e-3, and its step."""
    wells = WellsProblem("homo")
    mesh = generate_hexa(1, distortion=0.0)
    vel, _ = solve_darcy_mixed(
        mesh, DarcyProblem(f=wells.darcy_f, g_N=wells.g_N, dirichlet_edges=frozenset()), 1
    )
    prob = TransportProblem(D=1e-3, velocity=vel, f=wells.f, c_tilde=wells.c_tilde,
                            c_inflow=wells.c_inflow, c0=wells.c0)
    return TransportSystem(mesh, 1, prob), wells.dt


PREMISE_SYSTEMS = {
    **{f"quad-L1-k{k}-D{D:g}": (lambda k=k, D=D: manufactured_darcy_system(
        generate_family("quad", 1), k, D), k) for k in (1, 2) for D in (1.0, 1e-7)},
    "voro-16-k2": (lambda: manufactured_darcy_system(
        generate_voronoi(16, 20, rng_seed=4), 2, 1.0), 2),
    "wells-hexa-L1": (wells_system, 1),
}


@pytest.mark.parametrize("name", PREMISE_SYSTEMS)
def test_slab_factors_without_pivoting(name):
    # the premise of the pivot-free slab LU: the symmetric part of the slab
    # matrix is positive definite, so elimination needs no row exchanges
    build, q = PREMISE_SYSTEMS[name]
    system, tau = build()
    S = slab_matrix(system.mass(), system.advection_operator(), gauss_radau(q), tau)
    dense = S.toarray()
    assert np.linalg.eigvalsh(0.5 * (dense + dense.T))[0] > 0.0
    fact = Factorization(S)
    # every diagonal pivot was taken: no row was exchanged
    assert np.array_equal(fact._lu.perm_r, fact._lu.perm_c)
    b = np.random.default_rng(5).standard_normal(S.shape[0])
    x = fact.solve(b)
    assert np.linalg.norm(S @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("name", PREMISE_SYSTEMS)
def test_stages_factor_without_pivoting(name):
    # the same premise for every stage system lam M + tau A0, Re lam > 0:
    # a positive definite Hermitian part, so no row is exchanged, in
    # SuperLU's symmetric mode (real lam) or its default mode (complex)
    build, q = PREMISE_SYSTEMS[name]
    system, tau = build()
    M, A0 = system.mass(), system.advection_operator()
    rng = np.random.default_rng(5)
    stages = [lam for lam in radau_stages(gauss_radau(q)).eigenvalues if lam.imag >= 0.0]
    assert len(stages) == q // 2 + 1
    for lam in stages:
        S = stage_matrix(M, A0, lam, tau)
        assert np.iscomplexobj(S.data) == (lam.imag != 0.0)
        dense = S.toarray()
        assert np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))[0] > 0.0
        fact = Factorization(S)
        assert np.array_equal(fact._lu.perm_r, fact._lu.perm_c)
        b = rng.standard_normal(S.shape[0])
        if lam.imag:
            b = b + 1j * rng.standard_normal(S.shape[0])
        x = fact.solve(b)
        assert np.linalg.norm(S @ x - b) <= 1e-12 * np.linalg.norm(b)


#: rate bounds of the PDE's temporal orders on 2, 4 and 8 slabs, from the
#: rates measured on 2-16 slabs (q = 1: l2h1 2.01-2.04 and l2_final
#: 2.94-2.97; q = 2: l2h1 3.00 and l2_final 4.53-4.68, rising toward 5),
#: each 0.25 beyond its readings
TEMPORAL_RATE_BOUNDS = {1: {"l2h1": (1.75, 2.25), "l2_final": (2.75, 3.25)},
                        2: {"l2h1": (2.75, 3.25), "l2_final": (4.25, 5.25)}}


@pytest.mark.parametrize("q", [1, 2])
def test_pde_temporal_orders(q):
    # the paper's orders in time on the full PDE: q+1 in L2(H1) and 2q+1
    # at the final time, where k = 2 makes the spatial error vanish
    problem = TemporalProblem()
    system = problem.system(generate_family("quad", 1), 2)
    reports = [error_norms(advance(system, problem.t_final, n_steps, q), system,
                           problem.c, problem.grad_c) for n_steps in (2, 4, 8)]
    for name, (low, high) in TEMPORAL_RATE_BOUNDS[q].items():
        errors = np.array([getattr(r, name) for r in reports])
        assert np.all(errors >= 1e-10), (name, errors)  # 100 times the 1e-12 floor
        rates = np.log2(errors[:-1] / errors[1:])
        assert np.all((rates > low) & (rates < high)), (name, rates)
