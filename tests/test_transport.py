import numpy as np
import pytest

from vemtransport.darcy import analytic_velocity
from vemtransport.geometry import generate_hexa, generate_quad
from vemtransport.timestepping import advance
from vemtransport.transport import TransportProblem, TransportSystem


def unit_x_field(p):
    return np.column_stack([np.ones(len(p)), np.zeros(len(p))])


def exp_field(p):
    return np.column_stack([np.exp(p[:, 0]), np.exp(p[:, 1])])


def zeros_f(t, p):
    return np.zeros(len(p))


@pytest.fixture(scope="module")
def hexa1():
    return generate_hexa(1)


@pytest.fixture(scope="module")
def quad1():
    return generate_quad(8)


class TestMass:
    def test_constants_give_domain_area(self, quad1):
        vel = analytic_velocity(unit_x_field, quad1, 1)
        system = TransportSystem(quad1, 1, TransportProblem(D=1.0, velocity=vel, f=zeros_f))
        ones = system.space.interpolate(lambda p: np.ones(len(p)))
        assert abs(ones @ (system.mass() @ ones) - 1.0) < 1e-10

    def test_mass_spd(self, quad1):
        vel = analytic_velocity(unit_x_field, quad1, 1)
        system = TransportSystem(quad1, 1, TransportProblem(D=1.0, velocity=vel, f=zeros_f))
        M = system.mass().toarray()
        assert np.max(np.abs(M - M.T)) < 1e-14
        w = np.linalg.eigvalsh(M)
        assert w.min() > 0.0

    def test_disjoint_supports_do_not_couple(self, quad1):
        vel = analytic_velocity(unit_x_field, quad1, 1)
        system = TransportSystem(quad1, 1, TransportProblem(D=1.0, velocity=vel, f=zeros_f))
        M = system.mass()
        # vertex 0 is the corner (0,0); the far corner vertex shares no cell
        far = int(np.argmax(np.sum(quad1.vertices**2, axis=1)))
        e0 = np.zeros(system.space.n_dofs)
        e1 = np.zeros(system.space.n_dofs)
        e0[0] = 1.0
        e1[far] = 1.0
        assert e0 @ (M @ e1) == 0.0


class TestAdvectionOperator:
    def test_zero_velocity_zero_reaction_reduces_to_diffusion(self, hexa1):
        vel = analytic_velocity(lambda p: np.zeros((len(p), 2)), hexa1, 1)
        system = TransportSystem(hexa1, 1, TransportProblem(D=0.8, velocity=vel, f=zeros_f))
        A, B, Lam, R = system.operator_parts()
        assert abs(B).max() == 0.0
        assert abs(Lam).max() == 0.0
        assert abs(R).max() == 0.0
        a0 = system.advection_operator()
        assert abs(a0 - A).max() < 1e-15

    def test_quadratic_form_identity(self, hexa1):
        # the skew part drops out: v.A0 v = v.(A + (Lam + R)/2) v
        vel = analytic_velocity(exp_field, hexa1, 1)
        f = lambda t, p: np.exp(p[:, 0]) + np.exp(p[:, 1])
        system = TransportSystem(hexa1, 1, TransportProblem(D=1.0, velocity=vel, f=f))
        A, B, Lam, R = system.operator_parts()
        A0 = system.advection_operator()
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.standard_normal(system.space.n_dofs)
            lhs = v @ (A0 @ v)
            rhs = v @ (A @ v) + 0.5 * (v @ (Lam @ v) + v @ (R @ v))
            skew = v @ (B @ v)
            scale = max(1.0, abs(lhs))
            assert abs(skew) < 1e-12 * scale
            assert abs(lhs - rhs) < 1e-12 * scale

    def test_constant_state_quadratic_form(self, quad1):
        # u = (1,0), f = 0: constants see only the half boundary form = 1
        vel = analytic_velocity(unit_x_field, quad1, 1)
        system = TransportSystem(quad1, 1, TransportProblem(D=1.0, velocity=vel, f=zeros_f))
        ones = system.space.interpolate(lambda p: np.ones(len(p)))
        val = ones @ (system.advection_operator() @ ones)
        assert abs(val - 1.0) < 1e-12

    def test_coercivity_nonnegative(self, hexa1):
        vel = analytic_velocity(exp_field, hexa1, 2)
        f = lambda t, p: np.sin(5 * p[:, 0])  # sign changing
        system = TransportSystem(hexa1, 2, TransportProblem(D=1e-3, velocity=vel, f=f))
        A0 = system.advection_operator()
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.standard_normal(system.space.n_dofs)
            assert v @ (A0 @ v) > -1e-12 * (v @ v)


class TestRightHandSides:
    def test_nonpositive_source_gives_zero_injection(self, quad1):
        vel = analytic_velocity(unit_x_field, quad1, 1)
        prob = TransportProblem(
            D=1.0,
            velocity=vel,
            f=lambda t, p: -np.abs(np.sin(p[:, 0])),
            c_tilde=lambda t, p: np.ones(len(p)),
        )
        F, _ = TransportSystem(quad1, 1, prob).rhs(0.0)
        assert np.max(np.abs(F)) == 0.0

    def test_outward_field_gives_zero_inflow_term(self):
        mesh = generate_quad(4)
        # u = (x, y)-like outward field on the boundary: u.n >= 0 everywhere
        vel = analytic_velocity(lambda p: p - 0.0, mesh, 1)
        prob = TransportProblem(
            D=1.0, velocity=vel, f=zeros_f, c_inflow=lambda t, p, n: np.ones(len(p))
        )
        _, G = TransportSystem(mesh, 1, prob).rhs(0.0)
        assert np.max(np.abs(G)) < 1e-14

    def test_unit_inflow_functional(self, quad1):
        vel = analytic_velocity(unit_x_field, quad1, 1)
        prob = TransportProblem(
            D=1.0, velocity=vel, f=zeros_f, c_inflow=lambda t, p, n: np.ones(len(p))
        )
        system = TransportSystem(quad1, 1, prob)
        _, G = system.rhs(0.0)
        ones = system.space.interpolate(lambda p: np.ones(len(p)))
        assert abs(ones @ G - 1.0) < 1e-12


class TestInitialCondition:
    def test_polynomial_and_zero_data(self, quad1):
        vel = analytic_velocity(unit_x_field, quad1, 2)
        prob = TransportProblem(
            D=1.0, velocity=vel, f=zeros_f, c0=lambda p: np.sin(0.0) * np.exp(p[:, 0])
        )
        system = TransportSystem(quad1, 2, prob)
        assert np.max(np.abs(system.initial_condition())) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TransportProblem(D=0.0, velocity=None)


class TestEnergyDissipation:
    def test_mass_norm_non_increasing_without_data(self, quad1):
        # F = G = 0: the squared mass norm of the outgoing traces must not grow
        vel = analytic_velocity(exp_field, quad1, 1)
        prob = TransportProblem(
            D=0.01,
            velocity=vel,
            f=lambda t, p: np.exp(p[:, 0]) + np.exp(p[:, 1]),
            c_tilde=None,  # zero injection
            c_inflow=None,  # zero inflow concentration
            c0=lambda p: np.exp(-30 * ((p[:, 0] - 0.4) ** 2 + (p[:, 1] - 0.5) ** 2)),
        )
        system = TransportSystem(quad1, 1, prob)
        march = advance(system, 0.5, 5, 1)
        M = system.mass()
        norms = [system.initial_condition() @ (M @ system.initial_condition())]
        for c in march.values[:, -1]:
            norms.append(c @ (M @ c))
        assert all(norms[i + 1] <= norms[i] * (1.0 + 1e-12) for i in range(len(norms) - 1))


class TestNormEquivalenceSmoke:
    def test_bracket_bounded_under_refinement(self):
        # ratio (|v|_1^2 + v.Lam v) / ||v||_1^2 stays inside a fixed bracket
        rng = np.random.default_rng(3)
        brackets = []
        for n in (4, 8, 16):
            mesh = generate_quad(n)
            vel = analytic_velocity(exp_field, mesh, 1)
            system = TransportSystem(mesh, 1, TransportProblem(D=1.0, velocity=vel, f=zeros_f))
            A, _, Lam, _ = system.operator_parts()
            M = system.mass()
            ratios = []
            for _ in range(30):
                v = rng.standard_normal(system.space.n_dofs)
                semi = v @ (A @ v)  # D = 1: the discrete H1 seminorm squared
                lam = v @ (Lam @ v)
                full = semi + v @ (M @ v)
                ratios.append((semi + lam) / full)
            brackets.append((min(ratios), max(ratios)))
        lo = min(b[0] for b in brackets)
        hi = max(b[1] for b in brackets)
        assert lo > 1e-3 and hi < 1e3
        spread = max(b[1] for b in brackets) / min(b[0] for b in brackets)
        assert spread < 100.0


class TestConstantState:
    @pytest.mark.parametrize("k,q", [(1, 0), (1, 1), (2, 2)])
    def test_preserved_over_ten_slabs(self, k, q):
        mesh = generate_quad(4)
        vel = analytic_velocity(unit_x_field, mesh, k)
        prob = TransportProblem(
            D=0.7,
            velocity=vel,
            f=zeros_f,
            c_inflow=lambda t, p, n: np.ones(len(p)),
            c0=lambda p: np.ones(len(p)),
        )
        system = TransportSystem(mesh, k, prob)
        march = advance(system, 1.0, 10, q)
        ref = system.initial_condition()
        dev = np.max(np.abs(march.values - ref))
        assert dev < 1e-9
