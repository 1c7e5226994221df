import numpy as np
import pytest

from vemtransport.darcy import DarcyProblem, solve_darcy_mixed
from vemtransport.geometry import generate_hexa
from vemtransport.problems import ManufacturedProblem, WellsProblem


class TestManufacturedData:
    """Finite-difference verification that the data really manufacture
    the stated exact solution."""

    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def _fd_time(self, mp, t, p, eps=1e-6):
        return (mp.c(t + eps, p) - mp.c(t - eps, p)) / (2 * eps)

    def _fd_grad(self, mp, t, p, eps=1e-6):
        gx = (mp.c(t, p + [eps, 0.0]) - mp.c(t, p - [eps, 0.0])) / (2 * eps)
        gy = (mp.c(t, p + [0.0, eps]) - mp.c(t, p - [0.0, eps])) / (2 * eps)
        return np.column_stack([gx, gy])

    def _fd_laplace(self, mp, t, p, eps=1e-5):
        c0 = mp.c(t, p)
        return (
            mp.c(t, p + [eps, 0.0])
            + mp.c(t, p - [eps, 0.0])
            + mp.c(t, p + [0.0, eps])
            + mp.c(t, p - [0.0, eps])
            - 4 * c0
        ) / eps**2

    @pytest.mark.parametrize("D", [1.0, 1e-3])
    def test_strong_equation_residual(self, D):
        mp = ManufacturedProblem(D=D)
        p = 0.1 + 0.8 * self.rng.random((40, 2))
        for t in (0.2, 0.7):
            ct = self._fd_time(mp, t, p)
            grad = self._fd_grad(mp, t, p)
            lap = self._fd_laplace(mp, t, p)
            u = mp.velocity(p)
            f = mp.f(t, p)
            # c_t + div(u c) - D lap c = f c_tilde with div u = f
            residual = (
                ct
                + np.sum(u * grad, axis=1)
                + f * mp.c(t, p)
                - D * lap
                - f * mp.c_tilde(t, p)
            )
            assert np.max(np.abs(residual)) < 1e-4

    def test_gradient_closed_form(self):
        mp = ManufacturedProblem()
        p = self.rng.random((30, 2))
        got = mp.grad_c(0.6, p)
        want = self._fd_grad(mp, 0.6, p)
        assert np.max(np.abs(got - want)) < 1e-7

    def test_outflow_flux_vanishes_identically(self):
        # the diffusive flux is zero on the outflow walls x=1 and y=1
        mp = ManufacturedProblem(D=1.0)
        y = np.linspace(0.0, 1.0, 17)
        wall_x1 = np.column_stack([np.ones_like(y), y])
        assert np.max(np.abs(mp.grad_c(0.8, wall_x1)[:, 0])) < 1e-14
        wall_y1 = np.column_stack([y, np.ones_like(y)])
        assert np.max(np.abs(mp.grad_c(0.8, wall_y1)[:, 1])) < 1e-14

    @pytest.mark.parametrize("D", [1.0, 1e-2])
    def test_inflow_datum_matches_total_flux_condition(self, D):
        # on the inflow walls: (c u - D grad c) . n = c_I u . n
        mp = ManufacturedProblem(D=D)
        s = np.linspace(0.01, 0.99, 15)
        for wall, normal in [
            (np.column_stack([np.zeros_like(s), s]), np.array([-1.0, 0.0])),
            (np.column_stack([s, np.zeros_like(s)]), np.array([0.0, -1.0])),
        ]:
            t = 0.45
            un = mp.velocity(wall) @ normal
            total_flux = mp.c(t, wall) * un - D * (mp.grad_c(t, wall) @ normal)
            ci = mp.c_inflow(t, wall, normal)
            assert np.max(np.abs(total_flux - ci * un)) < 1e-12

    def test_inflow_datum_takes_one_normal_per_point(self):
        # stacked boundary points from two walls, each with its own normal,
        # give the same values as one call per wall with a single normal
        mp = ManufacturedProblem(D=1e-2)
        s = np.linspace(0.01, 0.99, 9)
        walls = [
            (np.column_stack([np.zeros_like(s), s]), np.array([-1.0, 0.0])),
            (np.column_stack([s, np.zeros_like(s)]), np.array([0.0, -1.0])),
            (np.column_stack([np.ones_like(s), s]), np.array([1.0, 0.0])),
        ]
        pts = np.vstack([w for w, _ in walls])
        normals = np.vstack([np.tile(n, (len(w), 1)) for w, n in walls])
        stacked = mp.c_inflow(0.45, pts, normals)
        single = np.concatenate([mp.c_inflow(0.45, w, n) for w, n in walls])
        assert np.max(np.abs(stacked - single)) < 1e-14
        assert np.all(stacked[: 2 * len(s)] != 0.0)
        assert np.all(stacked[2 * len(s) :] == 0.0)  # outflow wall

    def test_darcy_pressure_generates_velocity(self):
        mp = ManufacturedProblem()
        p = self.rng.random((20, 2))
        eps = 1e-6
        gx = (mp.pressure(p + [eps, 0]) - mp.pressure(p - [eps, 0])) / (2 * eps)
        gy = (mp.pressure(p + [0, eps]) - mp.pressure(p - [0, eps])) / (2 * eps)
        assert np.max(np.abs(np.column_stack([gx, gy]) - mp.velocity(p))) < 1e-8

    def test_initial_condition_is_zero(self):
        mp = ManufacturedProblem()
        p = self.rng.random((10, 2))
        assert np.max(np.abs(mp.c0(p))) == 0.0
        assert np.max(np.abs(mp.c(0.0, p))) == 0.0


class TestWellsData:
    def test_variant_strengths(self):
        assert WellsProblem("homo").strengths == {"s00": 0.3, "s01": 0.3, "s10": 0.3, "s11": 0.3}
        vert = WellsProblem("vert").strengths
        assert vert["s01"] == vert["s11"] == 0.6
        diag = WellsProblem("diag").strengths
        assert diag["s00"] == diag["s11"] == 0.6

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            WellsProblem("nope")

    def test_source_peaks_at_centers(self):
        wells = WellsProblem("homo")
        center = wells.centers["c"][None, :]
        corner = wells.centers["s00"][None, :]
        assert wells.f(0.0, center)[0] > 0.25
        assert wells.f(0.0, corner)[0] < -0.25

    def test_ramp_injection(self):
        wells = WellsProblem("homo")
        p = np.zeros((3, 2))
        assert np.allclose(wells.c_tilde(0.5, p), 0.5)
        assert np.allclose(wells.c_tilde(1.0, p), 1.0)
        assert np.allclose(wells.c_tilde(1.5, p), 0.0)

    def test_mean_correction_zeroes_the_integral(self):
        # the pure-Neumann flow solves on the raw source, removing its mean
        for level in (1, 2):
            mesh = generate_hexa(level, distortion=0.0)
            for k in (1, 2, 3):
                for variant in WellsProblem.VARIANTS:
                    wells = WellsProblem(variant)
                    prob = DarcyProblem(f=wells.darcy_f, g_N=wells.g_N)
                    vel, _ = solve_darcy_mixed(mesh, prob, k)
                    assert vel.f_mean_removed != 0.0, (level, k, variant)
                    assert vel.solve_report.residual <= 1e-10, (level, k, variant)

    def test_homo_source_is_mirror_symmetric(self):
        wells = WellsProblem("homo")
        p = np.random.default_rng(1).random((50, 2))
        fx = wells.f(0.0, p)
        assert np.max(np.abs(fx - wells.f(0.0, p * [-1, 1] + [1, 0]))) < 1e-12
        assert np.max(np.abs(fx - wells.f(0.0, p * [1, -1] + [0, 1]))) < 1e-12


def test_registry():
    # the wells configs name these variants; no other one builds
    assert [WellsProblem(v).variant for v in ("homo", "vert", "diag")] == list(WellsProblem.VARIANTS)
    with pytest.raises(ValueError):
        WellsProblem("unobtainium")
