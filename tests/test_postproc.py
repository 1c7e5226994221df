import numpy as np
import pytest

from vemtransport.darcy import analytic_velocity
from vemtransport.geometry import PolyMesh, generate_quad, generate_voronoi
from vemtransport.postproc import (
    ErrorEvaluator,
    ErrorReport,
    error_norms,
    minmax_csv,
    minmax_trace,
    observed_rate,
    rate_table,
)
from vemtransport.timestepping import advance
from vemtransport.transport import TransportProblem, TransportSystem

from helpers import dof_map


def unit_x(p):
    return np.column_stack([np.ones(len(p)), np.zeros(len(p))])


def zeros_f(t, p):
    return np.zeros(len(p))


def constant_state_run(mesh, k=1, q=1, n_slabs=4):
    vel = analytic_velocity(unit_x, mesh, k)
    prob = TransportProblem(
        D=0.5,
        velocity=vel,
        f=zeros_f,
        c_inflow=lambda t, p, n: np.ones(len(p)),
        c0=lambda p: np.ones(len(p)),
    )
    system = TransportSystem(mesh, k, prob)
    march = advance(system, 1.0, n_slabs, q)
    return system, march


class TestErrorNorms:
    def test_self_comparison_vanishes(self):
        # feed the solution's own projections, at the stacked evaluation
        # points, back as the "exact" fields
        mesh = generate_quad(4)
        system, march = constant_state_run(mesh)
        ev = ErrorEvaluator(system)
        worst = 0.0
        for t_slab, v_slab in zip(march.times, march.values):
            for t, coeffs in zip(t_slab, v_slab):
                vals, gx, gy = ev.projections(coeffs)
                l2, h1 = ev.spatial_errors(
                    coeffs, t, lambda t, pts: vals, lambda t, pts: np.column_stack([gx, gy])
                )
                worst = max(worst, l2, h1)
        assert worst < 1e-24  # squared norms

    def test_constant_state_against_exact_one(self):
        mesh = generate_quad(4)
        system, march = constant_state_run(mesh)
        rep = error_norms(
            march,
            system,
            lambda t, p: np.ones(len(p)),
            lambda t, p: np.zeros((len(p), 2)),
        )
        assert rep.indicator < 1e-9

    def test_indicator_identity(self):
        mesh = generate_quad(4)
        system, march = constant_state_run(mesh)
        rep = error_norms(
            march,
            system,
            lambda t, p: np.sin(t) * p[:, 0],
            lambda t, p: np.column_stack([np.sin(t) * np.ones(len(p)), np.zeros(len(p))]),
        )
        assert rep.indicator**2 == pytest.approx(rep.l2_final**2 + rep.l2h1**2, rel=1e-14)

    def test_invariant_under_cell_relabeling(self):
        mesh = generate_voronoi(24, lloyd_iters=15, rng_seed=8)
        system, march = constant_state_run(mesh, k=2, q=1, n_slabs=2)
        c_ex = lambda t, p: np.cos(t) * np.exp(p[:, 0] * p[:, 1])
        g_ex = lambda t, p: np.cos(t) * np.exp(p[:, 0] * p[:, 1])[:, None] * np.column_stack(
            [p[:, 1], p[:, 0]]
        )
        rep = error_norms(march, system, c_ex, g_ex)

        rng = np.random.default_rng(0)
        perm = rng.permutation(mesh.num_cells)
        mesh2 = PolyMesh(mesh.vertices, [mesh.cells[p] for p in perm])
        vel2 = analytic_velocity(unit_x, mesh2, 2)
        prob2 = TransportProblem(D=0.5, velocity=vel2, f=zeros_f)
        system2 = TransportSystem(mesh2, 2, prob2)
        mapping = dof_map(system.space, system2.space, perm)
        march2 = march._replace(values=march.values[:, :, mapping])
        rep2 = error_norms(march2, system2, c_ex, g_ex)
        assert rep2.indicator == pytest.approx(rep.indicator, rel=1e-12)
        assert rep2.l2_final == pytest.approx(rep.l2_final, rel=1e-12)


class TestMinMax:
    def test_constant_run(self):
        mesh = generate_quad(3)
        system, march = constant_state_run(mesh)
        rows = minmax_trace(march, system.space.num_vertex_dofs)
        assert len(rows) == 4 * 2  # slabs x radau nodes
        for _, lo, hi in rows:
            assert lo == pytest.approx(1.0, abs=1e-10)
            assert hi == pytest.approx(1.0, abs=1e-10)

    def test_zero_data_run(self):
        mesh = generate_quad(3)
        vel = analytic_velocity(unit_x, mesh, 1)
        prob = TransportProblem(D=1.0, velocity=vel, f=zeros_f)
        system = TransportSystem(mesh, 1, prob)
        march = advance(system, 1.0, 3, 1)
        rows = minmax_trace(march, system.space.num_vertex_dofs)
        for _, lo, hi in rows:
            assert lo == 0.0 and hi == 0.0

    def test_csv_format(self):
        text = minmax_csv([(0.1, -0.5, 2.0)])
        lines = text.strip().split("\n")
        assert lines[0] == "time,min_vertex,max_vertex"
        assert len(lines) == 2


class TestRateTable:
    def _report(self, level, h, err):
        return ErrorReport(
            level=level, h=h, dt=h, l2_final=err, l2h1=err, indicator=err, h1_final=err,
            slab_residual=0.0,
        )

    def test_halving_gives_rate_one(self):
        reports = [self._report(1, 1.0, 1.0), self._report(2, 0.5, 0.5)]
        text, csv_text = rate_table(reports)
        last = csv_text.strip().split("\n")[-1].split(",")
        assert last[-1] == "1.000"

    def test_quartering_gives_rate_two(self):
        reports = [self._report(1, 1.0, 1.0), self._report(2, 0.5, 0.25)]
        _, csv_text = rate_table(reports)
        last = csv_text.strip().split("\n")[-1].split(",")
        assert last[-1] == "2.000"

    def test_single_level_has_no_rate_columns(self):
        _, csv_text = rate_table([self._report(1, 1.0, 1.0)])
        header = csv_text.strip().split("\n")[0]
        assert "rate" not in header

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rate_table([])

    def test_observed_rate_least_squares(self):
        reports = [
            self._report(1, 1.0, 2.0),
            self._report(2, 0.5, 1.0),
            self._report(3, 0.25, 0.5),
        ]
        assert observed_rate(reports) == pytest.approx(1.0, abs=1e-12)
