"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line with its runtime (visible
with `pytest tests/test_acceptance.py -v -s`). The heavier criteria share
generated meshes through a module-level cache.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from vemtransport.cli import run_manufactured_level
from vemtransport.darcy import (
    DarcyProblem,
    analytic_velocity,
    solve_darcy_mixed,
    source_mean,
)
from vemtransport.geometry import generate_family, generate_hexa
from vemtransport.postproc import minmax_trace, observed_rate
from vemtransport.config import load_preset
from vemtransport.problems import WellsProblem
from vemtransport.quadrature import gauss_interval, gauss_radau, lagrange_values
from vemtransport.timestepping import advance
from vemtransport.transport import TransportProblem, TransportSystem

from helpers import (
    VemElement,
    build_slab_system,
    cell_polygon,
    l_tau,
    radau_iia_step,
    velocity_l2_error,
)

_MESHES = {}


def get_mesh(family, level):
    key = (family, level)
    if key not in _MESHES:
        _MESHES[key] = generate_family(family, level, rng_seed=2024)
    return _MESHES[key]


@contextmanager
def criterion(label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label} ({time.perf_counter() - t0:.1f}s)", flush=True)
        raise
    print(f"[PASS] {label} ({time.perf_counter() - t0:.1f}s)", flush=True)


def test_criterion_01_radau_exactness():
    with criterion("criterion 1: Radau exactness through degree 2q"):
        for q in range(7):
            rule = gauss_radau(q)
            for j in range(2 * q + 1):
                err = abs(rule.weights @ rule.nodes**j - 1.0 / (j + 1))
                assert err <= 1e-12, f"q={q} moment {j}: {err:.2e}"


def test_criterion_02_projector_consistency():
    with criterion("criterion 2: projector consistency on 50 cells per family"):
        rng = np.random.default_rng(7)
        for family in ("quad", "hexa", "voro", "rand"):
            mesh = get_mesh(family, 2)
            cells = rng.choice(mesh.num_cells, size=50, replace=False)
            for ci in cells:
                verts = cell_polygon(mesh, int(ci))
                for k in (1, 2, 3):
                    el = VemElement(verts, k)
                    eye = np.eye(el.n_poly)
                    err_n = np.max(np.abs(el.pin_coef @ el.D - eye))
                    err_0 = np.max(np.abs(el.pi0_coef @ el.D - eye))
                    assert err_n <= 1e-10, f"{family} cell {ci} k={k}: {err_n:.2e}"
                    assert err_0 <= 1e-10, f"{family} cell {ci} k={k}: {err_0:.2e}"


def test_criterion_03_skew_and_coercivity_identities():
    with criterion("criterion 3: skew pairing and quadratic-form identity on hexa1"):
        mesh = get_mesh("hexa", 1)
        vel = analytic_velocity(
            lambda p: np.column_stack([np.exp(p[:, 0]), np.exp(p[:, 1])]), mesh, 1
        )
        f = lambda t, p: np.exp(p[:, 0]) + np.exp(p[:, 1])
        system = TransportSystem(mesh, 1, TransportProblem(D=1.0, velocity=vel, f=f))
        A, B, Lam, R = system.operator_parts()
        A0 = system.advection_operator()
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.standard_normal(system.space.n_dofs)
            scale = max(1.0, abs(v @ (A0 @ v)))
            assert abs(v @ (B @ v)) <= 1e-12 * scale
            ident = v @ (A0 @ v) - (v @ (A @ v) + 0.5 * (v @ (Lam @ v) + v @ (R @ v)))
            assert abs(ident) <= 1e-12 * scale


def test_criterion_04_darcy_patch_and_rates():
    with criterion("criterion 4: flow patch test and velocity rates k+1"):
        for family in ("quad", "hexa", "voro", "rand"):
            mesh = get_mesh(family, 1)
            prob = DarcyProblem(
                g_D=lambda p: 2.0 * p[:, 0] - p[:, 1] + 0.3,
                dirichlet_edges=frozenset(int(e) for e in mesh.boundary_edges),
            )
            vel, _ = solve_darcy_mixed(mesh, prob, 1)
            err = velocity_l2_error(
                vel,
                lambda p: np.column_stack([2.0 * np.ones(len(p)), -np.ones(len(p))]),
            )
            assert err <= 1e-10, f"{family}: patch error {err:.2e}"

        u_exact = lambda p: np.column_stack([np.exp(p[:, 0]), np.exp(p[:, 1])])
        p_exact = lambda p: np.exp(p[:, 0]) + np.exp(p[:, 1])
        for k in (1, 2):
            errs, hs = [], []
            for level in (1, 2, 3, 4):
                mesh = get_mesh("quad", level)
                prob = DarcyProblem(
                    f=p_exact,
                    g_D=p_exact,
                    dirichlet_edges=frozenset(int(e) for e in mesh.boundary_edges),
                )
                vel, _ = solve_darcy_mixed(mesh, prob, k)
                errs.append(velocity_l2_error(vel, u_exact))
                hs.append(mesh.mesh_size)
            rate = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
            assert abs(rate - (k + 1)) <= 0.2, f"k={k}: velocity rate {rate:.3f}"


def test_criterion_05_ode_oracle():
    with criterion("criterion 5: slab solves match classical Radau-IIA steps"):
        rng = np.random.default_rng(11)
        eye = sp.csr_matrix(np.eye(10))
        for q in (0, 1, 2, 3):
            radau = gauss_radau(q)
            for _ in range(3):
                L = rng.random((10, 10)) + 10.0 * np.eye(10)
                y0 = rng.random(10)
                tau = 0.07
                mat, rhs = build_slab_system(
                    eye, sp.csr_matrix(L), radau, tau,
                    [np.zeros(10)] * (q + 1), y0,
                )
                got = np.linalg.solve(mat.toarray(), rhs)[-10:]
                want = radau_iia_step(L, y0, tau, q, nodes=radau.nodes)
                assert np.max(np.abs(got - want)) <= 1e-10
                if q == 0:
                    euler = np.linalg.solve(np.eye(10) + tau * L, y0)
                    assert np.max(np.abs(got - euler)) <= 1e-12


def test_criterion_06_constant_state_preservation():
    with criterion("criterion 6: constant concentration preserved over 10 slabs"):
        mesh = get_mesh("quad", 1)
        vel = analytic_velocity(
            lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]), mesh, 1
        )
        prob = TransportProblem(
            D=0.31,
            velocity=vel,
            f=lambda t, p: np.zeros(len(p)),
            c_inflow=lambda t, p, n: np.ones(len(p)),
            c0=lambda p: np.ones(len(p)),
        )
        system = TransportSystem(mesh, 1, prob)
        march = advance(system, 1.0, 10, 1)
        ref = system.initial_condition()
        dev = np.max(np.abs(march.values - ref))
        assert dev <= 1e-9, f"max deviation {dev:.2e}"


STEPS = {1: 3, 2: 6, 3: 12, 4: 24}


@pytest.mark.parametrize("family,k", [("quad", 1), ("quad", 2), ("voro", 1), ("voro", 2)])
def test_criterion_07_space_time_convergence(family, k):
    with criterion(f"criterion 7: space-time convergence rate [{family}, k=q={k}]"):
        reports = []
        for level in (1, 2, 3, 4):
            mesh = get_mesh(family, level)
            rep, _ = run_manufactured_level(mesh, STEPS[level], k, k, 1.0, "darcy", level=level)
            reports.append(rep)
        rate = observed_rate(reports)
        assert abs(rate - k) <= 0.25, (
            f"{family} k={k}: rate {rate:.3f}, errors "
            + ", ".join(f"{r.indicator:.3e}" for r in reports)
        )


def test_criterion_08_k_convergence():
    with criterion("criterion 8: order-of-magnitude gain per degree increment"):
        mesh = get_mesh("quad", 1)
        errs = []
        for k in (1, 2, 3, 4):
            rep, _ = run_manufactured_level(mesh, STEPS[1], k, k, 1.0, "darcy")
            errs.append(rep.indicator)
        for i in range(3):
            shrink = errs[i] / errs[i + 1]
            assert shrink >= 5.0, f"k={i+1}->{i+2}: shrink {shrink:.2f}"


def test_criterion_09_diffusion_robustness():
    with criterion("criterion 9: error stable over the diffusion sweep"):
        mesh = get_mesh("quad", 2)
        errs = []
        for D in (1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            rep, _ = run_manufactured_level(mesh, STEPS[2], 1, 1, D, "darcy")
            errs.append(rep.indicator)
        ratio = max(errs) / min(errs)
        assert ratio <= 3.0, f"max/min err ratio {ratio:.3f}"


def test_criterion_10_wells_example():
    with criterion("criterion 10: wells variants, symmetry, and positivity"):
        mesh = generate_hexa(3, distortion=0.0)
        from scipy.spatial import cKDTree

        tree = cKDTree(mesh.vertices)
        for variant in ("homo", "vert", "diag"):
            wells = WellsProblem(variant)
            mean = source_mean(mesh, wells.darcy_f, 1)
            dprob = DarcyProblem(
                f=lambda p: wells.darcy_f(p) - mean, g_N=wells.g_N, dirichlet_edges=frozenset()
            )
            vel, _ = solve_darcy_mixed(mesh, dprob, 1)
            tprob = TransportProblem(
                D=load_preset(f"wells-{variant}").D, velocity=vel, f=wells.f,
                c_tilde=wells.c_tilde, c_inflow=wells.c_inflow, c0=wells.c0,
            )
            system = TransportSystem(mesh, 1, tprob)
            n_steps = int(round(wells.t_final / wells.dt))
            march = advance(system, wells.t_final, n_steps, 1)
            assert len(march.values) == 100
            rows = minmax_trace(march, system.space.num_vertex_dofs)
            vmin = min(r[1] for r in rows)
            vmax = max(r[2] for r in rows)
            assert vmin >= -0.05 * vmax, f"{variant}: min {vmin:.3e} vs max {vmax:.3e}"
            if variant == "homo":
                c = march.values[9, -1]  # t = 1, the end of the injection ramp
                scale = np.max(np.abs(c))
                for mirror, shift in [([-1.0, 1.0], [1.0, 0.0]), ([1.0, -1.0], [0.0, 1.0])]:
                    mirrored = mesh.vertices * mirror + shift
                    _, idx = tree.query(mirrored)
                    resid = np.max(np.abs(c - c[idx])) / scale
                    assert resid <= 1e-6, f"symmetry residual {resid:.2e}"


def test_criterion_11_interpolant_identity_and_trace_bound():
    with criterion("criterion 11: weighted-interpolant identity and trace bound"):
        for q in range(5):
            radau = gauss_radau(q)
            rng = np.random.default_rng(q)
            for _ in range(100):
                v = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, q + 1))
                dv = v.deriv() if q > 0 else np.polynomial.Polynomial([0.0])
                lt = l_tau(v(radau.nodes), radau)
                tq, wq = gauss_interval(0.0, 1.0, q + 3)
                lhs = wq @ (dv(tq) * lt(tq)) + v(0.0) * lt(np.array([0.0]))[0]
                rhs = 0.5 * (
                    v(1.0) ** 2
                    + np.sum(radau.weights / radau.nodes**2 * v(radau.nodes) ** 2)
                )
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        for q in (1, 2, 3, 4):
            radau = gauss_radau(q)
            rng = np.random.default_rng(q + 50)
            samples = rng.standard_normal((100, q + 1))
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
            assert max(fitted) / min(fitted) <= 1.0 + 1e-9
