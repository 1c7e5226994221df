"""The manufactured problem's per-point-set cache of stationary fields.

ManufacturedProblem keeps the t-independent factors of c, grad c,
c_tilde and c_inflow for read-only point sets (the stacked data points
of a VemSpace and the boundary points of a TransportSystem). Cached and
uncached evaluations must agree bit for bit, with each other and with
the per-call formulas the cache replaced (reference_* below).
"""

import numpy as np
import pytest

from vemtransport.cli import run_manufactured_level
from vemtransport.darcy import analytic_velocity
from vemtransport.geometry import generate_family, generate_quad, generate_voronoi
from vemtransport.problems import ManufacturedProblem
from vemtransport.transport import TransportProblem, TransportSystem

TIMES = (0.0, 0.3, 1.0, 2.5)


def reference_shape(p):
    x, y = p[:, 0], p[:, 1]
    g = np.exp((x - 1.0) ** 2 * (y - 1.0) ** 2)
    gx = 2.0 * (x - 1.0) * (y - 1.0) ** 2 * g
    gy = 2.0 * (y - 1.0) * (x - 1.0) ** 2 * g
    gxx = (2.0 * (y - 1.0) ** 2 + 4.0 * (x - 1.0) ** 2 * (y - 1.0) ** 4) * g
    gyy = (2.0 * (x - 1.0) ** 2 + 4.0 * (y - 1.0) ** 2 * (x - 1.0) ** 4) * g
    return g, gx, gy, gxx, gyy


def reference_c_tilde(mp, t, p):
    g, gx, gy, gxx, gyy = reference_shape(p)
    u = mp.velocity(p)
    f = mp.f(t, p)
    ct = np.cos(t) * g
    conv = np.sin(t) * (u[:, 0] * gx + u[:, 1] * gy)
    lap = np.sin(t) * (gxx + gyy)
    return (ct + conv + f * np.sin(t) * g - mp.D * lap) / f


def reference_c_inflow(mp, t, p, normal):
    g, gx, gy, _, _ = reference_shape(p)
    un = np.sum(mp.velocity(p) * normal, axis=1)
    gn = np.sum(np.sin(t) * np.column_stack([gx, gy]) * normal, axis=1)
    safe = np.where(un < -1e-12, un, -1.0)
    return np.where(un < -1e-12, np.sin(t) * g - mp.D * gn / safe, 0.0)


def assert_same(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def manufactured_system(family, k):
    if family == "quad":
        mesh = generate_quad(4)
    else:
        mesh = generate_voronoi(24, lloyd_iters=5, rng_seed=3)
    data = ManufacturedProblem(D=0.5)
    tprob = TransportProblem(
        D=data.D, velocity=analytic_velocity(data.velocity, mesh, k), f=data.f,
        c_tilde=data.c_tilde, c_inflow=data.c_inflow, c0=data.c0,
    )
    return data, TransportSystem(mesh, k, tprob)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("family", ["quad", "voro"])
def test_cached_fields_match_uncached(family, k):
    data, system = manufactured_system(family, k)
    fresh = ManufacturedProblem(D=data.D)
    bd, normals = system._bd_points, system._bd_normals
    for t in TIMES:
        for p in (system.space.data_points, bd):
            assert_same(data.c(t, p), fresh.c(t, p.copy()))
            assert_same(data.grad_c(t, p), fresh.grad_c(t, p.copy()))
            assert_same(data.c_tilde(t, p), fresh.c_tilde(t, p.copy()))
            assert_same(data.c(t, p), np.sin(t) * reference_shape(p)[0])
            assert_same(data.c_tilde(t, p), reference_c_tilde(data, t, p))
        assert_same(data.c_inflow(t, bd, normals), fresh.c_inflow(t, bd.copy(), normals))
        assert_same(data.c_inflow(t, bd, normals), reference_c_inflow(data, t, bd, normals))
    assert len(data._field_cache) == 2
    assert fresh._field_cache == {}


def test_writable_points_are_evaluated_afresh():
    mp = ManufacturedProblem(D=0.5)
    p = np.random.default_rng(0).random((50, 2))
    before = mp.c_tilde(0.4, p)
    p += 0.1
    after = mp.c_tilde(0.4, p)
    assert not np.array_equal(after, before)
    assert_same(after, reference_c_tilde(mp, 0.4, p))
    assert_same(mp.grad_c(0.4, p), ManufacturedProblem(D=0.5).grad_c(0.4, p.copy()))
    assert mp._field_cache == {}


def test_cache_is_bounded():
    mp = ManufacturedProblem()
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.random((10, 2))
        p.flags.writeable = False
        assert_same(mp.c(0.5, p), np.sin(0.5) * reference_shape(p)[0])
        assert len(mp._field_cache) <= mp.FIELD_CACHE_SIZE
    assert len(mp._field_cache) == mp.FIELD_CACHE_SIZE


@pytest.mark.parametrize("family", ["quad", "voro"])
def test_stacked_point_sets_are_read_only(family):
    _, system = manufactured_system(family, 1)
    with pytest.raises(ValueError):
        system.space.data_points[0, 0] = 0.5
    with pytest.raises(ValueError):
        system._bd_points[0, 0] = 0.5


def test_one_field_computation_per_point_set(monkeypatch):
    calls = []
    compute = ManufacturedProblem._stationary_fields

    def spy(self, p):
        calls.append((id(p), len(p), p.flags.writeable))
        return compute(self, p)

    monkeypatch.setattr(ManufacturedProblem, "_stationary_fields", spy)
    run_manufactured_level(generate_family("quad", 1), 3, 1, 1, 1.0, "darcy", level=1)
    # 64 cells x 36 data-rule points, then 32 boundary edges x 4 Gauss points
    assert sorted(n for _, n, _ in calls) == [128, 2304]
    assert len({key for key, _, _ in calls}) == 2
    assert not any(writeable for _, _, writeable in calls)
