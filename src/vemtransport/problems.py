"""Built-in data sets: the manufactured smooth problem driving the
convergence studies and the five-well injection example.

The manufactured concentration is sin(t) exp((x-1)^2 (y-1)^2) under the
flow (e^x, e^y); its diffusive flux vanishes identically on the outflow
walls x = 1 and y = 1. The inflow datum is chosen so the inflow boundary
condition holds exactly for every diffusion coefficient:
c_I = c - D (grad c . n) / (u . n).
"""

import numpy as np


class ManufacturedProblem:
    """Smooth transport problem with known solution on (0,1)^2."""

    def __init__(self, D=1.0):
        self.D = float(D)
        self.K_perm = 1.0
        self.mu = 1.0
        self.t_final = 1.0
        self._field_cache = {}  # id(points) -> (points, fields)

    # flow -------------------------------------------------------------

    def velocity(self, p):
        return np.column_stack([np.exp(p[:, 0]), np.exp(p[:, 1])])

    def pressure(self, p):
        return np.exp(p[:, 0]) + np.exp(p[:, 1])

    def f(self, t, p):
        return np.exp(p[:, 0]) + np.exp(p[:, 1])

    def darcy_f(self, p):
        return np.exp(p[:, 0]) + np.exp(p[:, 1])

    def darcy_g_D(self, p):
        return self.pressure(p)

    # concentration ------------------------------------------------------

    #: read-only point sets kept by _fields: the live data and boundary sets
    FIELD_CACHE_SIZE = 4

    def _stationary_fields(self, p):
        """The t-independent factors of c and its data at points p; f is
        stationary, like the flow."""
        x, y = p[:, 0], p[:, 1]
        g = np.exp((x - 1.0) ** 2 * (y - 1.0) ** 2)
        gx = 2.0 * (x - 1.0) * (y - 1.0) ** 2 * g
        gy = 2.0 * (y - 1.0) * (x - 1.0) ** 2 * g
        gxx = (2.0 * (y - 1.0) ** 2 + 4.0 * (x - 1.0) ** 2 * (y - 1.0) ** 4) * g
        gyy = (2.0 * (x - 1.0) ** 2 + 4.0 * (y - 1.0) ** 2 * (x - 1.0) ** 4) * g
        u = self.velocity(p)
        return {"g": g, "grad": np.column_stack([gx, gy]), "u": u,
                "u_grad": u[:, 0] * gx + u[:, 1] * gy, "lap": gxx + gyy, "f": self.f(0.0, p)}

    def _fields(self, p):
        """Stationary fields at p, computed once per read-only point set:
        keyed by identity and holding the array, so that the key is not
        reused while the entry lives. A writable array is evaluated afresh."""
        if not isinstance(p, np.ndarray) or p.flags.writeable:
            return self._stationary_fields(p)
        cache = self._field_cache
        if id(p) not in cache:
            if len(cache) >= self.FIELD_CACHE_SIZE:
                del cache[next(iter(cache))]
            cache[id(p)] = (p, self._stationary_fields(p))
        return cache[id(p)][1]

    def c(self, t, p):
        return np.sin(t) * self._fields(p)["g"]

    def grad_c(self, t, p):
        return np.sin(t) * self._fields(p)["grad"]

    def c0(self, p):
        return np.zeros(len(p))

    def c_tilde(self, t, p):
        """Injected concentration manufactured from the strong equation."""
        fields = self._fields(p)
        g, f = fields["g"], fields["f"]
        ct = np.cos(t) * g
        conv = np.sin(t) * fields["u_grad"]
        lap = np.sin(t) * fields["lap"]
        return (ct + conv + f * np.sin(t) * g - self.D * lap) / f

    def c_inflow(self, t, p, normal):
        """Inflow datum consistent with the exact total-flux condition.

        normal is one outward normal (2,) or one per point (npts, 2).
        """
        normal = np.asarray(normal, dtype=float)
        un = np.sum(self._fields(p)["u"] * normal, axis=1)
        gn = np.sum(self.grad_c(t, p) * normal, axis=1)
        safe = np.where(un < -1e-12, un, -1.0)
        return np.where(un < -1e-12, self.c(t, p) - self.D * gn / safe, 0.0)


class WellsProblem:
    """Central injection well against four corner sinks on (0,1)^2.

    Gaussian bell sources/sinks of width parameter sigma = 100; variants
    differ in the corner sink strengths. The boundary is impermeable
    (g_N = 0 everywhere), so the flow problem is pure Neumann and the
    source must be corrected to zero mean for solvability; the caller
    removes darcy.source_mean from darcy_f for the flow solve.
    """

    VARIANTS = {
        "homo": {"s00": 0.3, "s01": 0.3, "s10": 0.3, "s11": 0.3},
        "vert": {"s00": 0.3, "s10": 0.3, "s01": 0.6, "s11": 0.6},
        "diag": {"s00": 0.6, "s11": 0.6, "s01": 0.3, "s10": 0.3},
    }

    def __init__(self, variant="homo"):
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown wells variant {variant!r}")
        self.variant = variant
        self.sigma = 100.0
        self.s_center = 0.3
        self.strengths = self.VARIANTS[variant]
        self.centers = {
            "c": np.array([0.5, 0.5]),
            "s00": np.array([0.15, 0.15]),
            "s10": np.array([0.15, 0.85]),
            "s01": np.array([0.85, 0.15]),
            "s11": np.array([0.85, 0.85]),
        }
        self.K_perm = 1.0
        self.mu = 1.0
        self.t_final = 10.0
        self.dt = 0.1

    def _bell(self, p, center):
        d2 = np.sum((p - center[None, :]) ** 2, axis=1)
        return np.exp(-self.sigma * d2)

    def f(self, t, p):
        out = self.s_center * self._bell(p, self.centers["c"])
        for key, s in self.strengths.items():
            out = out - s * self._bell(p, self.centers[key])
        return out

    def darcy_f(self, p):
        return self.f(0.0, p)

    def g_N(self, p):
        return np.zeros(len(p))

    def c_tilde(self, t, p):
        value = t if t <= 1.0 else 0.0
        return np.full(len(p), value)

    def c_inflow(self, t, p, normal):
        return np.zeros(len(p))

    def c0(self, p):
        return np.zeros(len(p))

