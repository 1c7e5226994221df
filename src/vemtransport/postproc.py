"""Error norms, the combined error indicator, rate tables, and
vertex-value monitoring.

Discrete functions are only known through their projections, so the
spatial norms compare the exact fields against the L2 projection (for
values) and the gradient of the H1-type projection (for derivatives) at
polygon quadrature points. Time integrals over a slab use a Gauss rule
with q+2 points, which avoids sampling only the collocation nodes.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .element import monomial_maps
from .quadrature import gauss_interval, lagrange_values


@dataclass
class ErrorReport:
    """Error measures for one space-time refinement level."""

    level: int
    h: float
    dt: float
    l2_final: float
    l2h1: float
    indicator: float
    h1_final: float
    slab_residual: float  # largest relative residual of the march's slab solves

    def row(self):
        return [self.level, self.h, self.dt, self.l2_final, self.l2h1, self.indicator, self.h1_final]


class ErrorEvaluator:
    """Stacked quadrature data for repeated norm evaluations.

    The exact fields are evaluated once per time, on the data-rule
    points of all cells (VemSpace.data_points). A dof vector reaches
    them through two sparse maps: a cell operator to monomial
    coefficients (of Pi0, and of d/dx and d/dy of Pi_nabla), and the
    point map, whose row of a point holds its cell's monomial values.
    """

    def __init__(self, system):
        space = system.space
        self.space = space
        self.coef_operators = [space.cell_operator([g.pi0_coef for g in space.groups])] + [
            space.cell_operator([(m / g.diameter[:, None, None]) @ g.pin_coef for g in space.groups])
            for m in monomial_maps(space.k)[:2]
        ]
        # column cell * n_poly + j as in the coefficient rows; data is a view of data_phi
        npol, offsets = space.data_phi.shape[1], space.data_offsets
        cols = np.repeat(npol * np.arange(len(offsets) - 1), np.diff(offsets))[:, None] + np.arange(npol)
        self.point_map = sp.csr_matrix(
            (space.data_phi.ravel(), cols.ravel(), npol * np.arange(len(cols) + 1)),
            shape=(len(cols), npol * (len(offsets) - 1)),
        )

    def projections(self, coeffs):
        """Values at the data points of the L2 projection and of the x and
        y derivatives of the H1-type projection of a dof vector: three
        arrays of shape (npts,)."""
        return [self.point_map @ (op @ coeffs) for op in self.coef_operators]

    def spatial_errors(self, coeffs, t, c_exact, grad_exact):
        """Squared L2 and H1-seminorm distances at one time."""
        pts, w = self.space.data_points, self.space.data_weights
        vals, gx, gy = self.projections(coeffs)
        ex = np.asarray(c_exact(t, pts), dtype=float)
        gex = np.asarray(grad_exact(t, pts), dtype=float).T
        # numpy's own sum, not a BLAS ddot, which OpenBLAS threads past ~10k entries
        l2 = float(np.einsum("i,i->", w, (ex - vals) ** 2))
        h1 = float(np.einsum("i,i->", w, (gex[0] - gx) ** 2 + (gex[1] - gy) ** 2))
        return l2, h1


def error_norms(march, system, c_exact, grad_exact, level=0):
    """Combined error report for a march (a `timestepping.Trajectory`)
    against exact fields.

    The indicator squares the final-time L2 error and adds the
    time-integrated squared H1 norm (L2 part plus seminorm part).
    """
    ev = ErrorEvaluator(system)
    ends, times, values = march.ends, march.times, march.values
    taus = np.diff(ends)
    ref_nodes = (times - ends[:-1, None]) / taus[:, None]
    l2h1_sq = 0.0
    for n, (t0, t1) in enumerate(zip(ends[:-1], ends[1:])):
        tq, wq = gauss_interval(t0, t1, times.shape[1] + 1)
        for t, w in zip(tq, wq):
            coeffs = (lagrange_values(ref_nodes[n], (t - t0) / taus[n]) @ values[n])[0]
            l2, h1 = ev.spatial_errors(coeffs, t, c_exact, grad_exact)
            l2h1_sq += w * (l2 + h1)
    l2f, h1f = ev.spatial_errors(values[-1, -1], ends[-1], c_exact, grad_exact)
    return ErrorReport(
        level=level,
        h=system.mesh.mesh_size,
        dt=float(taus.max()),
        l2_final=np.sqrt(l2f),
        l2h1=np.sqrt(l2h1_sq),
        indicator=np.sqrt(l2f + l2h1_sq),
        h1_final=np.sqrt(h1f),
        slab_residual=march.residual,
    )


def minmax_trace(march, n_vertex_dofs):
    """Vertex-value extrema at every Radau node of every slab of a march.

    Returns a list of (time, min, max) rows; vertex dofs are the leading
    block of the global dof vector.
    """
    vertex = march.values[:, :, :n_vertex_dofs]
    return list(zip(
        march.times.ravel().tolist(),
        vertex.min(axis=2).ravel().tolist(),
        vertex.max(axis=2).ravel().tolist(),
    ))


_ERROR_COLUMNS = ["l2_final", "l2h1", "err", "h1_final"]


def csv_text(header, rows):
    """CSV text of a header and rows of formatted cells."""
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def rate_table(reports):
    """Observed-rate table for a refinement sequence.

    Returns (text, csv_string). Rates compare consecutive levels through
    log(e_i / e_{i+1}) / log(h_i / h_{i+1}); a single level yields a
    table without rate columns.
    """
    if not reports:
        raise ValueError("need at least one report")
    header = ["level", "h", "dt"] + _ERROR_COLUMNS
    rows = [[str(rep.level)] + [f"{v:.12e}" for v in rep.row()[1:]] for rep in reports]
    if len(reports) >= 2:
        header += [f"rate_{c}" for c in _ERROR_COLUMNS]
        rows[0] += [""] * len(_ERROR_COLUMNS)
        for row, prev, rep in zip(rows[1:], reports, reports[1:]):
            ratio = np.log(prev.h / rep.h)
            row += [f"{np.log(a / b) / ratio:.3f}" if a > 0 and b > 0 and ratio != 0 else ""
                    for a, b in zip(prev.row()[3:], rep.row()[3:])]
    text = "\n".join("  ".join(f"{c:>12s}" for c in cells) for cells in [header, *rows])
    return text, csv_text(header, rows)


def observed_rate(reports):
    """Least-squares slope of log(indicator) against log(h)."""
    hs = np.array([r.h for r in reports])
    es = np.array([r.indicator for r in reports])
    if np.any(es <= 0):
        raise ValueError("errors must be positive for a rate fit")
    slope, _ = np.polyfit(np.log(hs), np.log(es), 1)
    return float(slope)


def minmax_csv(rows):
    """CSV dump of (time, min, max) rows."""
    return csv_text(["time", "min_vertex", "max_vertex"],
                    [[f"{v:.12e}" for v in row] for row in rows])
