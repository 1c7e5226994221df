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

from .element import monomial_gradients
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

    def row(self):
        return [self.level, self.h, self.dt, self.l2_final, self.l2h1, self.indicator, self.h1_final]


class ErrorEvaluator:
    """Stacked quadrature data for repeated norm evaluations.

    The exact fields are evaluated once per time, on the data-rule
    points of all cells (VemSpace.data_points).
    """

    def __init__(self, system):
        space = system.space
        self.space = space
        self.pin_operator = space.cell_operator([g.pin_coef for g in space.groups])
        # per-group monomial gradient tables at the data points, (n, m, n_poly)
        self.gx, self.gy = zip(*(
            monomial_gradients(g.data_points, g.centroid, g.diameter, g.k)[1:]
            for g in space.groups
        ))

    def projections(self, coeffs):
        """L2-projection values and H1-type projection gradients of a dof
        vector at the data points, shapes (npts,) and (npts, 2)."""
        space = self.space
        vals = space.cell_values(space.pi0_operator @ coeffs)
        pin = self.pin_operator @ coeffs
        grad = np.column_stack(
            [space.cell_values(pin, self.gx), space.cell_values(pin, self.gy)]
        )
        return vals, grad

    def spatial_errors(self, coeffs, t, c_exact, grad_exact):
        """Squared L2 and H1-seminorm distances at one time."""
        pts, w = self.space.data_points, self.space.data_weights
        vals, grad = self.projections(coeffs)
        ex = np.asarray(c_exact(t, pts), dtype=float)
        gex = np.asarray(grad_exact(t, pts), dtype=float)
        # numpy's own sum, not a BLAS ddot, which OpenBLAS threads past ~10k entries
        l2 = float(np.einsum("i,i->", w, (ex - vals) ** 2))
        sq = (gex - grad) ** 2
        h1 = float(np.einsum("i,i->", w, sq[:, 0] + sq[:, 1]))
        return l2, h1


def error_norms(march, system, c_exact, grad_exact, level=0):
    """Combined error report for a march (a `timestepping.Trajectory`)
    against exact fields.

    The indicator squares the final-time L2 error and adds the
    time-integrated squared H1 norm (L2 part plus seminorm part).
    """
    ev = ErrorEvaluator(system)
    ends, times, values = march
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
