"""Polygonal virtual-element solver for Darcy-driven transport.

The package couples a mixed virtual-element Darcy solver with a
skew-symmetrized advection-diffusion-reaction discretization on general
polygonal meshes, integrated in time by a discontinuous Galerkin scheme
collocated at Gauss-Radau nodes.
"""

from .geometry import (
    PolyMesh,
    generate_quad,
    generate_hexa,
    generate_voronoi,
    audit_mesh,
)
from .quadrature import PolygonRule, RadauRule, polygon_rule, edge_rule, gauss_radau, map_radau
from .element import VemSpace
from .darcy import DarcyProblem, DiscreteVelocity, solve_darcy_mixed, analytic_velocity
from .transport import TransportProblem, TransportSystem
from .timestepping import Trajectory, advance
from .postproc import ErrorReport, error_norms, minmax_trace, rate_table

__version__ = "0.1.0"

__all__ = [
    "PolyMesh",
    "generate_quad",
    "generate_hexa",
    "generate_voronoi",
    "audit_mesh",
    "PolygonRule",
    "RadauRule",
    "polygon_rule",
    "edge_rule",
    "gauss_radau",
    "map_radau",
    "VemSpace",
    "DarcyProblem",
    "DiscreteVelocity",
    "solve_darcy_mixed",
    "analytic_velocity",
    "TransportProblem",
    "TransportSystem",
    "Trajectory",
    "advance",
    "ErrorReport",
    "error_norms",
    "minmax_trace",
    "rate_table",
    "__version__",
]
