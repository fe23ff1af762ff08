"""Nonconforming finite elements on quadrilateral meshes.

Three families on the reference square [-1,1]^2, any supported order:

* ``R``     (odd m):  P_m + span{x^m y - x y^m}; continuity at m Gauss points
  per edge plus one linear relation among each element's boundary values.
* ``ER``    (odd m):  P_m + span{x^m y - x y^m, x^{m+1} - y^{m+1}}; continuity
  at m Gauss points per edge, no relation.
* ``RPlus`` (even m): P_m + span{x^m y, x y^m}; Gauss-point continuity, a
  corner degree of freedom, and an even-order relation.

The package solves the homogeneous Poisson problem on (0,1)^2 and reports
L2 / broken-H1 convergence tables via the ``qncfem`` command line tool.
"""

from .mesh import QuadMesh, load_mesh, perturbed_mesh, refine, uniform_rect_mesh
from .refelem import Family, ReferenceElement, build_reference_element, gauss_rule
from .solve import SparseSystem, assemble, error_norms, solve
from .space import (
    FeFunction,
    GlobalSpace,
    build_global_space,
    expected_dimension,
    interpolate,
    prolong,
)

__version__ = "0.1.0"

__all__ = [
    "gauss_rule",
    "QuadMesh",
    "uniform_rect_mesh",
    "perturbed_mesh",
    "refine",
    "load_mesh",
    "Family",
    "ReferenceElement",
    "build_reference_element",
    "GlobalSpace",
    "FeFunction",
    "build_global_space",
    "expected_dimension",
    "interpolate",
    "prolong",
    "SparseSystem",
    "assemble",
    "error_norms",
    "solve",
    "__version__",
]
