"""Bifurcation analysis of planar cubic Lotka-Volterra systems with two
small parameters: normal-form reduction, equilibrium classification,
bifurcation-curve tracing with genericity verification, parameter-plane
region type-tables, and phase portraits."""

from .errors import (AmbiguousLabel, CollisionMismatch, DegenerateJacobian,
                     DiskError, DivisionError, HypothesisViolation, LVError,
                     NewtonDivergence, NotApplicable, OnCurve, SectorTooThin,
                     SignError, StepFailure, UnsupportedCase)
from .poly import CoefficientPoly, linear_poly
from .model import (DELTA_ZERO, DOUBLY_DEGENERATE, EPSILON_DISK,
                    NONDEGENERATE, THETA_ZERO, ParamPoint, RawSystem,
                    ReducedSystem, load_system, reduce, system_from_dict)
from .equilibria import (Equilibrium, EquilibriumList, Tolerances,
                         char_poly_identities, find_equilibria, refine_e3)
from .bifurcation import (BifurcationCurve, SotomayorReport, collision_check,
                          parabola_point, sotomayor_saddle_node,
                          sotomayor_transcritical, trace_curve)
from .regions import (CaseDescriptor, FamilyVerification, RegionReport,
                      decompose, region_membership, select_case,
                      signature_at, verify_tables)
from .dynamics import Portrait, Trajectory, integrate, portrait, separatrices
from .oracle import fd_jacobian, grid_equilibria, sign_scan
from .verification import sotomayor_suite

__version__ = "0.1.0"

__all__ = [
    "AmbiguousLabel", "CollisionMismatch", "DegenerateJacobian", "DiskError",
    "DivisionError", "HypothesisViolation", "LVError", "NewtonDivergence",
    "NotApplicable", "OnCurve", "SectorTooThin", "SignError", "StepFailure",
    "UnsupportedCase",
    "CoefficientPoly", "linear_poly",
    "DELTA_ZERO", "DOUBLY_DEGENERATE", "EPSILON_DISK", "NONDEGENERATE",
    "THETA_ZERO", "ParamPoint", "RawSystem", "ReducedSystem",
    "load_system", "reduce", "system_from_dict",
    "Equilibrium", "EquilibriumList", "Tolerances", "char_poly_identities",
    "find_equilibria", "refine_e3",
    "BifurcationCurve", "SotomayorReport", "collision_check", "parabola_point",
    "sotomayor_saddle_node", "sotomayor_transcritical", "trace_curve",
    "CaseDescriptor", "FamilyVerification", "RegionReport", "decompose",
    "region_membership", "select_case", "signature_at", "verify_tables",
    "Portrait", "Trajectory", "integrate", "portrait", "separatrices",
    "fd_jacobian", "grid_equilibria", "sign_scan",
    "sotomayor_suite",
    "__version__",
]
