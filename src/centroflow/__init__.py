"""centroflow: centro-affine invariants of closed plane curves and the
nonlocal invariant curve flow that drives them toward origin-centered
ellipses."""

from .curve import (ClosedCurve, bracket, check_convex, check_star_shaped,
                    origin_ellipse, perturbed_ellipse, preset,
                    random_star_convex, shifted_ellipse, star_convex)
from .curvature_flow import CurvatureFlowState
from .curve_flow import CurveFlowState, consistency_check, nonlocal_potential
from .diagnostics import Verdict, explicit_ellipse_family, fit_origin_ellipse
from .errors import (BlowUp, CentroflowError, ConfigError, DegenerateMetric,
                     FlowError, NonConstantSign, NotStarShaped,
                     StabilityViolation)
from .invariants import (InvariantField, centro_affine, centro_equiaffine,
                         energy, perimeter, phi_from_mu, sobolev_norm,
                         xi_derivative)
from .scenario import ScenarioConfig, run_scenario, run_sweep
from .trajectory import FlowTrajectory

__version__ = "0.1.0"

__all__ = [
    "ClosedCurve", "CurvatureFlowState", "CurveFlowState", "FlowTrajectory",
    "InvariantField", "ScenarioConfig", "Verdict",
    "bracket", "centro_affine", "centro_equiaffine", "check_convex",
    "check_star_shaped", "consistency_check", "energy",
    "explicit_ellipse_family", "fit_origin_ellipse", "nonlocal_potential",
    "origin_ellipse", "perimeter", "perturbed_ellipse", "phi_from_mu",
    "preset", "random_star_convex", "run_scenario", "run_sweep",
    "shifted_ellipse", "sobolev_norm", "star_convex", "xi_derivative",
    "BlowUp", "CentroflowError", "ConfigError", "DegenerateMetric",
    "FlowError", "NonConstantSign", "NotStarShaped", "StabilityViolation",
]
