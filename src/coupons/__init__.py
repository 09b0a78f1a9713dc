"""Impatient coupon collector: Stirling asymptotics, conditioned sampling,
limiting completion curves, and random accessible automata."""

from .errors import NumericsError, QuadratureError, ResourceCapError
from .specialfn import (SaddleParams, f_drift, g_theta, lambert_w0, rate_j,
                        saddle_params, tail_h, xi_of_lambda, xi_via_lambertw)
from .stirling import (ExactBackend, LogDPBackend, chi, psi_log,
                       psi_log_forms, saddle_diagnostics,
                       stirling_exact, surjection_log_probability,
                       transition_error)
from .curve import (Curve, curve_to_csv, envelope, lambda_along,
                    patient_curve, solve_completion_curve, strip_clearance)
from .sampler import (auto_backend, conditioned_paths, prefix_law,
                      rejection_paths, sample_patient, sup_distance_batch,
                      sup_distances_of)
from .automata import (bfs_accessible, dyck_check,
                       estimate_accessibility, estimate_middle_crossing,
                       exact_accessible_count, korshunov_constant,
                       korshunov_report, pollaczek_crossing,
                       simulate_walk_max, structure_from_diagram,
                       surjection_to_diagram)

__version__ = "0.1.0"

__all__ = [
    "NumericsError", "QuadratureError", "ResourceCapError",
    "SaddleParams", "f_drift", "g_theta", "lambert_w0", "rate_j",
    "saddle_params", "tail_h", "xi_of_lambda", "xi_via_lambertw",
    "ExactBackend", "LogDPBackend",
    "chi", "psi_log", "psi_log_forms",
    "saddle_diagnostics", "stirling_exact",
    "surjection_log_probability", "transition_error",
    "Curve", "curve_to_csv", "envelope", "lambda_along", "patient_curve",
    "solve_completion_curve", "strip_clearance",
    "auto_backend", "conditioned_paths", "prefix_law", "rejection_paths",
    "sample_patient", "sup_distance_batch", "sup_distances_of",
    "bfs_accessible", "dyck_check",
    "estimate_accessibility", "estimate_middle_crossing",
    "exact_accessible_count", "korshunov_constant", "korshunov_report",
    "pollaczek_crossing", "simulate_walk_max", "structure_from_diagram",
    "surjection_to_diagram",
    "__version__",
]
