"""reactlin: radial/tangential analysis of planar linear ODE systems.

Decomposes X' = AX into radial and tangential sinusoids, reads the
eigen- and ortho-structure off them, computes rotation-conjugate
standard forms, synthesizes systems with prescribed transients, finds
exact and numeric maximal amplification, and analyzes stability under
nonautonomous rotation of the coefficient matrix.

The analytic layers are imported here; dynamics and the names in
_DYNAMICS load on first use, through __getattr__ (PEP 562).
"""

from .core import (AngleModPi, Mat2, QUARTER_TURN, RTParams, angle_distance_mod_pi, decompose,
                   eval_radial, eval_tangential, matrix_exponential, reconstruct,
                   reflect_conjugate, rotate_conjugate, rotation_matrix, symmetric_part_reactivity)
from .errors import InapplicableError, InvalidInputError, NumericFailureError, ReactlinError
from .spectra import (AllOrtho, AngularEquilibrium, AngularPhaseLine, Classification,
                      ComplexPairEigen, DistinctRealEigen, DistinctRealOrtho, EigenStructure,
                      NoRealOrtho, OrthoStructure, RepeatedDefectiveEigen, RepeatedFullEigen,
                      RepeatedOrtho, Stability, TransientSummary, angular_phase_line,
                      eigen_structure, ortho_structure, transient_summary)
from .forms import (StandardFormKind, StandardFormResult, to_r_centered, to_r_zeroed,
                    to_t_centered, to_t_zeroed, verify_form)
from .synthesis import attractor_with_eigenvalues, attractor_with_eigenvectors, from_deltas
from .amplification import (AmplificationMethod, AmplificationResult, rho_max_bound_eigen,
                            rho_max_bound_ortho, rho_max_closed, rho_max_from_eigen_ortho,
                            rho_max_from_midlines, rho_max_from_separations, rho_max_numeric)

_DYNAMICS = frozenset({
    "NonautConfig", "SweepPoint", "SweepResult", "Trajectory", "corotating_matrix",
    "default_step", "integrate_linear", "integrate_nonaut", "integrate_polar",
    "log_norm_slope", "nonaut_matrix", "repulsion_window", "sweep_rotation_rates",
})


def __getattr__(name: str):
    if name == "dynamics" or name in _DYNAMICS:
        import importlib
        dynamics = importlib.import_module(".dynamics", __name__)
        return dynamics if name == "dynamics" else getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_DYNAMICS, "dynamics"})


__version__ = "0.1.0"
__all__ = [name for name in __dir__() if not name.startswith("_")]
