"""Every public scalar argument is admitted by one rule (core._real).

Each argument is fed values that are not finite reals, and, where it
must be positive, zero and a negative; each must raise InvalidInputError
whose message names the argument.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from reactlin import (
    AngleModPi,
    Classification,
    InvalidInputError,
    Mat2,
    NonautConfig,
    RTParams,
    angle_distance_mod_pi,
    attractor_with_eigenvalues,
    attractor_with_eigenvectors,
    decompose,
    default_step,
    eigen_structure,
    eval_radial,
    eval_tangential,
    from_deltas,
    integrate_linear,
    integrate_nonaut,
    integrate_polar,
    matrix_exponential,
    nonaut_matrix,
    reconstruct,
    rho_max_from_eigen_ortho,
    rho_max_from_midlines,
    rho_max_from_separations,
    rho_max_numeric,
    rotate_conjugate,
    rotation_matrix,
    sweep_rotation_rates,
    transient_summary,
)
from reactlin.dynamics import MAX_GRID_STEPS, MAX_SWEEP_POINTS, _grid
from conftest import A_SPIRAL, A_TRIANGULAR

RT = decompose(A_SPIRAL)
CFG = NonautConfig(A_SPIRAL, -3.0)

# (function, label, positive, call): call(v) passes v as the argument
# named label and valid values for all others.
CASES = [
    ("AngleModPi", "angle", False, lambda v: AngleModPi(v)),
    ("Mat2", "matrix entry a11", False, lambda v: Mat2(v, 0.0, 0.0, 1.0)),
    ("Mat2", "matrix entry a22", False, lambda v: Mat2(1.0, 0.0, 0.0, v)),
    ("RTParams", "m_r", False, lambda v: RTParams(v, 1.0, 0.5, AngleModPi(0.3))),
    ("RTParams", "m_t", False, lambda v: RTParams(1.0, v, 0.5, AngleModPi(0.3))),
    ("RTParams", "p", False, lambda v: RTParams(1.0, 1.0, v, AngleModPi(0.3))),
    ("RTParams", "theta_r", False, lambda v: RTParams(1.0, 1.0, 0.5, v)),
    ("Mat2.scaled", "scale factor", False, lambda v: A_TRIANGULAR.scaled(v)),
    ("rotate_conjugate", "rotation angle", False, lambda v: rotate_conjugate(A_TRIANGULAR, v)),
    ("rotation_matrix", "rotation angle", False, lambda v: rotation_matrix(v)),
    ("eval_radial", "theta", False, lambda v: eval_radial(RT, v)),
    ("eval_tangential", "theta", False, lambda v: eval_tangential(RT, v)),
    ("angle_distance_mod_pi", "a", False, lambda v: angle_distance_mod_pi(v, 0.3)),
    ("angle_distance_mod_pi", "b", False, lambda v: angle_distance_mod_pi(0.3, v)),
    ("integrate_linear", "step", True,
     lambda v: integrate_linear(A_TRIANGULAR, (1.0, 0.0), v, 1.0)),
    ("integrate_linear", "t_end", True,
     lambda v: integrate_linear(A_TRIANGULAR, (1.0, 0.0), 1e-3, v)),
    ("integrate_linear", "x0[0]", False,
     lambda v: integrate_linear(A_TRIANGULAR, (v, 0.0), 1e-3, 1.0)),
    ("integrate_linear", "x0[1]", False,
     lambda v: integrate_linear(A_TRIANGULAR, (1.0, v), 1e-3, 1.0)),
    ("integrate_nonaut", "step", True, lambda v: integrate_nonaut(CFG, (1.0, 0.0), v, 1.0)),
    ("integrate_nonaut", "t_end", True, lambda v: integrate_nonaut(CFG, (1.0, 0.0), 1e-3, v)),
    ("integrate_nonaut", "x0[1]", False, lambda v: integrate_nonaut(CFG, (1.0, v), 1e-3, 1.0)),
    ("integrate_polar", "step", True, lambda v: integrate_polar(RT, 1.0, 0.0, v, 1.0)),
    ("integrate_polar", "t_end", True, lambda v: integrate_polar(RT, 1.0, 0.0, 1e-3, v)),
    ("integrate_polar", "r0", True, lambda v: integrate_polar(RT, v, 0.0, 1e-3, 1.0)),
    ("integrate_polar", "theta0", False, lambda v: integrate_polar(RT, 1.0, v, 1e-3, 1.0)),
    ("matrix_exponential", "time", False, lambda v: matrix_exponential(A_TRIANGULAR, v)),
    ("NonautConfig", "rotation rate k", False, lambda v: NonautConfig(A_SPIRAL, v)),
    ("nonaut_matrix", "t", False, lambda v: nonaut_matrix(CFG, v)),
    ("sweep_rotation_rates", "k_min", False, lambda v: sweep_rotation_rates(A_SPIRAL, v, 0.0, 5)),
    ("sweep_rotation_rates", "k_max", False, lambda v: sweep_rotation_rates(A_SPIRAL, -8.0, v, 5)),
    ("sweep_rotation_rates", "step", True,
     lambda v: sweep_rotation_rates(A_SPIRAL, -8.0, 0.0, 5, step=v)),
    ("sweep_rotation_rates", "t_end", True,
     lambda v: sweep_rotation_rates(A_SPIRAL, -8.0, 0.0, 5, t_end=v)),
    ("default_step", "base", True, lambda v: default_step(RT, v)),
    ("rho_max_numeric", "step", True, lambda v: rho_max_numeric(A_TRIANGULAR, step=v)),
    ("rho_max_from_eigen_ortho", "lambda1", False,
     lambda v: rho_max_from_eigen_ortho(v, -3.0, 3.1, 0.1)),
    ("rho_max_from_eigen_ortho", "lambda2", False,
     lambda v: rho_max_from_eigen_ortho(-1.0, v, 3.1, 0.1)),
    ("rho_max_from_eigen_ortho", "mu1", False,
     lambda v: rho_max_from_eigen_ortho(-1.0, -3.0, v, 0.1)),
    ("rho_max_from_eigen_ortho", "mu2", False,
     lambda v: rho_max_from_eigen_ortho(-1.0, -3.0, 3.1, v)),
    ("rho_max_from_midlines", "m_r", False, lambda v: rho_max_from_midlines(v, 3.0, 2.0, 1.0)),
    ("rho_max_from_midlines", "m_t", False, lambda v: rho_max_from_midlines(-2.0, v, 2.0, 1.0)),
    ("rho_max_from_midlines", "p_r", False, lambda v: rho_max_from_midlines(-2.0, 3.0, v, 1.0)),
    ("rho_max_from_midlines", "p_t", False, lambda v: rho_max_from_midlines(-2.0, 3.0, 2.0, v)),
    ("rho_max_from_separations", "delta_r", False, lambda v: rho_max_from_separations(v, 0.1)),
    ("rho_max_from_separations", "delta_t", False, lambda v: rho_max_from_separations(0.3, v)),
    ("from_deltas", "delta_r", False, lambda v: from_deltas(v, 0.1, 1.0)),
    ("from_deltas", "delta_t", False, lambda v: from_deltas(0.3, v, 1.0)),
    ("from_deltas", "rho", True, lambda v: from_deltas(0.3, 0.1, v)),
    ("attractor_with_eigenvalues", "lambda1", False,
     lambda v: attractor_with_eigenvalues(v, -3.0, 1.0)),
    ("attractor_with_eigenvalues", "lambda2", False,
     lambda v: attractor_with_eigenvalues(-1.0, v, 1.0)),
    ("attractor_with_eigenvalues", "rho", True,
     lambda v: attractor_with_eigenvalues(-1.0, -3.0, v)),
    ("attractor_with_eigenvectors", "theta1", False,
     lambda v: attractor_with_eigenvectors(v, 0.1, 1.0)),
    ("attractor_with_eigenvectors", "theta2", False,
     lambda v: attractor_with_eigenvectors(0.6, v, 1.0)),
    ("attractor_with_eigenvectors", "rho", True,
     lambda v: attractor_with_eigenvectors(0.6, 0.1, v)),
    ("attractor_with_eigenvectors", "delta_r", False,
     lambda v: attractor_with_eigenvectors(0.6, 0.1, 1.0, delta_r=v)),
]

# None selects the documented default of these arguments.
NONE_IS_THE_DEFAULT = {("rho_max_numeric", "step"), ("attractor_with_eigenvectors", "delta_r"),
                       ("RTParams", "theta_r")}


def expected_message(label, bad):
    if isinstance(bad, str) or bad is None:
        return f"{label}={bad!r} is not a real number"
    if isinstance(bad, (int, Fraction)) and abs(bad) > 10**308:
        return f"{label} is too large for a float"
    if not math.isfinite(bad):
        return f"{label}={bad!r} is not finite"
    return f"{label}={bad!r} is not positive"


@pytest.mark.parametrize("name, label, positive, call", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_refuses_what_is_not_an_admissible_real(name, label, positive, call):
    bads = ["x", 10**400, Fraction(10**400, 3), math.nan, math.inf, -math.inf]
    if (name, label) not in NONE_IS_THE_DEFAULT:
        bads.append(None)
    for bad in bads + ([0.0, -1.0] if positive else []):
        with pytest.raises(InvalidInputError) as exc:
            call(bad)
        assert str(exc.value) == expected_message(label, bad)


@pytest.mark.parametrize("theta_r", [0.3, 0.3 + math.pi, 3, Fraction(3, 10), np.float32(0.3)],
                         ids=["float", "beyond-pi", "int", "fraction", "float32"])
def test_rtparams_takes_a_real_theta_r_as_an_angle(theta_r):
    rt, want = RTParams(-1.0, 2.0, 3.0, theta_r), RTParams(-1.0, 2.0, 3.0, AngleModPi(theta_r))
    assert type(rt.theta_r) is AngleModPi
    assert rt == want
    # each analysis reads theta_r.value
    for analysis in (reconstruct, eigen_structure, transient_summary):
        assert analysis(rt) == analysis(want)
    assert transient_summary(rt).classification is Classification.SADDLE


def test_sweep_needs_an_integer_count():
    for bad in ("x", None, 2.5, Fraction(5, 1), 1, True):
        with pytest.raises(InvalidInputError) as exc:
            sweep_rotation_rates(A_SPIRAL, -8.0, 0.0, bad)
        assert str(exc.value) == f"need at least 2 sweep points, got {bad!r}"


def test_sweep_width_must_be_a_float():
    # each end is finite, but the width np.linspace needs overflows
    with pytest.raises(InvalidInputError) as exc:
        sweep_rotation_rates(A_SPIRAL, -1e308, 1e308, 5)
    assert str(exc.value) == "k_max - k_min=inf is not finite"


# (function, call): call(v) passes v as the initial state x0.
X0_CASES = [
    ("integrate_linear", lambda v: integrate_linear(A_TRIANGULAR, v, 1e-3, 1.0)),
    ("integrate_nonaut", lambda v: integrate_nonaut(CFG, v, 1e-3, 1.0)),
]


@pytest.mark.parametrize("name, call", X0_CASES, ids=[c[0] for c in X0_CASES])
@pytest.mark.parametrize("bad", [(1.0,), 1.0, (1.0, 0.0, 5.0), None, [], "x"],
                         ids=["1-tuple", "float", "3-tuple", "None", "empty", "string"])
def test_initial_state_must_be_a_pair(name, call, bad):
    with pytest.raises(InvalidInputError) as exc:
        call(bad)
    assert str(exc.value) == f"x0 must be a pair of reals, got {bad!r}"


def test_sweep_count_is_bounded():
    # the log-norm array holds up to 514 floats per rate
    for bad in (MAX_SWEEP_POINTS + 1, 10**20):
        with pytest.raises(InvalidInputError) as exc:
            sweep_rotation_rates(A_SPIRAL, -8.0, 0.0, bad)
        assert str(exc.value) == f"need at most {MAX_SWEEP_POINTS} sweep points, got {bad!r}"


# (function, call): call(step, t_end) runs the integrator on that grid.
GRID_CASES = [
    ("integrate_linear", lambda h, t: integrate_linear(A_TRIANGULAR, (1.0, 0.0), h, t)),
    ("integrate_polar", lambda h, t: integrate_polar(RT, 1.0, 0.0, h, t)),
    ("integrate_nonaut", lambda h, t: integrate_nonaut(CFG, (1.0, 0.0), h, t)),
]


@pytest.mark.parametrize("name, call", GRID_CASES, ids=[c[0] for c in GRID_CASES])
@pytest.mark.parametrize("step, t_end", [(1e-9, 10.0), (1.0, MAX_GRID_STEPS + 1.0), (5e-324, 1e308)],
                         ids=["1e10-steps", "one-too-many", "ratio-overflows"])
def test_integrator_grid_is_bounded(name, call, step, t_end):
    # refused before any array is allocated
    with pytest.raises(InvalidInputError) as exc:
        call(step, t_end)
    assert str(exc.value) == f"t_end / step = {t_end!r} / {step!r} is more than {MAX_GRID_STEPS} steps"


def test_integrator_grid_bound_is_inclusive():
    assert _grid(1.0, float(MAX_GRID_STEPS)) == (MAX_GRID_STEPS, 0.0)
