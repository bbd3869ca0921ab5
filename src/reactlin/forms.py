"""Rotation-conjugate standard forms that keep transient structure.

Diagonalization forces orthogonal eigenvectors and therefore erases any
reactive-attractor structure.  Conjugating by a pure rotation instead
only slides the R and T curves horizontally, so reactivity, attenuation
and both spectra survive.  Four landmark placements are useful:

    R-centered  gamma = theta_R            [[rho1, -m_T], [m_T, rho2]]
    T-centered  gamma = theta_T            [[m_R, -tau2], [tau1, m_R]]
    R-zeroed    gamma = theta_R - delta_R  [[0, -mu2], [mu1, 2 m_R]]
    T-zeroed    gamma = theta_T - delta_T  [[lambda2, -2 m_T], [0, lambda1]]

The zeroed forms pick the zero whose outgoing slope is nonnegative, so
the reactive arc (R-zeroed) or the positive-T arc (T-zeroed) starts on
the positive x-axis and sweeps into the first quadrant.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import Mat2, _norm_mod_pi, _parts, _record, _scale, rotate_conjugate
from .errors import InapplicableError
from .spectra import DistinctRealEigen, DistinctRealOrtho, _eigen_case, _ortho_case

__all__ = [
    "StandardFormKind",
    "StandardFormResult",
    "to_r_centered",
    "to_t_centered",
    "to_r_zeroed",
    "to_t_zeroed",
    "verify_form",
]

VERIFY_RTOL = 1e-9


class StandardFormKind(Enum):
    R_CENTERED = "r_centered"
    T_CENTERED = "t_centered"
    R_ZEROED = "r_zeroed"
    T_ZEROED = "t_zeroed"


@_record
class StandardFormResult:
    """A standard form together with the rotation that produced it.

    matrix equals rotate_conjugate(original, gamma) by construction;
    gamma is reported as the minimal-magnitude representative of its
    mod-pi class, in (-pi/2, pi/2] (the forms are invariant under
    gamma +/- pi).
    """

    kind: StandardFormKind
    matrix: Mat2
    gamma: float


def _build(a: Mat2, kind: StandardFormKind, gamma: float) -> StandardFormResult:
    g = _norm_mod_pi(gamma)
    if g > math.pi / 2:
        g -= math.pi
    return StandardFormResult(kind=kind, matrix=rotate_conjugate(a, g), gamma=g)


def to_r_centered(a: Mat2) -> StandardFormResult:
    """Rotate so R attains its maximum on the positive x-axis."""
    theta_r = _parts(a)[3]
    if theta_r is None:
        raise InapplicableError("R-centered form undefined: p = 0, no phase angle")
    return _build(a, StandardFormKind.R_CENTERED, theta_r)


def to_t_centered(a: Mat2) -> StandardFormResult:
    """Rotate so T attains its maximum on the positive x-axis."""
    theta_r = _parts(a)[3]
    if theta_r is None:
        raise InapplicableError("T-centered form undefined: p = 0, no phase angle")
    return _build(a, StandardFormKind.T_CENTERED, _norm_mod_pi(theta_r - math.pi / 4))


def to_r_zeroed(a: Mat2) -> StandardFormResult:
    """Rotate a zero of R onto the x-axis, reactive arc ahead of it."""
    m_r, m_t, p, theta_r = _parts(a)
    case, _, delta_r = _ortho_case(m_r, m_t, p)
    if case is not DistinctRealOrtho:
        raise InapplicableError(
            "R-zeroed form needs two real orthovalues; R does not cross zero"
        )
    return _build(a, StandardFormKind.R_ZEROED, theta_r - delta_r)


def to_t_zeroed(a: Mat2) -> StandardFormResult:
    """Rotate an eigenline onto the x-axis, positive-T arc ahead of it."""
    m_r, m_t, p, theta_r = _parts(a)
    case, _, delta_t = _eigen_case(m_r, m_t, p)
    if case is not DistinctRealEigen:
        raise InapplicableError(
            "T-zeroed form needs two distinct real eigenvalues"
        )
    return _build(a, StandardFormKind.T_ZEROED, _norm_mod_pi(theta_r - math.pi / 4) - delta_t)


def verify_form(a: Mat2, kind: StandardFormKind) -> bool:
    """Check the defining condition of a form directly on a matrix.

    On the positive x-axis the curves and their slopes are entries:
    R = a11, T = a21, dR/dtheta = a12 + a21 and dT/dtheta = a22 - a11.
    Value conditions are tested to 1e-9 of the rate scale
    |m_R| + |m_T| + p; the slope-sign clauses of the zeroed forms accept
    an exactly repeated zero (slope zero within tolerance).
    """
    m_r, m_t, p, _ = _parts(a)
    tol = VERIFY_RTOL * _scale(m_r, m_t, p)
    if kind is StandardFormKind.R_CENTERED:
        return abs(a.a11 - (m_r + p)) <= tol
    if kind is StandardFormKind.T_CENTERED:
        return abs(a.a21 - (m_t + p)) <= tol
    if kind is StandardFormKind.R_ZEROED:
        return abs(a.a11) <= tol and a.a12 + a.a21 >= -tol
    if kind is StandardFormKind.T_ZEROED:
        return abs(a.a21) <= tol and a.a22 - a.a11 >= -tol
    raise InapplicableError(f"unknown form kind {kind!r}")
