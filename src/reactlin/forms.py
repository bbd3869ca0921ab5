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
from dataclasses import dataclass
from enum import Enum

from .core import (
    Mat2,
    _norm_mod_pi,
    decompose,
    eval_radial,
    eval_radial_slope,
    eval_tangential,
    eval_tangential_slope,
    rotate_conjugate,
)
from .errors import InapplicableError
from .spectra import DistinctRealEigen, DistinctRealOrtho, eigen_structure, ortho_structure

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


@dataclass(frozen=True)
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
    rt = decompose(a)
    if rt.theta_r is None:
        raise InapplicableError("R-centered form undefined: p = 0, no phase angle")
    return _build(a, StandardFormKind.R_CENTERED, rt.theta_r.value)


def to_t_centered(a: Mat2) -> StandardFormResult:
    """Rotate so T attains its maximum on the positive x-axis."""
    rt = decompose(a)
    theta_t = rt.theta_t
    if theta_t is None:
        raise InapplicableError("T-centered form undefined: p = 0, no phase angle")
    return _build(a, StandardFormKind.T_CENTERED, theta_t.value)


def to_r_zeroed(a: Mat2) -> StandardFormResult:
    """Rotate a zero of R onto the x-axis, reactive arc ahead of it."""
    rt = decompose(a)
    ortho = ortho_structure(rt)
    if not isinstance(ortho, DistinctRealOrtho):
        raise InapplicableError(
            "R-zeroed form needs two real orthovalues; R does not cross zero"
        )
    assert rt.theta_r is not None
    return _build(a, StandardFormKind.R_ZEROED, rt.theta_r.value - ortho.delta_r)


def to_t_zeroed(a: Mat2) -> StandardFormResult:
    """Rotate an eigenline onto the x-axis, positive-T arc ahead of it."""
    rt = decompose(a)
    eig = eigen_structure(rt)
    if not isinstance(eig, DistinctRealEigen):
        raise InapplicableError(
            "T-zeroed form needs two distinct real eigenvalues"
        )
    theta_t = rt.theta_t
    assert theta_t is not None
    return _build(a, StandardFormKind.T_ZEROED, theta_t.value - eig.delta_t)


def verify_form(a: Mat2, kind: StandardFormKind) -> bool:
    """Check the defining condition of a form directly on a matrix.

    Value conditions are tested to a relative 1e-9; the slope-sign
    clauses of the zeroed forms accept an exactly repeated zero (slope
    zero within tolerance).
    """
    rt = decompose(a)
    scale = 1.0 + rt.p + abs(rt.m_r) + abs(rt.m_t)
    tol = VERIFY_RTOL * scale
    if kind is StandardFormKind.R_CENTERED:
        return abs(eval_radial(rt, 0.0) - rt.rho1) <= tol
    if kind is StandardFormKind.T_CENTERED:
        return abs(eval_tangential(rt, 0.0) - rt.tau1) <= tol
    if kind is StandardFormKind.R_ZEROED:
        return abs(eval_radial(rt, 0.0)) <= tol and eval_radial_slope(rt, 0.0) >= -tol
    if kind is StandardFormKind.T_ZEROED:
        return (
            abs(eval_tangential(rt, 0.0)) <= tol
            and eval_tangential_slope(rt, 0.0) >= -tol
        )
    raise InapplicableError(f"unknown form kind {kind!r}")
