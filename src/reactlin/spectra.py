"""Eigen- and ortho-structure read off the radial/tangential curves.

Zeros of T are eigendirections (the field there is purely radial) and
zeros of R are orthovector directions (the field there is purely
tangential, A V = mu V_perp).  Both follow the same four-way split:

    eigen:  p vs |m_T|   (T crosses zero twice / never / identically / once)
    ortho:  p vs |m_R|   (same cases for R)

with separations p_R = sqrt(p^2 - m_T^2) and p_T = sqrt(p^2 - m_R^2).
The ortho case additionally pins the reactive set: R > 0 exactly on the
open arc between the two orthovector angles around theta_R.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import AngleModPi, RTParams, _norm_mod_pi, _record, _scale, _separation
from .errors import InapplicableError

__all__ = [
    "DistinctRealEigen",
    "ComplexPairEigen",
    "RepeatedFullEigen",
    "RepeatedDefectiveEigen",
    "EigenStructure",
    "DistinctRealOrtho",
    "NoRealOrtho",
    "AllOrtho",
    "RepeatedOrtho",
    "OrthoStructure",
    "Classification",
    "TransientSummary",
    "AngularEquilibrium",
    "AngularPhaseLine",
    "Stability",
    "eigen_structure",
    "ortho_structure",
    "transient_summary",
    "angular_phase_line",
    "CASE_RTOL",
]

# Tolerance for all degeneracy decisions (p vs |m_T|, p vs |m_R|,
# eigenvalue vs 0) as a fraction of the rate scale |m_R| + |m_T| + p, so
# A and cA (c > 0) classify alike.  Ties are resolved toward the
# repeated / degenerate variant so classification is deterministic.
CASE_RTOL = 1e-10


# ---------------------------------------------------------------------------
# eigen structure


@_record
class DistinctRealEigen:
    """Two real eigenvalues lambda1 > lambda2 on eigenlines theta1/theta2.

    The eigenlines sit symmetrically around the maximum of T at angular
    radius delta_T, and lambda_i = R(theta_i) with lambda1 on the side
    theta_T + delta_T.
    """

    lambda1: float
    lambda2: float
    theta1: AngleModPi
    theta2: AngleModPi
    delta_t: float
    p_r: float


@_record
class ComplexPairEigen:
    """Conjugate pair re +/- i*im, im > 0; T never vanishes.

    re is the mean radial velocity m_R and im = sqrt(tau1 tau2), the
    geometric mean of the extreme angular velocities.
    """

    re: float
    im: float


@_record
class RepeatedFullEigen:
    """T identically zero: every direction is an eigenline."""

    lam: float


@_record
class RepeatedDefectiveEigen:
    """T tangent to zero: one eigenline, algebraic multiplicity two."""

    lam: float
    theta0: AngleModPi


EigenStructure = (
    DistinctRealEigen | ComplexPairEigen | RepeatedFullEigen | RepeatedDefectiveEigen
)


def _eigen_case(m_r: float, m_t: float, p: float) -> tuple[type, float, float]:
    """p vs |m_T| on floats: the type eigen_structure builds, p_R (im for a
    complex pair) and delta_T, each 0.0 where the case has none."""
    tol = CASE_RTOL * _scale(m_r, m_t, p)
    if abs(p - abs(m_t)) <= tol:
        return (RepeatedFullEigen if p <= tol else RepeatedDefectiveEigen), 0.0, 0.0
    if p < abs(m_t):
        return ComplexPairEigen, _separation(m_t, p), 0.0
    # p > |m_T|: two zeros of T, symmetric around theta_T.
    p_r = _separation(p, m_t)
    return DistinctRealEigen, p_r, 0.5 * math.atan2(p_r, -m_t)


def eigen_structure(rt: RTParams) -> EigenStructure:
    """Classify the spectrum from the decomposition parameters."""
    m_r, m_t = rt.m_r, rt.m_t
    case, sep, delta_t = _eigen_case(m_r, m_t, rt.p)
    if case is RepeatedFullEigen:
        return RepeatedFullEigen(lam=m_r)
    if case is ComplexPairEigen:
        return ComplexPairEigen(re=m_r, im=sep)
    if case is RepeatedDefectiveEigen:
        # T touches zero at its extremum nearest the axis crossing.
        shift = math.pi / 4 if m_t > 0 else -math.pi / 4
        return RepeatedDefectiveEigen(lam=m_r, theta0=rt.theta_r.shifted(shift))
    theta_t = _norm_mod_pi(rt.theta_r.value - math.pi / 4)
    return DistinctRealEigen(
        lambda1=m_r + sep,
        lambda2=m_r - sep,
        theta1=AngleModPi(theta_t + delta_t),
        theta2=AngleModPi(theta_t + -delta_t),
        delta_t=delta_t,
        p_r=sep,
    )


# ---------------------------------------------------------------------------
# ortho structure


@_record
class DistinctRealOrtho:
    """Two orthovector lines phi1/phi2 bounding the reactive arc.

    mu_i = T(phi_i) with mu1 >= mu2; phi1 = theta_R - delta_R is the
    side carrying the larger orthovalue.
    """

    mu1: float
    mu2: float
    phi1: AngleModPi
    phi2: AngleModPi
    delta_r: float
    p_t: float


@_record
class NoRealOrtho:
    """R single-signed: no orthovectors, no reactive boundary."""


@_record
class AllOrtho:
    """R identically zero: every direction is an orthovector."""

    mu: float


@_record
class RepeatedOrtho:
    """R tangent to zero: a single orthovector line."""

    mu: float
    phi0: AngleModPi


OrthoStructure = DistinctRealOrtho | NoRealOrtho | AllOrtho | RepeatedOrtho


def _ortho_case(m_r: float, m_t: float, p: float) -> tuple[type, float, float]:
    """p vs |m_R| on floats: the type ortho_structure builds, p_T and
    delta_R, both 0.0 unless the orthovector lines are distinct."""
    tol = CASE_RTOL * _scale(m_r, m_t, p)
    if abs(p - abs(m_r)) <= tol:
        return (AllOrtho if p <= tol else RepeatedOrtho), 0.0, 0.0
    if p < abs(m_r):
        return NoRealOrtho, 0.0, 0.0
    p_t = _separation(p, m_r)
    return DistinctRealOrtho, p_t, 0.5 * math.atan2(p_t, -m_r)


def _reactive_arc(m_r: float, m_t: float, p: float) -> tuple[float, float]:
    """p_T and the arc radius delta_R of a reactive arc with two distinct ends."""
    case, p_t, delta_r = _ortho_case(m_r, m_t, p)
    if case is not DistinctRealOrtho:
        raise InapplicableError("reactive arc is degenerate within tolerance")
    return p_t, delta_r


def ortho_structure(rt: RTParams) -> OrthoStructure:
    """Classify the orthovectors; mirrors eigen_structure with m_R."""
    m_r, m_t = rt.m_r, rt.m_t
    case, p_t, delta_r = _ortho_case(m_r, m_t, rt.p)
    if case is AllOrtho:
        return AllOrtho(mu=m_t)
    if case is NoRealOrtho:
        return NoRealOrtho()
    if case is RepeatedOrtho:
        # R touches zero at its maximum (m_R < 0) or minimum (m_R > 0).
        shift = 0.0 if m_r < 0 else math.pi / 2
        return RepeatedOrtho(mu=m_t, phi0=rt.theta_r.shifted(shift))
    return DistinctRealOrtho(
        mu1=m_t + p_t,
        mu2=m_t - p_t,
        phi1=rt.theta_r.shifted(-delta_r),
        phi2=rt.theta_r.shifted(delta_r),
        delta_r=delta_r,
        p_t=p_t,
    )


# ---------------------------------------------------------------------------
# transient summary


class Classification(Enum):
    REACTIVE_ATTRACTOR = "reactive_attractor"
    NONREACTIVE_ATTRACTOR = "nonreactive_attractor"
    ATTENUATING_REPELLER = "attenuating_repeller"
    NONATTENUATING_REPELLER = "nonattenuating_repeller"
    SADDLE = "saddle"
    CENTER = "center"
    CIRCULAR_CENTER = "circular_center"
    DEGENERATE = "degenerate"


@_record
class TransientSummary:
    """Reactivity data of the system in one record.

    reactive_set is the open arc of angles where R > 0, stored as
    (lo, hi) with hi possibly beyond pi so the arc stays contiguous
    (consumers reduce mod pi on read); None when the set is empty, and
    a full period (lo, lo + pi) when R > 0 everywhere.  rho1 and rho2 are
    the rounded extremes m_R +- p; the flags and the classification take
    their signs from the ortho case (see transient_summary), so
    is_reactive holds exactly when reactive_set is not None.
    """

    rho1: float
    rho2: float
    reactive_set: tuple[float, float] | None
    classification: Classification
    is_reactive: bool
    is_attenuating: bool


def transient_summary(rt: RTParams) -> TransientSummary:
    """Reactivity, attenuation, reactive arc and orbit classification.

    The ortho case (p vs |m_R|, tie band included) decides every sign of
    R: R > 0 somewhere (is_reactive, a reactive attractor, a reactive_set)
    and R < 0 somewhere (is_attenuating, an attenuating repeller).  Inside
    the band the extreme of R that meets zero counts as 0, whatever the
    sign of the rounded rho1 or rho2: a tie with m_R < 0 is not reactive,
    and one with m_R > 0 is not attenuating.
    """
    m_r, m_t, p = rt.m_r, rt.m_t, rt.p
    eig, p_r, _ = _eigen_case(m_r, m_t, p)
    ortho, _, delta_r = _ortho_case(m_r, m_t, p)
    eig_tol = CASE_RTOL * _scale(m_r, m_t, p)
    # R crosses zero, or keeps one sign (at most touching zero), or is 0
    crosses = ortho is DistinctRealOrtho
    one_sign = ortho is NoRealOrtho or ortho is RepeatedOrtho
    is_reactive = crosses or (one_sign and m_r > 0)
    is_attenuating = crosses or (one_sign and m_r < 0)

    if eig is DistinctRealEigen:
        lam1, lam2 = m_r + p_r, m_r - p_r
    else:  # a complex or repeated pair has real part m_R
        lam1 = lam2 = m_r

    if ortho is AllOrtho:
        # R identically zero: concentric circles, or the zero matrix.
        cls = Classification.CIRCULAR_CENTER if abs(m_t) > eig_tol else Classification.DEGENERATE
    elif min(abs(lam1), abs(lam2)) <= eig_tol:
        cls = Classification.CENTER if eig is ComplexPairEigen else Classification.DEGENERATE
    elif lam1 < 0 and lam2 < 0:
        cls = (
            Classification.REACTIVE_ATTRACTOR
            if is_reactive
            else Classification.NONREACTIVE_ATTRACTOR
        )
    elif lam1 > 0 and lam2 > 0:
        cls = (
            Classification.ATTENUATING_REPELLER
            if is_attenuating
            else Classification.NONATTENUATING_REPELLER
        )
    else:
        cls = Classification.SADDLE

    if not is_reactive:
        arc = None
    elif crosses:
        lo = _norm_mod_pi(rt.theta_r.value + -delta_r)
        arc = (lo, lo + 2.0 * delta_r)
    elif ortho is RepeatedOrtho:
        # R touches zero from above: all but phi0.
        lo = _norm_mod_pi(rt.theta_r.value + math.pi / 2)
        arc = (lo, lo + math.pi)
    else:  # R > 0 everywhere
        arc = (0.0, math.pi)

    return TransientSummary(
        rho1=rt.rho1,
        rho2=rt.rho2,
        reactive_set=arc,
        classification=cls,
        is_reactive=is_reactive,
        is_attenuating=is_attenuating,
    )


def _require_reactive_attractor(rt: RTParams, purpose: str) -> RTParams:
    """Return rt if it is a reactive attractor, else raise naming purpose."""
    cls = transient_summary(rt).classification
    if cls is not Classification.REACTIVE_ATTRACTOR:
        raise InapplicableError(
            f"{purpose} needs a reactive attractor; system classifies as {cls.value}"
        )
    return rt


# ---------------------------------------------------------------------------
# angular phase line


class Stability(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SEMI_STABLE = "semi_stable"


@_record
class AngularEquilibrium:
    """A rest angle of the angular flow dtheta/dt = T(theta) and its stability."""

    angle: AngleModPi
    stability: Stability


@_record
class AngularPhaseLine:
    """Equilibria of the angular flow dtheta/dt = T(theta) on [0, pi).

    all_angles marks the degenerate T == 0 case where every direction
    is at rest (then equilibria is empty).
    """

    equilibria: tuple[AngularEquilibrium, ...]
    all_angles: bool


def angular_phase_line(rt: RTParams) -> AngularPhaseLine:
    """Phase line of the angular dynamics.

    Eigendirections are the rest angles; the one carrying the larger
    eigenvalue attracts (T' = -2 (R - m_R) is negative there), the
    other repels.  A defective eigenline is semi-stable.
    """
    eig = eigen_structure(rt)
    if isinstance(eig, RepeatedFullEigen):
        return AngularPhaseLine(equilibria=(), all_angles=True)
    if isinstance(eig, ComplexPairEigen):
        return AngularPhaseLine(equilibria=(), all_angles=False)
    if isinstance(eig, RepeatedDefectiveEigen):
        eq = AngularEquilibrium(angle=eig.theta0, stability=Stability.SEMI_STABLE)
        return AngularPhaseLine(equilibria=(eq,), all_angles=False)
    eqs = sorted(
        [
            AngularEquilibrium(angle=eig.theta1, stability=Stability.ATTRACTING),
            AngularEquilibrium(angle=eig.theta2, stability=Stability.REPELLING),
        ],
        key=lambda e: e.angle.value,
    )
    return AngularPhaseLine(equilibria=tuple(eqs), all_angles=False)
