"""Maximal transient amplification of a reactive attractor.

A perturbation gains radius only while its angle is inside the reactive
arc, and the largest total gain is earned by entering exactly at the
arc's boundary orthovector and riding it to the far side.  Integrating
d(ln r)/d(theta) = R/T and dt/d(theta) = 1/T across the arc gives the
gain rho_max, the time t_max it takes and the entry angle in one
elementary real formula that covers distinct-real, repeated and
complex (spiral) spectra alike.  The paper's three closed forms (from
eigen/orthovalues; midlines and separations; the two arc radii) serve
as a runtime concordance check on real spectra, two strict upper bounds
come from each arc radius alone, and an independent oracle, fixed-step
RK4 on X' = AX itself (one step-matrix product per step), reproduces
all three outputs.

Orthovalue signs are canonicalized first: conjugating by diag(1, -1)
preserves every solution norm while flipping the sense of rotation, so
m_T >= 0 may be assumed and both orthovalues are then positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import AngleModPi, Mat2, RTParams, decompose, reflect_conjugate
from .dynamics import _rk4_increment, default_step
from .errors import InapplicableError, InvalidInputError, NumericFailureError
from .spectra import (
    Classification,
    ComplexPairEigen,
    DistinctRealEigen,
    DistinctRealOrtho,
    eigen_structure,
    ortho_structure,
    transient_summary,
)

__all__ = [
    "AmplificationMethod",
    "AmplificationResult",
    "rho_max_closed",
    "rho_max_numeric",
    "rho_max_bound_ortho",
    "rho_max_bound_eigen",
    "rho_max_from_eigen_ortho",
    "rho_max_from_midlines",
    "rho_max_from_separations",
]

CONCORDANCE_RTOL = 1e-9
EXIT_ANGLE_TOL = 1e-12
MAX_STEPS = 20_000_000


class AmplificationMethod(Enum):
    CLOSED_ARC = "closed_arc"
    NUMERIC_SWEEP = "numeric_sweep"


@dataclass(frozen=True)
class AmplificationResult:
    """Maximal amplification and how it is hit.

    rho_max is dimensionless and at least 1; t_max is the time the
    worst-case perturbation takes to cross the reactive arc and
    theta_entry the boundary orthovector line it starts on.  Both
    methods report all three.
    """

    rho_max: float
    t_max: float
    theta_entry: AngleModPi
    method: AmplificationMethod


# ---------------------------------------------------------------------------
# closed-form evaluators (each usable on its own ingredients)


def rho_max_from_eigen_ortho(
    lambda1: float, lambda2: float, mu1: float, mu2: float
) -> float:
    """Amplification from eigenvalues and orthovalues (mu2 > 0 required)."""
    base = (lambda1 * mu2 + lambda2 * mu1) / (lambda1 * mu1 + lambda2 * mu2)
    expo = (lambda1 + lambda2) / (lambda1 - lambda2)
    return math.sqrt(base**expo * (mu1 / mu2))


def rho_max_from_midlines(m_r: float, m_t: float, p_r: float, p_t: float) -> float:
    """Amplification from the midlines and the two separation radii."""
    base = (m_r * m_t - p_r * p_t) / (m_r * m_t + p_r * p_t)
    return math.sqrt(base ** (m_r / p_r) * (m_t + p_t) / (m_t - p_t))


def rho_max_from_separations(delta_r: float, delta_t: float) -> float:
    """Amplification from the reactive and eigenline arc radii alone."""
    c2r, s2r = math.cos(2 * delta_r), math.sin(2 * delta_r)
    c2t, s2t = math.cos(2 * delta_t), math.sin(2 * delta_t)
    base = math.cos(2 * delta_r + 2 * delta_t) / math.cos(2 * delta_r - 2 * delta_t)
    expo = -c2r / s2t
    return math.sqrt(base**expo * (c2t - s2r) / (c2t + s2r))


def _arc_factor(z: float) -> float:
    """F(z) = integral_0^1 ds / (1 - z s^2), defined and smooth for z < 1.

    Its closed forms are atanh(sqrt z)/sqrt z for z > 0 and
    atan(sqrt -z)/sqrt -z for z < 0, with the shared series
    1 + z/3 + z^2/5 near the repeated-eigenvalue boundary z = 0.
    """
    if z > 1e-8:
        w = math.sqrt(z)
        return math.atanh(w) / w
    if z < -1e-8:
        w = math.sqrt(-z)
        return math.atan(w) / w
    return 1.0 + z / 3.0 + z * z / 5.0


# ---------------------------------------------------------------------------
# applicability plumbing


def _reactive_rt(a: Mat2) -> tuple[RTParams, bool]:
    """Decompose once, require a reactive attractor, and reflect if needed.

    Conjugating by diag(1, -1) maps (m_T, theta_R) to (-m_T, -theta_R)
    and keeps m_R and p, so the canonical m_T >= 0 parameters come
    straight from the first decomposition.  Returns them and whether
    the reflection was applied.
    """
    rt = decompose(a)
    summary = transient_summary(rt)
    if summary.classification is not Classification.REACTIVE_ATTRACTOR:
        raise InapplicableError(
            "maximal amplification is defined for reactive attractors only; "
            f"system classifies as {summary.classification.value}"
        )
    if rt.m_t < 0.0:
        assert rt.theta_r is not None
        return RTParams(rt.m_r, -rt.m_t, rt.p, AngleModPi(-rt.theta_r.value)), True
    return rt, False


def _reactive_arc(rt: RTParams) -> DistinctRealOrtho:
    ortho = ortho_structure(rt)
    if not isinstance(ortho, DistinctRealOrtho):
        raise InapplicableError("reactive arc is degenerate within tolerance")
    return ortho


def rho_max_bound_ortho(a: Mat2) -> float:
    """Strict upper bound -p/m_R = 1/cos(2 delta_R) from the arc width."""
    rt, _ = _reactive_rt(a)
    return -rt.p / rt.m_r


def rho_max_bound_eigen(a: Mat2) -> float:
    """Weaker strict upper bound p/p_R = 1/sin(2 delta_T); real spectra only."""
    rt, _ = _reactive_rt(a)
    eig = eigen_structure(rt)
    if not isinstance(eig, DistinctRealEigen):
        raise InapplicableError(
            "eigenvector-separation bound needs two distinct real eigenvalues"
        )
    return rt.p / eig.p_r


def rho_max_closed(a: Mat2) -> AmplificationResult:
    """Closed-form maximal amplification of any reactive attractor.

    With m_T >= 0, p_T = sqrt(p^2 - m_R^2) and
    z = (p^2 - m_T^2) p_T^2 / (m_R m_T)^2,

        ln rho_max = atanh(p_T/m_T) - (p_T/m_T) F(z)
        t_max      = -p_T / (m_R m_T) F(z)
        theta_entry = phi1 (negated back if the matrix was reflected)

    where F is _arc_factor.  z < 1 and p_T < m_T both say det A > 0, so
    the formula is defined on every reactive attractor.  For real
    distinct eigenvalues the paper's three forms are evaluated as well
    and must agree to 1e-9 relative (an internal concordance check).
    """
    rt, reflected = _reactive_rt(a)
    ortho = _reactive_arc(rt)
    m_r, m_t, p_t = rt.m_r, rt.m_t, ortho.p_t
    # z = (p_R p_T / (m_R m_T))^2 with p_R^2 = p^2 - m_T^2 taken signed,
    # so z > 0 for real eigenvalues and z < 0 for a spiral.  On a reactive
    # attractor m_R < 0 < m_T keeps z finite, and both orthovalues are
    # positive, so T > 0 across the arc and the arc integral is smooth on
    # the connected set det A > 0.  F is smooth for every z < 1, and for
    # z < 0 its defining integral equals the principal atan: the spiral
    # value is the continuation of the real one, not a branch choice.
    z = (rt.p - m_t) * (rt.p + m_t) * (p_t / (m_r * m_t)) ** 2
    f = _arc_factor(z)
    ratio = p_t / m_t
    rho = math.exp(math.atanh(ratio) - ratio * f)
    t_max = -p_t / (m_r * m_t) * f

    eig = eigen_structure(rt)
    if isinstance(eig, DistinctRealEigen):
        routes = (
            ("eigen/ortho", rho_max_from_eigen_ortho(
                eig.lambda1, eig.lambda2, ortho.mu1, ortho.mu2)),
            ("midline", rho_max_from_midlines(m_r, m_t, eig.p_r, p_t)),
            ("separation", rho_max_from_separations(ortho.delta_r, eig.delta_t)),
        )
        for name, other in routes:
            if abs(other - rho) > CONCORDANCE_RTOL * rho:
                raise NumericFailureError(
                    f"closed-form routes disagree: arc integral {rho} vs "
                    f"{name} {other}"
                )
    if not rho >= 1.0 - 1e-9:
        raise NumericFailureError(f"amplification {rho} fell below 1")
    entry = ortho.phi1.value
    return AmplificationResult(
        rho_max=rho, t_max=t_max,
        theta_entry=AngleModPi(-entry if reflected else entry),
        method=AmplificationMethod.CLOSED_ARC,
    )


# ---------------------------------------------------------------------------
# numeric oracle


def _refine_crossing(
    a: Mat2, x0: float, y0: float, h: float, cos_t: float, sin_t: float,
) -> tuple[float, float, float]:
    """Bisect the step length until the state's angle lands on target.

    target is given by its cosine and sine.  The pre-step state must sit
    before target and a full step must reach or pass it.  Returns
    (x, y, dt) at the crossing.
    """
    lo, hi = 0.0, h
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        e11, e12, e21, e22 = _rk4_increment(a.a11, a.a12, a.a21, a.a22, mid)
        xm, ym = x0 + (e11 * x0 + e12 * y0), y0 + (e21 * x0 + e22 * y0)
        off = (cos_t * ym - sin_t * xm) / math.hypot(xm, ym)  # sin(theta - target)
        if abs(off) <= EXIT_ANGLE_TOL or hi - lo <= 2e-18 * h:
            break
        lo, hi = (mid, hi) if off < 0.0 else (lo, mid)
    return xm, ym, mid


def _sweep_initial_angles(
    a: Mat2, duration: float, h: float, n_angles: int, seed: int
) -> float:
    """Vectorized safety net: max gain over many unit starting states."""
    import numpy as np
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2.0 * math.pi / n_angles) + np.arange(n_angles) * (
        2.0 * math.pi / n_angles
    )
    x, y = np.cos(th), np.sin(th)
    best = np.ones(n_angles)  # largest |x|^2 seen so far
    e11, e12, e21, e22 = _rk4_increment(a.a11, a.a12, a.a21, a.a22, h)
    for _ in range(int(math.ceil(duration / h))):
        x, y = x + (e11 * x + e12 * y), y + (e21 * x + e22 * y)
        np.maximum(best, x * x + y * y, out=best)
    return math.sqrt(float(best.max()))


def rho_max_numeric(
    a: Mat2,
    step: float | None = None,
    *,
    seed: int = 0,
    n_sweep_angles: int = 360,
) -> AmplificationResult:
    """Measure maximal amplification by time-stepping X' = AX with RK4.

    Starts a unit perturbation on the entrance orthovector and rides it
    across the reactive arc, each step one product with the RK4 step
    matrix; the exit, where sin(theta - exit angle) changes sign, is
    refined by bisecting the partial step to 1e-12 in angle.  With real
    eigenvalues one traversal is the answer; a spiral (complex pair)
    keeps circulating, so per-revolution peaks are tracked until they
    decay, and a vectorized sweep of starting angles (seeded jitter)
    guards the result from below.  A reflected matrix (m_T < 0) is
    stepped in its canonical, reflected form.

    step is the RK4 time step; the default scales 1e-4 by the system's
    fastest rate.
    """
    rt, reflected = _reactive_rt(a)
    ortho = _reactive_arc(rt)
    if ortho.mu2 <= 0.0:
        raise NumericFailureError("orthovalues not positive after canonicalization")
    if step is None:
        step = default_step(rt)
    if not (step > 0.0 and math.isfinite(step)):
        raise InvalidInputError(f"step must be a positive real, got {step}")

    canon = reflect_conjugate(a) if reflected else a
    entry = ortho.phi1.value
    is_spiral = isinstance(eigen_structure(rt), ComplexPairEigen)
    e11, e12, e21, e22 = _rk4_increment(canon.a11, canon.a12, canon.a21, canon.a22, step)

    x, y = math.cos(entry), math.sin(entry)
    lnr0 = 0.0  # log of the norm divided out at each exit
    peaks: list[tuple[float, float]] = []  # (lnr, t) at successive arc exits
    target = entry + 2.0 * ortho.delta_r
    cos_t, sin_t = math.cos(target), math.sin(target)
    # One arc suffices for real spectra; a spiral needs the next pass to
    # confirm the peaks are falling.  Angles rise across the arc (T > 0),
    # so sin(theta - target) turns from negative to non-negative at the
    # exit; the sign needs no division by the norm.
    needed = 2 if is_spiral else 1
    for n in range(MAX_STEPS):
        x_new, y_new = x + (e11 * x + e12 * y), y + (e21 * x + e22 * y)
        if cos_t * y_new - sin_t * x_new >= 0.0:
            xc, yc, dt = _refine_crossing(canon, x, y, step, cos_t, sin_t)
            peaks.append((lnr0 + math.log(math.hypot(xc, yc)), n * step + dt))
            if len(peaks) == needed:
                break
            cos_t, sin_t = -cos_t, -sin_t  # the next exit, half a turn on
            r = math.hypot(x_new, y_new)
            lnr0 += math.log(r)
            x_new, y_new = x_new / r, y_new / r
        x, y = x_new, y_new
    else:
        raise NumericFailureError(
            f"amplification oracle exceeded {MAX_STEPS} steps without "
            "completing the required arc traversals"
        )

    if is_spiral and peaks[1][0] >= peaks[0][0]:
        raise NumericFailureError(
            "per-revolution peaks are not decaying; system is not behaving "
            "as an attractor numerically"
        )
    best_lnr, t_max = peaks[0]
    rho = math.exp(best_lnr)

    if is_spiral:
        period = 2.0 * math.pi / math.sqrt(rt.tau1 * rt.tau2)
        sweep_rho = _sweep_initial_angles(
            canon,
            duration=2.0 * period,
            h=min(default_step(rt, 1e-2), period / 512.0),
            n_angles=n_sweep_angles,
            seed=seed,
        )
        rho = max(rho, sweep_rho)

    if not rho >= 1.0 - 1e-9:
        raise NumericFailureError(f"numeric amplification {rho} fell below 1")
    theta_entry = AngleModPi(-entry if reflected else entry)
    return AmplificationResult(
        rho_max=rho, t_max=t_max, theta_entry=theta_entry,
        method=AmplificationMethod.NUMERIC_SWEEP,
    )
