"""Maximal transient amplification of a reactive attractor.

A perturbation gains radius only while its angle is inside the reactive
arc, and the largest total gain is earned by entering exactly at the
arc's boundary orthovector and riding it to the far side.  Integrating
d(ln r)/d(theta) = R/T and dt/d(theta) = 1/T across the arc gives the
gain rho_max, the time t_max it takes and the entry angle in one
elementary real formula that covers distinct-real, repeated and
complex (spiral) spectra alike, accurate up to det A = 0.  The
definition, rho_max = sup_t |e^{At}|_2, certifies each result with one
matrix exponential at t_max.  The paper's three closed forms (from
eigen/orthovalues; midlines and separations; the two arc radii) stay
available on their own ingredients, two strict upper bounds come from
each arc radius alone, and an independent oracle, fixed-step
RK4 on X' = AX itself, reproduces all three outputs in one crossing of
the arc, whose exit it finds by binary descent over doubled powers of
the step matrix.  The crossing is the same for every spectrum, so the
oracle's accuracy is that of the step it is given.

Orthovalue signs are canonicalized first: conjugating by diag(1, -1)
preserves every solution norm while flipping the sense of rotation, so
m_T >= 0 may be assumed and both orthovalues are then positive.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import (AngleModPi, Mat2, RTParams, _norm_mod_pi, _real, _record, decompose,
                   matrix_exponential, reflect_conjugate)
from .errors import InapplicableError, NumericFailureError
from .spectra import DistinctRealEigen, _eigen_case, _reactive_arc, _require_reactive_attractor

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

EXIT_ANGLE_TOL = 1e-12
MAX_STEPS = 20_000_000


class AmplificationMethod(Enum):
    CLOSED_ARC = "closed_arc"
    NUMERIC_SWEEP = "numeric_sweep"


@_record
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
    lambda1, lambda2 = _real("lambda1", lambda1), _real("lambda2", lambda2)
    mu1, mu2 = _real("mu1", mu1), _real("mu2", mu2)
    base = (lambda1 * mu2 + lambda2 * mu1) / (lambda1 * mu1 + lambda2 * mu2)
    expo = (lambda1 + lambda2) / (lambda1 - lambda2)
    return math.sqrt(base**expo * (mu1 / mu2))


def rho_max_from_midlines(m_r: float, m_t: float, p_r: float, p_t: float) -> float:
    """Amplification from the midlines and the two separation radii."""
    m_r, m_t = _real("m_r", m_r), _real("m_t", m_t)
    p_r, p_t = _real("p_r", p_r), _real("p_t", p_t)
    base = (m_r * m_t - p_r * p_t) / (m_r * m_t + p_r * p_t)
    return math.sqrt(base ** (m_r / p_r) * (m_t + p_t) / (m_t - p_t))


def rho_max_from_separations(delta_r: float, delta_t: float) -> float:
    """Amplification from the reactive and eigenline arc radii alone."""
    delta_r, delta_t = _real("delta_r", delta_r), _real("delta_t", delta_t)
    c2r, s2r = math.cos(2 * delta_r), math.sin(2 * delta_r)
    c2t, s2t = math.cos(2 * delta_t), math.sin(2 * delta_t)
    base = math.cos(2 * delta_r + 2 * delta_t) / math.cos(2 * delta_r - 2 * delta_t)
    expo = -c2r / s2t
    return math.sqrt(base**expo * (c2t - s2r) / (c2t + s2r))


# ---------------------------------------------------------------------------
# applicability plumbing


def _reactive_rt(a: Mat2) -> tuple[RTParams, bool]:
    """Decompose once, require a reactive attractor, and reflect if needed.

    Conjugating by diag(1, -1) maps (m_T, theta_R) to (-m_T, -theta_R)
    and keeps m_R and p, so the canonical m_T >= 0 parameters come
    straight from the first decomposition.  Returns them and whether
    the reflection was applied.
    """
    rt = _require_reactive_attractor(decompose(a), "maximal amplification")
    if rt.m_t < 0.0:
        assert rt.theta_r is not None
        return RTParams(rt.m_r, -rt.m_t, rt.p, AngleModPi(-rt.theta_r.value)), True
    return rt, False


def rho_max_bound_ortho(a: Mat2) -> float:
    """Strict upper bound -p/m_R = 1/cos(2 delta_R) from the arc width."""
    rt, _ = _reactive_rt(a)
    return -rt.p / rt.m_r


def rho_max_bound_eigen(a: Mat2) -> float:
    """Weaker strict upper bound p/p_R = 1/sin(2 delta_T); real spectra only."""
    rt, _ = _reactive_rt(a)
    case, p_r, _ = _eigen_case(rt.m_r, rt.m_t, rt.p)
    if case is not DistinctRealEigen:
        raise InapplicableError(
            "eigenvector-separation bound needs two distinct real eigenvalues"
        )
    return rt.p / p_r


def rho_max_closed(a: Mat2) -> AmplificationResult:
    """Closed-form maximal amplification of any reactive attractor.

    With m_T >= 0, p_T = sqrt(p^2 - m_R^2), q = p_T/m_T,
    g = -p_T/(m_R m_T) and z = (p^2 - m_T^2) g^2,

        ln rho_max  = atanh(q) - q F(z),   t_max = g F(z),
        theta_entry = phi1 (negated back if the matrix was reflected),

    where F(z) = integral_0^1 ds / (1 - z s^2) is atanh(w)/w (w = sqrt z,
    real eigenvalues), atan(v)/v (v = sqrt -z, a spiral) or
    1 + z/3 + z^2/5 (|z| <= 1e-8, near the repeated eigenvalue).  q < 1
    and z < 1 both say det A > 0.  As det A -> 0, q and w tend to 1, so
    atanh x is taken as 1/2 log1p(2x / (1 - x)), with
    1 - q = det / (m_T (m_T + p_T)), 1 - w = p^2 det / (c (c + p_R p_T)),
    c = -m_R m_T, and det exact from the entries: nothing cancels.  It is
    evaluated in p's binade (entries and rates times the power of two
    that brings p into [1/2, 1)), so no product of rates overflows and
    A and 2^k A give the same bits.  The definition certifies the result:
    |e^{A t_max}|_2 must equal rho_max = sup_t |e^{At}|_2 to 1e-9
    relative.  That failing, t_max leaving the float range, or det A <= 0
    (a matrix classified a reactive attractor within the eigenvalue-vs-0
    tie, whose t_max is infinite) raises NumericFailureError.
    """
    rt, reflected = _reactive_rt(a)
    e = math.frexp(rt.p)[1]
    m_r, m_t, p = math.ldexp(rt.m_r, -e), math.ldexp(rt.m_t, -e), math.ldexp(rt.p, -e)
    a = Mat2(*(math.ldexp(x, -e) for x in (a.a11, a.a12, a.a21, a.a22)))
    p_t, delta_r = _reactive_arc(m_r, m_t, p)
    # det A of the float entries, correctly rounded by one integer division
    # (a reflection keeps det, so the unreflected entries serve).
    (n1, d1), (n2, d2), (n3, d3), (n4, d4) = (
        x.as_integer_ratio() for x in (a.a11, a.a12, a.a21, a.a22))
    det = (n1 * n4 * d2 * d3 - n2 * n3 * d1 * d4) / (d1 * d2 * d3 * d4)
    if not det > 0.0:  # classified reactive within the eigenvalue-vs-0 tie
        raise NumericFailureError("det A <= 0, so t_max is infinite")
    # s = p_R^2 taken signed: z > 0 for real eigenvalues, z < 0 for a spiral.
    # T > 0 across the arc (m_R < 0 < m_T), so F is smooth on the connected
    # set det A > 0, and for z < 0 it is the principal atan: the spiral
    # value continues the real one.
    s = (p - m_t) * (p + m_t)
    g = -p_t / (m_r * m_t)
    z = s * (g * g)
    if z > 1e-8:
        pp = math.sqrt(s) * p_t  # p_R p_T, and w = pp / c
        c = -m_r * m_t
        f = 0.5 * math.log1p(2.0 * pp * (c + pp) / (p * p * det)) * c / pp
    elif z < -1e-8:
        v = math.sqrt(-z)
        f = math.atan(v) / v
    else:
        f = 1.0 + z / 3.0 + z * z / 5.0
    rho = math.exp(0.5 * math.log1p(2.0 * p_t * (m_t + p_t) / det) - p_t / m_t * f)
    try:
        t_max = math.ldexp(g * f, -e)
    except OverflowError:
        raise NumericFailureError(f"t_max leaves the float range (p = {p!r} * 2^{e})") from None

    x = matrix_exponential(a, g * f)
    norm = 0.5 * (math.hypot(x.a11 + x.a22, x.a21 - x.a12)
                  + math.hypot(x.a11 - x.a22, x.a12 + x.a21))
    if not abs(norm - rho) <= 1e-9 * rho:
        raise NumericFailureError(
            f"|e^(A t_max)|_2 = {norm} does not certify rho_max = {rho}")
    if not rho >= 1.0 - 1e-9:
        raise NumericFailureError(f"amplification {rho} fell below 1")
    entry = _norm_mod_pi(rt.theta_r.value + -delta_r)
    return AmplificationResult(
        rho_max=rho, t_max=t_max,
        theta_entry=AngleModPi(-entry if reflected else entry),
        method=AmplificationMethod.CLOSED_ARC,
    )


# ---------------------------------------------------------------------------
# numeric oracle


def _exit_root(
    a: Mat2, x0: float, y0: float, h: float, cos_t: float, sin_t: float,
) -> tuple[float, float]:
    """Norm and length s of the partial RK4 step from (x0, y0) onto target.

    target is given by cos_t and sin_t; (x0, y0) lies before it and a full
    step h reaches or passes it.  As P(sA) x0 = sum_{k<=4} s^k A^k x0 / k!,
    g(s) = |x| sin(theta - target) is a quartic g[0] + ... + g[4] s^4 with
    g(0) < 0 <= g(h).  Newton's method from the secant point solves it in
    the bracket that the signs of g narrow, halving the bracket where a
    step would leave it (g can peak inside a coarse step).  The root's
    angle must lie within EXIT_ANGLE_TOL of target.
    """
    from .dynamics import _rk4_increment  # the integrators load on first use
    g = [cos_t * y0 - sin_t * x0]
    u, v = x0, y0
    for k in (1, 2, 3, 4):  # (u, v) = A^k x0 / k!
        u, v = a.apply(u / k, v / k)
        g.append(cos_t * v - sin_t * u)
    gh = g[0] + h * (g[1] + h * (g[2] + h * (g[3] + h * g[4])))
    lo, hi = 0.0, h
    s = min(h, h * g[0] / (g[0] - gh))
    for _ in range(100):
        value = g[0] + s * (g[1] + s * (g[2] + s * (g[3] + s * g[4])))
        slope = g[1] + s * (2.0 * g[2] + s * (3.0 * g[3] + s * 4.0 * g[4]))
        lo, hi = (s, hi) if value < 0.0 else (lo, s)
        s, prev = s - value / slope, s
        if not lo <= s <= hi:
            s = 0.5 * (lo + hi)
        if s == prev:
            break
    e11, e12, e21, e22 = _rk4_increment(a.a11, a.a12, a.a21, a.a22, s)
    x, y = x0 + (e11 * x0 + e12 * y0), y0 + (e21 * x0 + e22 * y0)
    r = math.hypot(x, y)
    off = (cos_t * y - sin_t * x) / r  # sin(theta - target)
    if not abs(off) <= EXIT_ANGLE_TOL:
        raise NumericFailureError(f"arc exit missed by {off} in sin(angle)")
    return r, s


def rho_max_numeric(a: Mat2, step: float | None = None) -> AmplificationResult:
    """Measure maximal amplification by time-stepping X' = AX with RK4.

    Starts a unit perturbation on the entrance orthovector and rides it
    once across the reactive arc with the RK4 step matrix P.  The exit
    lies on the first step after which g = |x| sin(theta - exit angle) is
    not negative, and _exit_root solves for it.  g changes sign at most
    once in a window of 2^(K+1) steps, which turns a state by at most
    1 rad: T > 0 on the arc, a real spectrum's RK4 iterates never turn
    back (P's eigenvalues R4(h lambda) are positive, as the quartic Taylor
    polynomial of e^z has no real root), and a spiral's P turns all states
    alike.  So a binary descent, keeping x + (P^(2^k) - I) x for k = K..0
    while g < 0, finds the window's last state before the exit; one more
    step passes the exit or ends the window.  MAX_STEPS bounds the steps,
    and a step that Jury's test finds unstable (an eigenvalue of P on or
    outside the unit circle) raises.  Real, repeated and complex spectra
    take this one path, and nothing else revises its result: the paper
    shows that no other start gains more.  A reflected matrix (m_T < 0)
    is stepped in its canonical form.

    step is the RK4 time step; the default scales 1e-4 by the system's
    fastest rate (see default_step).
    """
    from .dynamics import _rk4_increment, default_step
    rt, reflected = _reactive_rt(a)
    p_t, delta_r = _reactive_arc(rt.m_r, rt.m_t, rt.p)
    if rt.m_t - p_t <= 0.0:
        raise NumericFailureError("orthovalues not positive after canonicalization")
    step = default_step(rt) if step is None else _real("step", step, positive=True)

    canon = reflect_conjugate(a) if reflected else a
    e11, e12, e21, e22 = _rk4_increment(canon.a11, canon.a12, canon.a21, canon.a22, step)
    # Jury's test on P = I + E (tr P = 2 + tr E, det P = 1 + tr E + det E),
    # written in E so that no 1 - tiny cancels.  A stable P also keeps the
    # states stepped below finite.
    tr_e, det_e = e11 + e22, e11 * e22 - e12 * e21
    if not (det_e > 0.0 and tr_e + det_e < 0.0 and 4.0 + 2.0 * tr_e + det_e > 0.0):
        raise NumericFailureError(f"RK4 step {step} is unstable for this system")
    # D_k = P^(2^k) - I by doubling, (I + D)^2 - I = 2 D + D^2; as |T| <= m_T + p,
    # K is the largest with 2^(K+1) h (m_T + p) <= 1 and 2^(K+1) <= MAX_STEPS
    ds, d = [], (e11, e12, e21, e22)
    while (2 << len(ds)) <= MAX_STEPS and (2 << len(ds)) * step * rt.tau1 <= 1.0:
        ds.append((1 << len(ds), d))
        d11, d12, d21, d22 = d
        d = (2.0 * d11 + (d11 * d11 + d12 * d21), 2.0 * d12 + (d11 * d12 + d12 * d22),
             2.0 * d21 + (d21 * d11 + d22 * d21), 2.0 * d22 + (d21 * d12 + d22 * d22))

    entry = _norm_mod_pi(rt.theta_r.value + -delta_r)
    x, y = math.cos(entry), math.sin(entry)
    target = entry + 2.0 * delta_r
    cos_t, sin_t = math.cos(target), math.sin(target)
    n = 0  # the steps taken to (x, y), the last state known before the exit
    while n < MAX_STEPS:
        for m, (d11, d12, d21, d22) in reversed(ds):
            u, v = x + (d11 * x + d12 * y), y + (d21 * x + d22 * y)
            if cos_t * v - sin_t * u < 0.0:
                x, y, n = u, v, n + m
        u, v = x + (e11 * x + e12 * y), y + (e21 * x + e22 * y)
        if not cos_t * v - sin_t * u < 0.0:
            break
        x, y, n = u, v, n + 1
    if n >= MAX_STEPS:
        raise NumericFailureError(f"amplification oracle exceeded {MAX_STEPS} steps "
                                  "without crossing the reactive arc")
    rho, dt = _exit_root(canon, x, y, step, cos_t, sin_t)
    t_max = n * step + dt

    if not rho >= 1.0 - 1e-9:
        raise NumericFailureError(f"numeric amplification {rho} fell below 1")
    theta_entry = AngleModPi(-entry if reflected else entry)
    return AmplificationResult(
        rho_max=rho, t_max=t_max, theta_entry=theta_entry,
        method=AmplificationMethod.NUMERIC_SWEEP,
    )
