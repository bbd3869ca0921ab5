"""Trajectory integration and the rotating nonautonomous construction.

Fixed-step classical RK4 drives all integrators (smooth 2x2 linear
fields need nothing adaptive).  On a linear field one RK4 step is the
fixed matrix P(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so the
Cartesian integrators precompute it and advance by one 2x2 product per
step; a closed-form matrix exponential serves as their independent
oracle.  The polar route integrates dr/dt = r R(theta),
dtheta/dt = T(theta) stage by stage, since its field is nonlinear.

The nonautonomous part freezes a reactive attractor A and spins it,
B_k(t) = M_kt^-1 A M_kt.  In the frame co-rotating with the spin the
system is autonomous with matrix A + k J, whose T curve is A's shifted
vertically by k; the origin turns repelling exactly when the spin rate
satisfies -k in (mu2, mu1), the band of angular velocities found on
the reactive arc.  Its RK4 step is constant in that frame too: with
B_k(t0 + s) = R(-k t0) B_k(s) R(k t0), the step from t0 is
R(-k t0) S R(k t0), where S is the step from 0, so z = R(kt) x advances
by the fixed matrix R(kh) S.

numpy is imported only where arrays are built: Trajectory and the k sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    Mat2,
    QUARTER_TURN,
    RTParams,
    decompose,
    rotate_conjugate,
)
from .errors import InapplicableError, InvalidInputError, NumericFailureError
from .spectra import Classification, DistinctRealOrtho, ortho_structure, transient_summary

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Trajectory",
    "NonautConfig",
    "SweepPoint",
    "SweepResult",
    "default_step",
    "integrate_linear",
    "integrate_polar",
    "integrate_nonaut",
    "matrix_exponential",
    "nonaut_matrix",
    "corotating_matrix",
    "repulsion_window",
    "log_norm_slope",
    "sweep_rotation_rates",
    "GROWTH_SLOPE_THRESHOLD",
]

# log-norm slope above which a trajectory counts as growing; robust to
# the bounded oscillation a rotating frame leaves in the norm.
GROWTH_SLOPE_THRESHOLD = 1e-3


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled solution states (a final partial step may occur).

    theta is reconstructed as accumulated phase, never reduced mod 2pi,
    so winding counts and mean angular speeds can be read off directly.
    """

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    step: float
    method: str

    @property
    def r(self) -> np.ndarray:
        import numpy as np
        return np.hypot(self.x1, self.x2)

    @property
    def theta(self) -> np.ndarray:
        import numpy as np
        return np.unwrap(np.arctan2(self.x2, self.x1))


def _trajectory(ts: np.ndarray, xs, ys, step: float, method: str) -> Trajectory:
    import numpy as np
    return Trajectory(t=ts, x1=np.asarray(xs), x2=np.asarray(ys), step=step, method=method)


def _check_grid(step: float, t_end: float) -> None:
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidInputError(f"step must be a positive real, got {step}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise InvalidInputError(f"t_end must be a positive real, got {t_end}")


def _grid(step: float, t_end: float) -> tuple[int, float]:
    """Number of full steps and the partial final step (0 if none)."""
    n_full = int(math.floor(t_end / step + 1e-9))
    rem = t_end - n_full * step
    return n_full, rem if rem > 1e-12 * t_end else 0.0


def _sample_times(n_full: int, step: float, rem: float, t_end: float) -> np.ndarray:
    import numpy as np
    ts = np.arange(n_full + 1) * step
    return np.append(ts, t_end) if rem else ts


def _check_finite(x: float, y: float, t_end: float) -> None:
    """Raise if an integrator's final state overflowed.

    The RK4 updates never turn inf or nan back into a finite number, so
    checking the last state once covers every step at no per-step cost.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NumericFailureError(f"trajectory overflowed before t = {t_end!r}")


def default_step(rt: RTParams, base: float = 1e-4) -> float:
    """Step scaled to the system's fastest rate so accuracy is uniform."""
    speed = max(abs(rt.rho1), abs(rt.rho2), abs(rt.tau1), abs(rt.tau2))
    return base / max(speed, 1.0)


def _rk4_increment(a11, a12, a21, a22, h):
    """Entries (e11, e12, e21, e22) of P(hA) - I for the RK4 step of X' = AX.

    One classical RK4 step of a linear field is multiplication by
    P(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so it is
    x <- x + E x with E = hA (I + hA/2 (I + hA/3 (I + hA/4))).  Callers
    add the identity in that update: folded into P, the rounding of each
    diagonal entry would be repeated by every step, an error growing like
    the step count; kept in E it scales with the O(h) increment instead.
    The entries and h may be floats or numpy arrays, giving one matrix
    per element.
    """
    b11, b12, b21, b22 = h * a11, h * a12, h * a21, h * a22
    e11, e12, e21, e22 = b11, b12, b21, b22
    for j in (4.0, 3.0, 2.0):
        e11, e12, e21, e22 = (
            b11 + (b11 * e11 + b12 * e21) / j,
            b12 + (b11 * e12 + b12 * e22) / j,
            b21 + (b21 * e11 + b22 * e21) / j,
            b22 + (b21 * e12 + b22 * e22) / j,
        )
    return e11, e12, e21, e22


def _step_linear(increment, x0: tuple[float, float], step: float, t_end: float):
    """Times and states of x <- x + E x on the integrator grid.

    increment(h) returns the entries of E for a step of length h; it is
    called once for the full steps and once for a partial final step.
    """
    _check_grid(step, t_end)
    x, y = float(x0[0]), float(x0[1])
    if x == 0.0 and y == 0.0:
        raise InvalidInputError("initial state must be nonzero")
    n_full, rem = _grid(step, t_end)
    xs = [x]
    ys = [y]
    for h, n in ((step, n_full), (rem, 1 if rem else 0)):
        if n:
            e11, e12, e21, e22 = increment(h)
            for _ in range(n):
                x, y = x + (e11 * x + e12 * y), y + (e21 * x + e22 * y)
                xs.append(x)
                ys.append(y)
    _check_finite(x, y, t_end)
    return _sample_times(n_full, step, rem, t_end), xs, ys


def integrate_linear(
    a: Mat2, x0: tuple[float, float], step: float, t_end: float
) -> Trajectory:
    """RK4 trajectory of X' = AX from x0, one step matrix product per step."""
    ts, xs, ys = _step_linear(
        lambda h: _rk4_increment(a.a11, a.a12, a.a21, a.a22, h), x0, step, t_end
    )
    return _trajectory(ts, xs, ys, step, "rk4")


def matrix_exponential(a: Mat2, t: float) -> Mat2:
    """Closed-form e^{At} by spectral case.

    With m the mean eigenvalue and d = m^2 - det(A) the squared
    half-separation, e^{At} = e^{mt} (c I + s (A - m I)) where (c, s)
    are cosh/sinh-type pair for d > 0, cos/sin-type for d < 0, and the
    shared series limit near the repeated-eigenvalue boundary.
    """
    if not math.isfinite(t):
        raise InvalidInputError(f"time must be finite, got {t!r}")
    m = 0.5 * a.trace()
    d = m * m - a.det()
    x2 = d * t * t
    try:
        if x2 > 1e-8:
            w = math.sqrt(d)
            c = math.cosh(w * t)
            s = math.sinh(w * t) / w
        elif x2 < -1e-8:
            w = math.sqrt(-d)
            c = math.cos(w * t)
            s = math.sin(w * t) / w
        else:
            c = 1.0 + x2 / 2.0 + x2 * x2 / 24.0
            s = t * (1.0 + x2 / 6.0 + x2 * x2 / 120.0)
        e = math.exp(m * t)
    except OverflowError as exc:
        raise NumericFailureError(f"e^(At) overflows at t = {t!r}") from exc
    entries = (
        e * (c + s * (a.a11 - m)),
        e * s * a.a12,
        e * s * a.a21,
        e * (c + s * (a.a22 - m)),
    )
    if not all(map(math.isfinite, entries)):
        raise NumericFailureError(f"e^(At) overflows at t = {t!r}")
    return Mat2(*entries)


def integrate_polar(
    rt: RTParams, r0: float, theta0: float, step: float, t_end: float
) -> Trajectory:
    """RK4 on the decoupled polar system dr = r R(theta), dtheta = T(theta).

    Samples are returned in Cartesian form (r cos theta, r sin theta);
    the initial angle is taken as given, unnormalized.
    """
    _check_grid(step, t_end)
    if not (r0 > 0.0 and math.isfinite(r0)):
        raise InvalidInputError(f"r0 must be a positive real, got {r0}")
    if not math.isfinite(theta0):
        raise InvalidInputError(f"theta0 must be finite, got {theta0!r}")
    m_r, m_t, p = rt.m_r, rt.m_t, rt.p
    phase = rt.theta_r.value if rt.theta_r is not None else 0.0
    cos, sin = math.cos, math.sin

    def rk4(r: float, th: float, h: float) -> tuple[float, float]:
        u = 2.0 * (th - phase)
        k1r = r * (m_r + p * cos(u))
        k1t = m_t - p * sin(u)
        u = 2.0 * (th + 0.5 * h * k1t - phase)
        k2r = (r + 0.5 * h * k1r) * (m_r + p * cos(u))
        k2t = m_t - p * sin(u)
        u = 2.0 * (th + 0.5 * h * k2t - phase)
        k3r = (r + 0.5 * h * k2r) * (m_r + p * cos(u))
        k3t = m_t - p * sin(u)
        u = 2.0 * (th + h * k3t - phase)
        k4r = (r + h * k3r) * (m_r + p * cos(u))
        k4t = m_t - p * sin(u)
        return (
            r + h / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
            th + h / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t),
        )

    r, th = float(r0), float(theta0)
    xs = [r * cos(th)]
    ys = [r * sin(th)]
    n_full, rem = _grid(step, t_end)
    for _ in range(n_full):
        r, th = rk4(r, th, step)
        xs.append(r * cos(th))
        ys.append(r * sin(th))
    if rem:
        r, th = rk4(r, th, rem)
        xs.append(r * cos(th))
        ys.append(r * sin(th))
    _check_finite(r, th, t_end)
    return _trajectory(_sample_times(n_full, step, rem, t_end), xs, ys, step, "rk4_polar")


# ---------------------------------------------------------------------------
# rotating nonautonomous systems


@dataclass(frozen=True)
class NonautConfig:
    """A frozen reactive attractor spun at constant angular rate k.

    The time-t coefficient matrix is B_k(t) = M_kt^-1 base M_kt; every
    frozen instant shares the base system's reactivity, spectra and
    reactive-arc geometry.
    """

    base: Mat2
    k: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.k):
            raise InvalidInputError(f"rotation rate k must be finite, got {self.k!r}")
        object.__setattr__(self, "k", float(self.k))
        summary = transient_summary(decompose(self.base))
        if summary.classification is not Classification.REACTIVE_ATTRACTOR:
            raise InapplicableError(
                "nonautonomous rotation analysis needs a reactive attractor; "
                f"base system classifies as {summary.classification.value}"
            )


def nonaut_matrix(cfg: NonautConfig, t: float) -> Mat2:
    """Frozen coefficient matrix B_k(t)."""
    return rotate_conjugate(cfg.base, cfg.k * t)


def corotating_matrix(cfg: NonautConfig) -> Mat2:
    """Autonomous matrix A + k J seen from the co-rotating frame.

    Its radial curve equals the base system's; its tangential curve is
    the base system's lifted by k.
    """
    return cfg.base + QUARTER_TURN.scaled(cfg.k)


def repulsion_window(a: Mat2) -> tuple[float, float]:
    """Open interval of spin rates k making the rotated system repelling.

    Equals (-mu1, -mu2): the spin must cancel an angular velocity that
    T attains somewhere on the reactive arc, trapping solutions there.
    Endpoints are marginal (zero co-rotating eigenvalue), not repelling.
    """
    rt = decompose(a)
    summary = transient_summary(rt)
    if summary.classification is not Classification.REACTIVE_ATTRACTOR:
        raise InapplicableError(
            f"repulsion window needs a reactive attractor, got {summary.classification.value}"
        )
    ortho = ortho_structure(rt)
    assert isinstance(ortho, DistinctRealOrtho)
    return (-ortho.mu1, -ortho.mu2)


def _corotating_increment(a: Mat2, k, h: float, xp):
    """Entries of C - I, where C = R(kh) S is the RK4 step of X' = B_k(t) X
    seen in z = R(kt) X.

    S is the RK4 step of B_k from t = 0, found by pushing e1 and e2
    through the four stages; C - I = R(kh) (S - I) + (R(kh) - I) keeps
    the increment apart from the identity, as in _rk4_increment.  k may
    be a float (xp = math) or a numpy array of rates (xp = numpy),
    giving one matrix per rate.
    """
    a11, a12, a21, a22 = a.a11, a.a12, a.a21, a.a22

    def rhs(t, x, y):
        c = xp.cos(k * t)
        s = xp.sin(k * t)
        u = c * x - s * y
        v = s * x + c * y
        fu = a11 * u + a12 * v
        fv = a21 * u + a22 * v
        return (c * fu + s * fv, -s * fu + c * fv)

    def rk4_increment(x, y):
        k1x, k1y = rhs(0.0, x, y)
        k2x, k2y = rhs(0.5 * h, x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = rhs(0.5 * h, x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        k4x, k4y = rhs(h, x + h * k3x, y + h * k3y)
        return (
            h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
        )

    d11, d21 = rk4_increment(1.0, 0.0)
    d12, d22 = rk4_increment(0.0, 1.0)
    c, s = xp.cos(k * h), xp.sin(k * h)
    c1 = -2.0 * xp.sin(0.5 * k * h) ** 2  # cos(kh) - 1 without cancellation
    return (
        c * d11 - s * d21 + c1,
        c * d12 - s * d22 - s,
        s * d11 + c * d21 + s,
        s * d12 + c * d22 + c1,
    )


def integrate_nonaut(
    cfg: NonautConfig, x0: tuple[float, float], step: float, t_end: float
) -> Trajectory:
    """RK4 on X' = B_k(t) X with the time-dependent rotating matrix.

    Steps run in the co-rotating frame z = R(kt) X, where every RK4 step
    is the same matrix; each sample is turned back by R(-k t_n), with
    the angle taken from t_n itself so rotation error never accumulates.
    """
    k = cfg.k
    ts, zs, ws = _step_linear(
        lambda h: _corotating_increment(cfg.base, k, h, math), x0, step, t_end
    )
    import numpy as np
    z, w = np.array(zs), np.array(ws)
    c, s = np.cos(k * ts), np.sin(k * ts)
    return _trajectory(ts, c * z + s * w, c * w - s * z, step, "rk4_nonaut")


# ---------------------------------------------------------------------------
# empirical growth detection and the k sweep


def log_norm_slope(t: np.ndarray, log_norms: np.ndarray) -> float:
    """Least-squares slope of log-norm over the trailing half of the data.

    The trailing window discards the initial transient; bounded
    oscillation from the rotating frame averages out in the fit.
    """
    n = len(t)
    lo = n // 2
    tt = t[lo:]
    yy = log_norms[lo:]
    tm = tt - tt.mean()
    denom = float(tm @ tm)
    if denom == 0.0:
        return 0.0
    return float(tm @ (yy - yy.mean())) / denom


@dataclass(frozen=True)
class SweepPoint:
    k: float
    log_slope: float
    growing: bool


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    analytic_window: tuple[float, float]
    empirical_window: tuple[float, float] | None
    max_abs_boundary_error: float | None


def sweep_rotation_rates(
    a: Mat2,
    k_min: float,
    k_max: float,
    n: int,
    step: float = 5e-3,
    t_end: float = 50.0,
    x0: tuple[float, float] = (1.0, 0.0),
    n_norm_samples: int = 512,
) -> SweepResult:
    """Classify growth/decay of the spun system over a grid of rates k.

    All rates integrate in lockstep as one vectorized RK4 run in the
    co-rotating frame z = R(kt) X, where each rate's step is one fixed
    matrix (see _corotating_increment) and |z| = |X| because a rotation keeps
    the norm; log-norm samples are kept at ~n_norm_samples times for the
    slope fit.  The empirical window boundary is the midpoint between the
    last decaying and first growing grid rates on each side (grid
    endpoints when the growing block touches the edge of the grid).
    """
    _check_grid(step, t_end)
    if n < 2:
        raise InvalidInputError(f"need at least 2 sweep points, got {n}")
    if not (k_min < k_max):
        raise InvalidInputError(f"need k_min < k_max, got [{k_min}, {k_max}]")
    window = repulsion_window(a)  # also validates the classification

    import numpy as np
    ks = np.linspace(k_min, k_max, n)
    x = np.full(n, float(x0[0]))
    y = np.full(n, float(x0[1]))
    if x[0] == 0.0 and y[0] == 0.0:
        raise InvalidInputError("initial state must be nonzero")

    n_steps = int(math.ceil(t_end / step))
    h = t_end / n_steps
    e11, e12, e21, e22 = _corotating_increment(a, ks, h, np)
    keep_every = max(1, n_steps // n_norm_samples)
    # Renormalizing the state each step is exact for a linear system and
    # keeps very fast growth/decay away from overflow; the true log-norm
    # is the running accumulator.
    acc = np.log(np.hypot(x, y))
    ts = [0.0]
    logs = [acc.copy()]
    for i in range(n_steps):
        x, y = x + (e11 * x + e12 * y), y + (e21 * x + e22 * y)
        m = np.hypot(x, y)
        acc = acc + np.log(m)
        x /= m
        y /= m
        if (i + 1) % keep_every == 0 or i == n_steps - 1:
            ts.append((i + 1) * h)
            logs.append(acc.copy())

    t_arr = np.array(ts)
    log_arr = np.array(logs)  # shape (n_times, n)
    points = []
    for j in range(n):
        slope = log_norm_slope(t_arr, log_arr[:, j])
        points.append(
            SweepPoint(k=float(ks[j]), log_slope=slope, growing=slope > GROWTH_SLOPE_THRESHOLD)
        )

    growing_idx = [j for j, pt in enumerate(points) if pt.growing]
    if not growing_idx:
        empirical = None
        max_err = None
    else:
        first, last = growing_idx[0], growing_idx[-1]
        lo = ks[first] if first == 0 else 0.5 * (ks[first - 1] + ks[first])
        hi = ks[last] if last == n - 1 else 0.5 * (ks[last] + ks[last + 1])
        empirical = (float(lo), float(hi))
        max_err = max(abs(empirical[0] - window[0]), abs(empirical[1] - window[1]))

    return SweepResult(
        points=tuple(points),
        analytic_window=window,
        empirical_window=empirical,
        max_abs_boundary_error=max_err,
    )
