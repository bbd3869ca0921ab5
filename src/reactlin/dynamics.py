"""Trajectory integration and the rotating nonautonomous construction.

Fixed-step classical RK4 drives all integrators (smooth 2x2 linear
fields need nothing adaptive).  On a linear field one RK4 step is the
fixed matrix P(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so the
Cartesian integrators precompute its first powers and advance a block
of states per array expression, x_{b+j} = x_b + (P^j - I) x_b, up to
256 at a time; a closed-form matrix exponential serves as their
independent oracle.  The polar route integrates dr/dt = r R(theta),
dtheta/dt = T(theta): only the angle flow is sequential, so a scalar
loop steps theta alone, and since each RK4 step multiplies r by a factor
that depends only on the step's start angle and length, the radius is
one cumulative product over all steps.

The nonautonomous part freezes a reactive attractor A and spins it,
B_k(t) = M_kt^-1 A M_kt.  In the frame co-rotating with the spin the
system is autonomous with matrix A + k J, whose T curve is A's shifted
vertically by k; the origin turns repelling exactly when the spin rate
satisfies -k in (mu2, mu1), the band of angular velocities found on
the reactive arc.  Its RK4 step is constant in that frame too: with
B_k(t0 + s) = R(-k t0) B_k(s) R(k t0), the step from t0 is
R(-k t0) S R(k t0), where S is the step from 0, so z = R(kt) x advances
by the fixed matrix R(kh) S.  integrate_nonaut keeps that RK4 of B_k,
so that comparing it with integrate_linear of A + k J checks the frame
change; the k-sweep needs only norms, |X(t)| = |e^{(A + kJ) t} x0|, and
takes them from the matrix exponential instead of time-stepping.

numpy is imported only inside the functions that build or read arrays,
never when the module is imported.
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


def _stage_push(rhs, h):
    """Entries (e11, e12, e21, e22) of S - I, where S is the classical RK4
    step of (x, y)' = rhs(t, x, y) from t = 0 with length h.

    S is linear in the state, so pushing e1 and e2 through the four
    stages gives its columns; the increment h/6 (k1 + 2 k2 + 2 k3 + k4)
    is kept apart from the identity.  rhs, h and the result may hold
    floats or numpy arrays (one matrix per element).
    """

    def push(x, y):
        k1x, k1y = rhs(0.0, x, y)
        k2x, k2y = rhs(0.5 * h, x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = rhs(0.5 * h, x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        k4x, k4y = rhs(h, x + h * k3x, y + h * k3y)
        return (
            h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
        )

    e11, e21 = push(1.0, 0.0)
    e12, e22 = push(0.0, 1.0)
    return e11, e12, e21, e22


def _rk4_increment(a11, a12, a21, a22, h):
    """Entries (e11, e12, e21, e22) of P(hA) - I for the RK4 step of X' = AX.

    One classical RK4 step of a linear field is multiplication by
    P(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so it is
    x <- x + E x with E = P(hA) - I, found by pushing e1 and e2 through
    the four stages.  Callers add the identity in that update: folded
    into P, the rounding of each diagonal entry would be repeated by
    every step, an error growing like the step count; kept in E it
    scales with the O(h) increment instead.  The stages are evaluated
    in the same order as the co-rotating ones of _corotating_increment,
    so that at spin rate 0 both give the same bits, which block powers
    would otherwise magnify.  The entries and h may be floats or numpy
    arrays, giving one matrix per element.
    """
    return _stage_push(lambda _t, u, v: (a11 * u + a12 * v, a21 * u + a22 * v), h)


# Most steps advanced per numpy expression by the step-matrix loops;
# longer blocks would save little Python time per step.
_BLOCK = 256
# Bound on the rounding error of a blocked state, in units of eps times
# the state's own norm (see _powers).
_MAX_ERROR_GAIN = 16.0


def _powers(e11, e12, e21, e22):
    """Entries of P^j - I for j = 1..m, given those of E = P - I.

    Returns d of shape (2, m, 2) with d[:, j - 1, :] = P^j - I, so a state
    x gives the next m states as x + d @ x, one column per step.  The
    powers come by doubling with (I + D_a)(I + D_b) - I =
    D_a + D_b + D_a D_b, which keeps the identity out of every entry, as
    in _rk4_increment.

    m is _BLOCK, or less where a longer block would lose accuracy:
    x + D x rounds with an error of about eps (1 + |D|) |x|, at most
    (1 + |D|_F) |I + D|_F / |det(I + D)| times eps |(I + D) x|, and the
    block ends before that gain exceeds _MAX_ERROR_GAIN.  Uncapped, a
    state that shrinks by many orders within a block (a coarse step on
    a fast decay) would keep only the absolute accuracy of the block's
    first state, where one-at-a-time stepping keeps it relative, and a
    power that overflows would turn a zero state component into nan.
    m = 1 is one-at-a-time stepping.
    """
    import numpy as np
    d = np.empty((_BLOCK, 2, 2))
    d[0] = (e11, e12), (e21, e22)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = 1
        while m < _BLOCK:
            last, low = d[m - 1], d[:m]
            d[m:2 * m] = (last + low) + last @ low
            m *= 2
        d11, d12, d21, d22 = d[:, 0, 0], d[:, 0, 1], d[:, 1, 0], d[:, 1, 1]
        p11, p22 = 1.0 + d11, 1.0 + d22
        gain = (
            (1.0 + np.sqrt(d11 * d11 + d12 * d12 + d21 * d21 + d22 * d22))
            * np.sqrt(p11 * p11 + d12 * d12 + d21 * d21 + p22 * p22)
            / np.abs(p11 * p22 - d12 * d21)
        )
    too_big = ~(gain <= _MAX_ERROR_GAIN)  # nan included
    if too_big.any():
        d = d[:max(1, int(too_big.argmax()))]
    return np.ascontiguousarray(d.transpose(1, 0, 2))


def _step_linear(increment, x0: tuple[float, float], step: float, t_end: float):
    """Times and states of x <- x + E x on the integrator grid.

    increment(h) returns the entries of E for a step of length h; it is
    called once for the full steps and once for a partial final step.
    The full steps go a block at a time through the powers of I + E.
    """
    _check_grid(step, t_end)
    x, y = float(x0[0]), float(x0[1])
    if x == 0.0 and y == 0.0:
        raise InvalidInputError("initial state must be nonzero")
    n_full, rem = _grid(step, t_end)
    import numpy as np
    xs = np.empty((2, n_full + (2 if rem else 1)))
    xs[:, 0] = x, y
    # an overflow ends as inf or nan in the last state, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        if n_full:
            d = _powers(*increment(step))
            for i in range(0, n_full, d.shape[1]):
                m = min(d.shape[1], n_full - i)
                np.add(d[:, :m] @ xs[:, i], xs[:, i, None], out=xs[:, i + 1:i + 1 + m])
        if rem:
            e11, e12, e21, e22 = increment(rem)
            x, y = xs[:, n_full].tolist()
            xs[:, -1] = x + (e11 * x + e12 * y), y + (e21 * x + e22 * y)
    _check_finite(*xs[:, -1].tolist(), t_end)
    return _sample_times(n_full, step, rem, t_end), xs[0], xs[1]


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

    The angle is stepped alone, four sines per step.  One RK4 step then
    multiplies r by 1 + h/6 (g1 + 2 g2 + 2 g3 + g4), where g_i is stage
    i's radial slope per unit radius, a function of the step's start
    angle and length only; so all the factors, their cumulative product
    and the samples are array expressions over the angle sequence.
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
    sin = math.sin
    n_full, rem = _grid(step, t_end)
    th = float(theta0)
    ths = [th]
    append = ths.append
    for h, n in ((step, n_full), (rem, 1 if rem else 0)):
        hh, h6 = 0.5 * h, h / 6.0
        for _ in range(n):
            k1 = m_t - p * sin(2.0 * (th - phase))
            k2 = m_t - p * sin(2.0 * (th + hh * k1 - phase))
            k3 = m_t - p * sin(2.0 * (th + hh * k2 - phase))
            k4 = m_t - p * sin(2.0 * (th + h * k3 - phase))
            th = th + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            append(th)

    import numpy as np
    theta = np.fromiter(ths, float, len(ths))
    th = theta[:-1]
    h = np.append(np.full(n_full, step), rem) if rem else step
    # The stages again, for all steps at once; stage 1 takes the sine and
    # cosine of 2 (theta - phase) from the samples' own, by double angles.
    # An overflow ends as inf or nan in the last radius, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        c, s = np.cos(theta), np.sin(theta)
        c2, s2 = ((c - s) * (c + s))[:-1], (2.0 * c * s)[:-1]
        c2p, s2p = math.cos(2.0 * phase), math.sin(2.0 * phase)
        k = m_t - p * (s2 * c2p - c2 * s2p)
        g1 = m_r + p * (c2 * c2p + s2 * s2p)
        u = 2.0 * (th + 0.5 * h * k - phase)
        k = m_t - p * np.sin(u)
        g2 = (1.0 + 0.5 * h * g1) * (m_r + p * np.cos(u))
        u = 2.0 * (th + 0.5 * h * k - phase)
        k = m_t - p * np.sin(u)
        g3 = (1.0 + 0.5 * h * g2) * (m_r + p * np.cos(u))
        u = 2.0 * (th + h * k - phase)
        g4 = (1.0 + h * g3) * (m_r + p * np.cos(u))
        f = 1.0 + h / 6.0 * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        r = float(r0) * np.cumprod(np.append(1.0, f))
        xs, ys = r * c, r * s
    _check_finite(float(r[-1]), float(theta[-1]), t_end)
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


def _corotating_increment(a: Mat2, k: float, h: float):
    """Entries of C - I, where C = R(kh) S is the RK4 step of X' = B_k(t) X
    seen in z = R(kt) X.

    S is the RK4 step of B_k from t = 0 (_stage_push); C - I =
    R(kh) (S - I) + (R(kh) - I) keeps the increment apart from the
    identity, as in _rk4_increment.
    """
    a11, a12, a21, a22 = a.a11, a.a12, a.a21, a.a22

    def rhs(t, x, y):
        c = math.cos(k * t)
        s = math.sin(k * t)
        u = c * x - s * y
        v = s * x + c * y
        fu = a11 * u + a12 * v
        fv = a21 * u + a22 * v
        return (c * fu + s * fv, -s * fu + c * fv)

    d11, d12, d21, d22 = _stage_push(rhs, h)
    c, s = math.cos(k * h), math.sin(k * h)
    c1 = -2.0 * math.sin(0.5 * k * h) ** 2  # cos(kh) - 1 without cancellation
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
    ts, z, w = _step_linear(
        lambda h: _corotating_increment(cfg.base, k, h), x0, step, t_end
    )
    import numpy as np
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
) -> SweepResult:
    """Classify growth/decay of the spun system over a grid of rates k.

    In the co-rotating frame z = R(kt) X the spun system is X' = (A + kJ) X,
    and |z| = |X| because a rotation keeps the norm, so the norm from
    x0 = (1, 0) is exactly |e^{(A + kJ) t} x0|.  t_end is cut into
    N = ceil(t_end / step) equal steps, and the log-norm is sampled at
    every (N // 512)-th step and at t_end: each rate's state advances from
    sample to sample by the exact propagator e^{(A + kJ) dt}
    (matrix_exponential, once for the common interval and once for a
    shorter last one) and is renormalized, so fast growth or decay
    cannot overflow; the true log-norm is the running sum.  A propagator
    or log-norm that is not finite raises NumericFailureError.  The
    empirical window boundary is the midpoint between the last decaying
    and first growing grid rates on each side (grid endpoints when the
    growing block touches the edge of the grid).
    """
    _check_grid(step, t_end)
    if n < 2:
        raise InvalidInputError(f"need at least 2 sweep points, got {n}")
    if not (k_min < k_max):
        raise InvalidInputError(f"need k_min < k_max, got [{k_min}, {k_max}]")
    window = repulsion_window(a)  # also validates the classification

    import numpy as np
    ks = np.linspace(k_min, k_max, n)
    n_steps = int(math.ceil(t_end / step))
    h = t_end / n_steps
    every = max(1, n_steps // 512)
    n_full, rem = divmod(n_steps, every)
    idx = np.arange(0, n_steps + 1, every)
    t_arr = (np.append(idx, n_steps) if rem else idx) * h

    def propagators(dt: float) -> np.ndarray:
        mats = [matrix_exponential(a + QUARTER_TURN.scaled(k), dt) for k in ks.tolist()]
        return np.array([(m.a11, m.a12, m.a21, m.a22) for m in mats]).T

    intervals = [propagators(every * h)] * n_full + ([propagators(rem * h)] if rem else [])
    log_arr = np.zeros((len(t_arr), n))  # log-norm of each sample and rate
    x, y = np.ones(n), np.zeros(n)
    # a zero or non-finite norm ends as -inf or nan in the last row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, (e11, e12, e21, e22) in enumerate(intervals, 1):
            x, y = e11 * x + e12 * y, e21 * x + e22 * y
            r = np.hypot(x, y)
            log_arr[i] = log_arr[i - 1] + np.log(r)
            x, y = x / r, y / r
    if not np.isfinite(log_arr[-1]).all():
        raise NumericFailureError("log-norm of the spun system is not finite")
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
