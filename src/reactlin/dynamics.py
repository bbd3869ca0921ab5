"""Trajectory integration and the rotating nonautonomous construction.

Fixed-step classical RK4 drives all integrators (smooth 2x2 linear
fields need nothing adaptive).  On a linear field one RK4 step is the
fixed matrix P(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so the
Cartesian integrators precompute its first 256 powers, step only every
256th state in sequence and fill the states between with one batched
product, x_{b+j} = x_b + (P^j - I) x_b; the closed-form matrix
exponential (core.matrix_exponential, re-exported here) serves as their
independent oracle.  The polar route integrates
dr/dt = r R(theta), dtheta/dt = T(theta) by RK4.  Only the angle is
sequential: its RK4 steps form a recurrence theta_{n+1} = Phi(theta_n),
and each RK4 step multiplies r by a factor that depends only on the
step's start angle and length, so the radius is one cumulative product
over all steps.  The recurrence is solved for the whole sequence at once
by Newton's method (each pass a linear recurrence, solved in blocks like
the step-matrix powers), as a small correction to the angles of the
Cartesian RK4 run: those states' directions give the stage sines and
cosines, which the correction and the stage shifts only turn by small
angles.  One sweep over the four stages of every step gives both the
angle map and the radius factors, with their slopes, so the radius at
the corrected angles is a first-order correction.  The result is
accepted only with bounds showing that the angle is the recurrence's
own solution to below the rounding of theta, and the radius to below
the rounding of r; otherwise, as on coarse steps, a scalar loop steps
theta alone.

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
never when the module is imported; the polar solver's own code (_polar)
is imported on the first integrate_polar call.  This module itself loads
on first use: through reactlin.__getattr__, or inside the amplification
and cli functions that need it, so the analytic layers never compile it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import (Mat2, QUARTER_TURN, RTParams, _real, _record, decompose,
                   matrix_exponential, rotate_conjugate)
from .errors import InvalidInputError, NumericFailureError
from .spectra import _reactive_arc, _require_reactive_attractor

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
    "MAX_SWEEP_POINTS",
    "MAX_GRID_STEPS",
]

# log-norm slope above which a trajectory counts as growing; robust to
# the bounded oscillation a rotating frame leaves in the norm.
GROWTH_SLOPE_THRESHOLD = 1e-3
# Most rates one sweep_rotation_rates call takes: its log-norm array holds
# up to 514 floats per rate, so 10^4 rates take about 41 MB.
MAX_SWEEP_POINTS = 10_000
# Most steps one integrator call takes: each sample array holds a float per
# step, so 4 * 10^6 steps take 32 MB an array, and integrate_polar works
# with about a dozen such arrays.
MAX_GRID_STEPS = 4_000_000
# 2pi split Cody-Waite style: _TAU_HI has 31 significant bits, so k _TAU_HI
# is exact for an integer |k| < 2^22, and _TAU_LO = 2pi - _TAU_HI.
_TAU_HI = 6.2831853069365025
_TAU_LO = 2.430840202602477e-10


@_record(eq=False)
class Trajectory:
    """Uniformly sampled solution states (a final partial step may occur).

    theta is rebuilt from the samples as accumulated phase: the first
    value is arctan2(x2, x1), in (-pi, pi], and later ones are unwrapped,
    never reduced mod 2pi, so winding counts and mean angular speeds can
    be read off directly.  Each sample's arctan2 a gains k whole turns, k
    the running sum of the rounded jumps -diff(a) / 2pi, as
    k _TAU_HI + (a + k _TAU_LO).  k _TAU_HI is exact while |k| < 2^22
    (theta below about 2.6e7 rad), so theta is within an ulp of the
    samples' exact unwrapped angle, plus arctan2's own rounding, however
    many turns came before.
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
        a = np.arctan2(self.x2, self.x1)
        k = np.zeros_like(a)
        np.cumsum(np.rint(np.diff(a) / -math.tau), out=k[1:])
        return k * _TAU_HI + (a + k * _TAU_LO)


def _trajectory(ts: np.ndarray, xs, ys, step: float, method: str) -> Trajectory:
    import numpy as np
    return Trajectory(t=ts, x1=np.asarray(xs), x2=np.asarray(ys), step=step, method=method)


def _grid(step: float, t_end: float) -> tuple[int, float]:
    """Number of full steps and the partial final step (0 if none); more
    than MAX_GRID_STEPS steps raise InvalidInputError."""
    if not t_end / step <= MAX_GRID_STEPS:  # inf included
        raise InvalidInputError(
            f"t_end / step = {t_end!r} / {step!r} is more than {MAX_GRID_STEPS} steps")
    n_full = int(math.floor(t_end / step + 1e-9))
    rem = t_end - n_full * step
    return n_full, rem if rem > 1e-12 * t_end else 0.0


def _sample_times(step: float, t_end: float) -> np.ndarray:
    import numpy as np
    n_full, rem = _grid(step, t_end)
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
    """Step scaled to the system's fastest rate so accuracy is uniform.

    The step is base / speed, where speed is the fastest of |rho1|,
    |rho2|, |tau1| and |tau2|, so A and cA take the same number of steps.
    The zero matrix, which has no rate, steps at base.  A system so slow
    that base / speed overflows raises NumericFailureError.
    """
    base = _real("base", base, positive=True)
    speed = max(abs(rt.rho1), abs(rt.rho2), abs(rt.tau1), abs(rt.tau2))
    step = base / speed if speed > 0.0 else base
    if step == math.inf:
        raise NumericFailureError(
            f"default step {base!r} / speed {speed!r} overflows; pass an explicit step")
    return step


def _stage_push(rhs, h):
    """Entries (e11, e12, e21, e22) of S - I, where S is the classical RK4
    step of (x, y)' = rhs(t, x, y) from t = 0 with length h.

    S is linear in the state, so pushing e1 and e2 through the four
    stages gives its columns; the increment h/6 (k1 + 2 k2 + 2 k3 + k4)
    is kept apart from the identity.
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
    would otherwise magnify.
    """
    return _stage_push(lambda _t, u, v: (a11 * u + a12 * v, a21 * u + a22 * v), h)


# Most steps advanced per numpy expression by the step-matrix loops;
# longer blocks would save little Python time per step.
_BLOCK = 256
# Bound on the rounding error of a blocked state, in units of eps times
# the state's own norm (see _powers).
_MAX_ERROR_GAIN = 16.0


def _gain_bound(e11, e12, e21, e22) -> float:
    """An upper bound on every power's error gain in _powers, j <= _BLOCK,
    from the entries of E = P - I alone.

    With f = |E|_F, each D_j = P^j - I has |D_j|_F <= (1 + f)^j - 1 <=
    delta = (1 + f)^_BLOCK - 1, so |I + D_j|_F <= sqrt 2 + delta, and
    |det(I + D_j)| = |det P|^j >= min(1, |det P|)^_BLOCK: the gain is at
    most (1 + delta)(sqrt 2 + delta) / min(1, |det P|)^_BLOCK.  The bound
    is raised by a relative 2^-20, far more than the roundings of its own
    arithmetic and of the gains it stands for; inf where f >= 1 (nan
    included) or the determinant's power underflows.
    """
    f = math.sqrt(e11 * e11 + e12 * e12 + e21 * e21 + e22 * e22)
    if not f < 1.0:
        return math.inf
    delta = (1.0 + f) ** _BLOCK - 1.0
    det = min(1.0, abs((1.0 + e11) * (1.0 + e22) - e12 * e21)) ** _BLOCK
    if det == 0.0:
        return math.inf
    return (1.0 + delta) * (math.sqrt(2.0) + delta) / det * (1.0 + 2.0 ** -20)


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
    m = 1 is one-at-a-time stepping.  Where the scalar certificate
    _gain_bound already holds every gain under _MAX_ERROR_GAIN, as on
    fine steps, the block is whole and no power's gain is formed.
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
        if _gain_bound(e11, e12, e21, e22) <= _MAX_ERROR_GAIN:
            return np.ascontiguousarray(d.transpose(1, 0, 2))
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
    """States (x, y) of x <- x + E x on the integrator grid (_sample_times).

    increment(h) returns the entries of E for a step of length h; it is
    called once for the full steps and once for a partial final step.
    The full steps go in blocks of m through D_j = P^j - I, P = I + E
    (_powers): only the block starts x_{bm} step in sequence, in floats,
    and one batched product fills every block, x_{bm} + D_j x_{bm}, in a
    contiguous array copied once into the output, padded to whole blocks
    and trimmed by a view.
    """
    try:
        x, y = x0
    except (TypeError, ValueError):  # not iterable, or not two entries
        raise InvalidInputError(f"x0 must be a pair of reals, got {x0!r}") from None
    x, y = _real("x0[0]", x), _real("x0[1]", y)
    if x == 0.0 and y == 0.0:
        raise InvalidInputError("initial state must be nonzero")
    n_full, rem = _grid(step, t_end)
    from array import array
    import numpy as np
    d = _powers(*increment(step)) if n_full else np.zeros((2, 1, 2))  # x0 alone
    m = d.shape[1]
    (d11, d12), (d21, d22) = d[:, -1].tolist()
    starts = array("d", (x, y))
    for _ in range(n_full // m):
        x, y = x + (d11 * x + d12 * y), y + (d21 * x + d22 * y)
        starts.extend((x, y))
    starts = np.frombuffer(starts).reshape(-1, 2)
    xs = np.empty((2, len(starts) * m + 1))
    blocks = xs[:, :-1].reshape(2, len(starts), m)
    # an overflow ends as inf or nan in the last state, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        blocks[:, :, 0] = starts.T
        fill = np.matmul(starts, d[:, :-1].transpose(0, 2, 1))
        fill += starts.T[:, :, None]
        blocks[:, :, 1:] = fill
        if rem:
            e11, e12, e21, e22 = increment(rem)
            x, y = xs[:, n_full].tolist()
            xs[:, n_full + 1] = x + (e11 * x + e12 * y), y + (e21 * x + e22 * y)
    xs = xs[:, :n_full + (2 if rem else 1)]
    _check_finite(*xs[:, -1].tolist(), t_end)
    return xs[0], xs[1]


def integrate_linear(
    a: Mat2, x0: tuple[float, float], step: float, t_end: float
) -> Trajectory:
    """RK4 trajectory of X' = AX from x0, one step matrix product per step."""
    step, t_end = _real("step", step, positive=True), _real("t_end", t_end, positive=True)
    xs, ys = _step_linear(
        lambda h: _rk4_increment(a.a11, a.a12, a.a21, a.a22, h), x0, step, t_end
    )
    return _trajectory(_sample_times(step, t_end), xs, ys, step, "rk4")


def integrate_polar(
    rt: RTParams, r0: float, theta0: float, step: float, t_end: float
) -> Trajectory:
    """RK4 on the decoupled polar system dr = r R(theta), dtheta = T(theta).

    The angle alone obeys a recurrence, theta_{n+1} = Phi(theta_n), Phi
    one RK4 step of dtheta = T(theta) (_step_angles), from theta0 as
    given, unnormalized.  It is solved for the whole sequence at once by
    Newton's method, as a correction E to the angles of the Cartesian RK4
    run of the same system (_solve_angles), and accepted only with a
    certificate that it is the recurrence's own solution to below the
    rounding of theta.  The Cartesian run sets only the speed, so the
    result is still independent of integrate_linear.  Where no pass is
    certified (coarse steps) the angle is stepped one step at a time.
    One RK4 step multiplies r by a factor that depends only on the step's
    start angle and length, and r is the cumulative product of the factors
    (_radii).  The factors come from the same stage sweep as the accepted
    pass's angle map (_stage_sweep), with their slopes, which carry them
    to the corrected angles to below the rounding of r.  Samples are
    returned in Cartesian form (r cos theta, r sin theta), at the Cartesian
    run's times: each Cartesian state's direction turned through E.  So
    Trajectory.theta, rebuilt from them, starts at theta0 reduced into
    (-pi, pi].
    """
    from ._polar import integrate  # the solver's code loads on first use
    return integrate(rt, r0, theta0, step, t_end)


# ---------------------------------------------------------------------------
# rotating nonautonomous systems


@_record
class NonautConfig:
    """A frozen reactive attractor spun at constant angular rate k.

    The time-t coefficient matrix is B_k(t) = M_kt^-1 base M_kt; every
    frozen instant shares the base system's reactivity, spectra and
    reactive-arc geometry.
    """

    base: Mat2
    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _real("rotation rate k", self.k))
        _require_reactive_attractor(decompose(self.base), "nonautonomous rotation analysis")


def nonaut_matrix(cfg: NonautConfig, t: float) -> Mat2:
    """Frozen coefficient matrix B_k(t)."""
    return rotate_conjugate(cfg.base, cfg.k * _real("t", t))


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
    rt = _require_reactive_attractor(decompose(a), "the repulsion window")
    p_t, _ = _reactive_arc(rt.m_r, rt.m_t, rt.p)
    return (-(rt.m_t + p_t), -(rt.m_t - p_t))


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
    is the same matrix; each sample is turned back by R(-k t_n).  With
    n = _BLOCK i + j, k t_n is the sum of k (_BLOCK i h) and k (j h), each
    computed directly, so rotation error never accumulates; the cosines
    and sines of the two come by angle addition, and t_end's directly.
    """
    step, t_end = _real("step", step, positive=True), _real("t_end", t_end, positive=True)
    k = cfg.k
    z, w = _step_linear(
        lambda h: _corotating_increment(cfg.base, k, h), x0, step, t_end
    )
    ts = _sample_times(step, t_end)
    import numpy as np
    n = _grid(step, t_end)[0] + 1  # samples on the grid, t_n = n h
    starts = k * (np.arange(n // _BLOCK + 1)[:, None] * (_BLOCK * step))
    offsets = k * (np.arange(_BLOCK) * step)
    cs, ss, co, so = np.cos(starts), np.sin(starts), np.cos(offsets), np.sin(offsets)
    c, s = (cs * co - ss * so).ravel(), (ss * co + cs * so).ravel()
    c[n], s[n] = math.cos(k * t_end), math.sin(k * t_end)  # a partial step's sample
    c, s = c[:len(ts)], s[:len(ts)]
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


@_record
class SweepPoint:
    """One spin rate k of a sweep: its log-norm slope, and whether that counts as growth."""

    k: float
    log_slope: float
    growing: bool


@_record
class SweepResult:
    """A sweep's points with the analytic and the empirical repulsion window and
    their largest endpoint difference (None, with the empirical window, when
    no rate grows)."""

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
    """Classify growth/decay of the spun system over a grid of n rates k,
    2 <= n <= MAX_SWEEP_POINTS.

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
    step, t_end = _real("step", step, positive=True), _real("t_end", t_end, positive=True)
    k_min, k_max = _real("k_min", k_min), _real("k_max", k_max)
    import numbers
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise InvalidInputError(f"need at least 2 sweep points, got {n!r}")
    if n > MAX_SWEEP_POINTS:
        raise InvalidInputError(f"need at most {MAX_SWEEP_POINTS} sweep points, got {n!r}")
    if not (k_min < k_max):
        raise InvalidInputError(f"need k_min < k_max, got [{k_min}, {k_max}]")
    _real("k_max - k_min", k_max - k_min)  # np.linspace needs the width
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
