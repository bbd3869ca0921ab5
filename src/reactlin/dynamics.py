"""Trajectory integration and the rotating nonautonomous construction.

Every integrator steps a fixed linear map, x <- x + E x (_step_linear).
On a linear field one classical RK4 step is the matrix
P(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, and the exact step is
e^{Ah}; either way the integrators tabulate the first 256 powers of
the step matrix in closed form (with P - I = mu I + N and N^2 = q I,
P^j is e^{jl} times a cosh/sinh or cos/sin pair in j), step only every
256th state in sequence and fill the states between with one batched
product, x_{b+j} = P^j x_b.
integrate_linear takes RK4's step, with the closed-form matrix
exponential (core.matrix_exponential, re-exported here) as its
independent oracle.  integrate_polar samples the exact flow of the
polar system dr/dt = r R(theta), dtheta/dt = T(theta): that split is a
change of coordinates of X' = AX, so its solution is e^{At} x0, and its
step is e^{Ah} - I from matrix_exponential's own case split
(core._exp_split), with the identity kept out.

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
change; the k-sweep needs only norms, |X(t)| = |e^{(A + kJ) t} x0|,
takes them from the matrix exponential instead of time-stepping, and
fits every rate's slope at once over its (samples x rates) log-norms.

numpy is imported only inside the functions that build or read arrays,
never when the module is imported.  This module itself loads on first
use: through reactlin.__getattr__, or inside the amplification
and cli functions that need it, so the analytic layers never compile it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import (Mat2, QUARTER_TURN, RTParams, _exp_split, _real, _record, decompose,
                   matrix_exponential, reconstruct, rotate_conjugate)
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
# up to 1024 floats per rate, so 10^4 rates take up to 82 MB.
MAX_SWEEP_POINTS = 10_000
# Most steps one integrator call takes: each sample array holds a float per
# step, so 4 * 10^6 steps take 32 MB an array, and an integrator call works
# with a few such arrays.
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
    ts = np.arange(n_full + 1.0)
    ts *= step
    return np.append(ts, t_end) if rem else ts


def _check_finite(x: float, y: float, t_end: float) -> None:
    """Raise if an integrator's final state overflowed.

    The step updates never turn inf or nan back into a finite number, so
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


def _exact_increment(a: Mat2, h: float):
    """Entries (e11, e12, e21, e22) of e^{Ah} - I, the exact step of X' = AX.

    core._exp_split gives e^{Ah} - I = f I + e s (A - m I) with f formed
    apart from the identity, which stays out as in _rk4_increment.
    """
    m, e, _, s, f = _exp_split(a, h)
    es = e * s
    return f + es * (a.a11 - m), es * a.a12, es * a.a21, f + es * (a.a22 - m)


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
    """The power table of P = I + E, and the step between block starts.

    Returns (table, d) with table[:, :, j] = P^j for j = 0..m-1, shape
    (2, 2, m), so a state x gives the m states from it as table @ x, and
    d = (d11, d12, d21, d22), the entries of P^m - I.  With E = mu I + N
    and N traceless, N^2 = q I, so P^j - I = f_j I + s_j N in closed form,
    over every j at once: with l = log(det P) / 2, s_j is
    e^{jl} sinh(jk) / sqrt q, k = atanh(sqrt q / (1 + mu)), for q > 0,
    e^{jl} sin(j phi) / sqrt(-q), phi = atan2(sqrt(-q), 1 + mu), for
    q < 0, and j e^{jl} / (1 + mu) for q = 0.  f_j keeps the identity
    out, as core._exp_split does: expm1(jl) plus e^{jl} times
    2 sinh^2(jk/2), -2 sin^2(j phi/2) or 0, and for q > 0 the factor
    g = e^{j(l + k)} is taken out, so a stiff P cannot overflow.

    m is _BLOCK, or less where a longer block would lose accuracy: the
    fill P^j x rounds with an error of about eps |P^j| |x|, at most
    sqrt 2 times the gain (1 + |D|_F) |I + D|_F / |det(I + D)|,
    D = P^j - I, times eps |P^j x|, and the block ends before that gain
    exceeds _MAX_ERROR_GAIN.  Uncapped, a state that shrinks by many
    orders within a block (a coarse step on a fast decay) would keep
    only the absolute accuracy of the block's first state, where
    one-at-a-time stepping keeps it relative, and a power that overflows
    would turn a zero state component into nan.  m = 1 is one-at-a-time
    stepping, with d = E itself; so is a P with a real eigenvalue <= 0,
    which has no real logarithm.  Where the scalar certificate
    _gain_bound already holds every gain under _MAX_ERROR_GAIN, as on
    fine steps, the block is whole and no power's gain is formed.
    """
    import numpy as np
    mu, n11 = 0.5 * (e11 + e22), 0.5 * (e11 - e22)
    q, b = n11 * n11 + e12 * e21, 1.0 + mu
    w, det1 = math.sqrt(abs(q)), (e11 + e22) + (e11 * e22 - e12 * e21)  # det P - 1
    if not (det1 > -1.0 and (q < 0.0 or b > w)):  # an eigenvalue <= 0, or nan
        return np.eye(2).reshape(2, 2, 1), (e11, e12, e21, e22)
    j = np.arange(_BLOCK + 1.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        l = 0.5 * math.log1p(det1)
        jl = j * l
        if q < 0.0:
            phi = math.atan2(w, b)
            e = np.exp(jl)
            s = e * np.sin(j * phi) / w
            f = np.expm1(jl) - 2.0 * e * np.sin(j * (0.5 * phi)) ** 2
        elif q > 0.0:
            k = math.atanh(w / b)
            g = np.exp(j * (l + k))
            jk = j * -k
            s = -0.5 * g * np.expm1(2.0 * jk) / w
            f = np.expm1(jl) + 0.5 * g * np.expm1(jk) ** 2
        else:
            s = j * np.exp(jl) / b
            f = np.expm1(jl)
        sn = s * n11
        d = np.array(((f + sn, s * e12), (s * e21, f - sn)))
        m = _BLOCK
        if not _gain_bound(e11, e12, e21, e22) <= _MAX_ERROR_GAIN:
            (d11, d12), (d21, d22) = d
            p11, p22 = 1.0 + d11, 1.0 + d22
            gain = (
                (1.0 + np.sqrt(d11 * d11 + d12 * d12 + d21 * d21 + d22 * d22))
                * np.sqrt(p11 * p11 + d12 * d12 + d21 * d21 + p22 * p22)
                / np.abs(p11 * p22 - d12 * d21)
            )
            too_big = ~(gain <= _MAX_ERROR_GAIN)  # nan included
            if too_big.any():
                m = max(1, int(too_big.argmax()) - 1)
    if m == 1:
        return np.eye(2).reshape(2, 2, 1), (e11, e12, e21, e22)
    table = d[:, :, :m]
    table[0, 0] += 1.0
    table[1, 1] += 1.0
    return table, tuple(d[:, :, m].ravel().tolist())


def _step_linear(increment, x0: tuple[float, float], step: float, t_end: float):
    """States (x, y) of x <- x + E x on the integrator grid (_sample_times).

    increment(h) returns the entries of E for a step of length h; it is
    called once for the full steps and once for a partial final step.
    The full steps go in blocks of m through the powers of P = I + E
    (_powers): only the block starts x_{bm} step in sequence, in floats,
    by x + (P^m - I) x, because their rounding compounds, and one batched
    product fills every block, x_{bm + j} = P^j x_{bm}, straight into the
    output, padded to whole blocks and trimmed by a view.
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
    # with no full step, P = I steps nowhere and only x0 is kept
    table, (d11, d12, d21, d22) = _powers(*(increment(step) if n_full else (0.0,) * 4))
    m = table.shape[2]
    starts = array("d", (x, y))
    for _ in range(n_full // m):
        x, y = x + (d11 * x + d12 * y), y + (d21 * x + d22 * y)
        starts.extend((x, y))
    starts = np.frombuffer(starts).reshape(-1, 2)
    xs = np.empty((2, len(starts) * m + 1))
    # an overflow ends as inf or nan in the last state, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(starts, table, out=xs[:, :-1].reshape(2, len(starts), m))
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
    return Trajectory(_sample_times(step, t_end), xs, ys, step, "rk4")


def integrate_polar(
    rt: RTParams, r0: float, theta0: float, step: float, t_end: float
) -> Trajectory:
    """Exact flow of the polar system dr = r R(theta), dtheta = T(theta),
    sampled on the integrator grid.

    The polar split is a change of coordinates of X' = AX, A =
    reconstruct(rt), so the solution from (r0, theta0) is e^{At} x0,
    x0 = (r0 cos theta0, r0 sin theta0).  The states step as x <- x + E x
    in blocks, like integrate_linear's, with the exact step
    E = e^{Ah} - I (_exact_increment) in place of RK4's.  Samples are
    returned in Cartesian form, so Trajectory.theta, rebuilt from them,
    starts at theta0 reduced into (-pi, pi].  An rt whose matrix
    overflows raises NumericFailureError.
    """
    step, t_end = _real("step", step, positive=True), _real("t_end", t_end, positive=True)
    r0, theta0 = _real("r0", r0, positive=True), _real("theta0", theta0)
    try:
        a = reconstruct(rt)
    except InvalidInputError:  # an entry overflowed
        raise NumericFailureError(f"the matrix of rt = {rt!r} overflows") from None
    xs, ys = _step_linear(lambda h: _exact_increment(a, h),
                          (r0 * math.cos(theta0), r0 * math.sin(theta0)), step, t_end)
    return Trajectory(_sample_times(step, t_end), xs, ys, step, "exact")


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
    return Trajectory(ts, c * z + s * w, c * w - s * z, step, "rk4_nonaut")


# ---------------------------------------------------------------------------
# empirical growth detection and the k sweep


def log_norm_slope(t: np.ndarray, log_norms: np.ndarray) -> float | np.ndarray:
    """Least-squares slope of log-norm over the trailing half of the data.

    The trailing window discards the initial transient; bounded
    oscillation from the rotating frame averages out in the fit.  A 2-D
    log_norms, one row per time, fits each column against the same
    centred times and gives an array of slopes; a 1-D one gives a float.
    Times all equal over the window give slope 0.  log_norms without one
    row per time, and either argument empty or with an entry that is not
    finite, raise InvalidInputError naming the argument.
    """
    import numpy as np
    t, log_norms = np.asarray(t, dtype=float), np.asarray(log_norms, dtype=float)
    if t.ndim != 1 or log_norms.ndim > 2 or log_norms.shape[:1] != t.shape:
        raise InvalidInputError(
            f"log_norms needs one row per entry of t, got shapes {log_norms.shape} and {t.shape}")
    for label, v in (("t", t), ("log_norms", log_norms)):
        if not (v.size and np.isfinite(v).all()):
            raise InvalidInputError(f"{label} is empty or has an entry that is not finite")
    lo = len(t) // 2
    tt, yy = t[lo:], log_norms[lo:]
    tm = tt - tt.mean()
    denom = float(tm @ tm)
    slope = tm @ (yy - yy.mean(axis=0)) / denom if denom else np.zeros(yy.shape[1:])
    return float(slope) if slope.ndim == 0 else slope


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
    cannot overflow; the log-norms are the running sums of the logs of
    the norms, in one (samples x rates) array, and one fit over it
    (log_norm_slope) gives every rate's slope.  A propagator or log-norm
    that is not finite raises NumericFailureError.  The
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
    log_arr = np.ones((len(t_arr), n))  # each interval's norm, then each sample's log-norm
    x, y = np.ones(n), np.zeros(n)
    # a zero or non-finite norm ends as -inf or nan in the last row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for r, (e11, e12, e21, e22) in zip(log_arr[1:], intervals):
            x, y = e11 * x + e12 * y, e21 * x + e22 * y
            np.hypot(x, y, out=r)
            x, y = x / r, y / r
        np.cumsum(np.log(log_arr, out=log_arr), axis=0, out=log_arr)
    if not np.isfinite(log_arr[-1]).all():
        raise NumericFailureError("log-norm of the spun system is not finite")
    slopes = log_norm_slope(t_arr, log_arr)
    growing = slopes > GROWTH_SLOPE_THRESHOLD
    block = np.flatnonzero(growing)
    empirical = max_err = None
    if block.size:
        edges = np.concatenate((ks[:1], 0.5 * (ks[:-1] + ks[1:]), ks[-1:]))
        empirical = (float(edges[block[0]]), float(edges[block[-1] + 1]))
        max_err = max(abs(empirical[0] - window[0]), abs(empirical[1] - window[1]))
    return SweepResult(
        points=tuple(map(SweepPoint, ks.tolist(), slopes.tolist(), growing.tolist())),
        analytic_window=window,
        empirical_window=empirical,
        max_abs_boundary_error=max_err,
    )
