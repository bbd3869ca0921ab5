"""The RK4 polar route behind dynamics.integrate_polar.

It is imported on the first call, so that importing the package neither
compiles nor holds the solver's code.  See dynamics.integrate_polar and
_solve_angles for the method.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import RTParams, _real, reconstruct
from .dynamics import (
    Trajectory, _BLOCK, _check_finite, _grid, _rk4_increment, _sample_times, _step_linear, _trajectory,
)
from .errors import InvalidInputError, NumericFailureError

if TYPE_CHECKING:
    import numpy as np


# Most Newton passes the whole-sequence angle solve of integrate_polar
# takes before it steps the angle one step at a time instead.
_NEWTON_PASSES = 3
# Taylor coefficients of cos and sin, and the most terms _turn takes for
# the sine of a small angle (|d| up to about 0.06) before np.cos and np.sin.
_TAYLOR_TERMS = 4
_COS = [(-1.0) ** j / math.factorial(2 * j) for j in range(_TAYLOR_TERMS + 1)]
_SIN = [(-1.0) ** j / math.factorial(2 * j + 1) for j in range(_TAYLOR_TERMS)]


def _step_angles(theta0: float, m_t: float, p: float, phase: float,
                 step: float, n_full: int, rem: float) -> list[float]:
    """The RK4 angle recurrence stepped one step at a time, in floats.

    Stage i's sine argument is v = 2 (theta - phase) shifted by h k =
    a - b s (by 2 h k for stage 4), where a = h m_T, b = h p and s is the
    previous stage's sine, so a step is four sines and 17 float
    operations.
    """
    sin = math.sin
    th = theta0
    ths = [th]
    append = ths.append
    for h, n in ((step, n_full), (rem, 1 if rem else 0)):
        a, b = h * m_t, h * p  # a stage moves 2 (theta - phase) by h k = a - b sin
        a2, b2, b6 = 2.0 * a, 2.0 * b, b / 6.0
        for _ in range(n):
            v = 2.0 * (th - phase)
            s1 = sin(v)
            va = v + a
            s2 = sin(va - b * s1)
            s3 = sin(va - b * s2)
            s4 = sin(v + a2 - b2 * s3)
            th = th + (a - b6 * (s1 + s4 + 2.0 * (s2 + s3)))
            append(th)
    return ths


def _turn(c, s, d, bound: float):
    """cos(u + d) and sin(u + d) from c = cos u and s = sin u, for |d| <= bound;
    d is overwritten.

    cos d and sin d come from their Taylor series, with as many terms K as
    make the first omitted one, at most bound^(2K+1)/(2K+1)!, no more than
    2^-56; beyond _TAYLOR_TERMS terms, from np.cos and np.sin.
    """
    import numpy as np
    k = 1
    while k <= _TAYLOR_TERMS and min(bound, 1.0) ** (2 * k + 1) > 2.0 ** -56 * math.factorial(2 * k + 1):
        k += 1
    if k > _TAYLOR_TERMS:
        cos_d, sin_d = np.cos(d), np.sin(d)
    else:
        d2 = d * d
        cos_d, sin_d = np.full_like(d, _COS[k]), np.full_like(d, _SIN[k - 1])
        for j in range(k - 1, -1, -1):
            cos_d *= d2
            cos_d += _COS[j]
            if j:
                sin_d *= d2
                sin_d += _SIN[j - 1]
        sin_d *= d
        del d2
    turned_c = c * cos_d
    turned_c -= np.multiply(s, sin_d, out=d)
    cos_d *= s
    cos_d += np.multiply(c, sin_d, out=sin_d)
    return turned_c, cos_d


def _later_stages(c1, s1, a, b, bound: float):
    """Yield (last, cos u_i, sin u_i) for RK4 angle stages i = 2, 3, 4 at
    every step, given cos and sin of stage 1's argument u_1; last marks
    stage 4.

    As in _step_angles, u_2 = u_1 + a - b sin u_1, u_3 = u_1 + a - b sin u_2
    and u_4 = u_1 + 2 (a - b sin u_3), each stage 1 turned by at most bound
    (2 bound for stage 4) for bound >= |a| + |b|.  No stage is held after
    the next one is formed, so a caller that drops each keeps one alive.
    """
    import numpy as np
    s = s1
    for last in (False, False, True):
        d = b * s
        del s
        np.subtract(a, d, out=d)
        if last:
            d *= 2.0
        c, s = _turn(c1, s1, d, 2.0 * bound if last else bound)
        yield last, c, s
        del c


def _angle_map(c1, s1, a, b, bound: float):
    """Increments Phi(theta) - theta and derivatives Phi'(theta) of the RK4
    angle map at every step, from cos and sin of stage 1's argument.

    Phi(theta) = theta + a - b/6 sum_i k_i sin u_i, k = (1, 2, 2, 1), and
    Phi' = 1 - b/6 sum_i k_i cos(u_i) d_i, where d_i = du_i/dtheta: d_1 = 2,
    d_{2,3} = 2 - b cos(u_{1,2}) d_{1,2}, d_4 = 2 - 2 b cos(u_3) d_3.  The
    sums take each stage, weighted k_i / 2, as it is formed.
    """
    f, cd = 0.5 * s1, 2.0 * c1  # cd: cos(u_i) d_i
    jac = 0.5 * cd
    for last, c, s in _later_stages(c1, s1, a, b, bound):
        cd *= -2.0 * b if last else -b
        cd += 2.0
        cd *= c
        f += 0.5 * s if last else s
        jac += 0.5 * cd if last else cd
        del c, s
    f *= -b / 3.0
    jac *= -b / 3.0
    return f + a, jac + 1.0


def _radius_increments(c1, s1, a, b, bound: float, h, m_r: float, p: float):
    """phi at every step, where the RK4 step multiplies r by 1 + phi,
    phi = h/6 (g1 + 2 g2 + 2 g3 + g4): g_i is stage i's radial slope per
    unit radius, (m_R + p cos u_i) times the stage's radius over r, a
    function of the step's start angle and length only.  The stages are
    _angle_map's, taken as they are formed.
    """
    g = p * c1 + m_r
    phi = 0.5 * g
    for last, c, s in _later_stages(c1, s1, a, b, bound):
        g *= h if last else 0.5 * h
        g += 1.0  # the stage's radius over r
        c *= p
        c += m_r
        g *= c
        phi += 0.5 * g if last else g
        del c, s
    phi *= h / 3.0
    return phi


def _radii(r0: float, phi: np.ndarray) -> np.ndarray:
    """r0 and its cumulative products with the factors 1 + phi.

    Each factor is hi + lo exactly, hi = fl(1 + phi), lo = phi - (hi - 1),
    and r_n = r0 prod hi (1 + sum lo/hi) to second order in the lo.  So the
    rounding of a factor does not recur at every step, as it would in a
    product of fl(1 + phi), an error growing like the step count under a
    constant factor.
    """
    import numpy as np
    r = np.append(r0, phi + 1.0)  # r0 first, so a long decay from a large r0 keeps it
    hi = r[1:]
    lo = (phi - (hi - 1.0)) / hi
    np.multiply.accumulate(r, out=r)
    hi += np.cumsum(lo, out=lo) * hi
    return r


def _angle_curvature_bound(beta: float) -> float:
    """Upper bound on |Phi''| for the RK4 angle map of a step with h p <= beta.

    With D_i >= |du_i/dtheta| and E_i >= |d^2u_i/dtheta^2| (D_1 = 2,
    E_1 = 0; D_{2,3} = 2 + beta D_{1,2}, E_{2,3} = beta (D_{1,2}^2 + E_{1,2});
    D_4 = 2 + 2 beta D_3, E_4 = 2 beta (D_3^2 + E_3)), Phi'' =
    -(b/6) sum_i k_i (cos u_i u_i'' - sin u_i u_i'^2), k = (1, 2, 2, 1),
    is at most (beta/6) sum_i k_i (E_i + D_i^2); about 4 beta for small
    beta.
    """
    d1, e1 = 2.0, 0.0
    d2, e2 = 2.0 + beta * d1, beta * (d1 * d1 + e1)
    d3, e3 = 2.0 + beta * d2, beta * (d2 * d2 + e2)
    d4, e4 = 2.0 + 2.0 * beta * d3, 2.0 * beta * (d3 * d3 + e3)
    return beta / 6.0 * (d1 * d1 + e1 + 2.0 * (d2 * d2 + e2 + d3 * d3 + e3) + d4 * d4 + e4)


def _linear_scan(jac: np.ndarray, res: np.ndarray):
    """Solve e_0 = 0, e_{n+1} = J_n e_n + r_n for n = 0..len(jac) - 1.

    In blocks of _BLOCK steps, as _step_linear: within a block,
    e_{s+i+1} = Q_i (e_s + sum_{l <= i} r_l / Q_l), with Q the cumulative
    product of the block's J, and only the block starts e_s step in
    sequence.  Returns e, max|e| and the log of the largest product of
    consecutive J (every J positive): log Q offset by the earlier blocks
    is the running sum L of log J, and the largest product is
    exp(max_j (L_j - min(0, min_{k <= j} L_k))).  Returns None if a Q
    underflows or overflows, which ends as inf or nan in e.
    """
    import numpy as np
    n = len(jac)
    m = min(_BLOCK, n)
    nb = -(-n // m)
    q = np.ones((nb, m))
    q.ravel()[:n] = jac
    z = np.zeros((nb, m))
    z.ravel()[:n] = res
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        np.cumprod(q, axis=1, out=q)
        z /= q
        np.cumsum(z, axis=1, out=z)
        z *= q
        e_s, starts = 0.0, []
        for q_end, z_end in zip(q[:, -1].tolist(), z[:, -1].tolist()):
            starts.append(e_s)
            e_s = q_end * e_s + z_end
        z += q * np.array(starts)[:, None]
    e = np.empty(n + 1)
    e[0] = 0.0
    e[1:] = z.ravel()[:n]
    e_max = max(float(e.max()), -float(e.min()))
    if not math.isfinite(e_max):
        return None
    np.log(q, out=q)
    q[1:] += np.cumsum(q[:-1, -1])[:, None]  # the running sum L of log J
    low = np.minimum.accumulate(q.ravel())
    np.minimum(low, 0.0, out=low)
    return e, e_max, max(0.0, float((q.ravel() - low).max()))


def _first_stage(x, y, phase: float, big_e=None, e_bound: float = 0.0):
    """cos and sin of stage 1's argument 2 (theta_n - phase) at every step,
    for theta_n = thc_n + E_n, thc_n the angle of the state (x_n, y_n):
    (x^2 - y^2, 2 x y) / (x^2 + y^2) turned by -2 phase and by 2 E,
    |E| <= e_bound."""
    x, y = x[:-1], y[:-1]
    rho2 = x * x + y * y
    c, s = (x * x - y * y) / rho2, 2.0 * x * y / rho2
    cp, sp = math.cos(2.0 * phase), math.sin(2.0 * phase)
    c, s = c * cp + s * sp, s * cp - c * sp
    return (c, s) if big_e is None else _turn(c, s, 2.0 * big_e[:-1], 2.0 * e_bound)


def _scaled_states(x: np.ndarray, y: np.ndarray):
    """The states and their successors, (x, y, x_next, y_next): where a
    squared norm is not a normal float, state n and its successor are both
    scaled by 2^-k_n, k_n the binary exponent of max(|x_n|, |y_n|).  That is
    exact and keeps every angle, and the products that give the double
    angles and the turns then keep full relative precision."""
    import numpy as np
    rho2 = x * x + y * y
    if rho2.min() >= 2.0 ** -968 and rho2.max() < math.inf:
        return x, y, x[1:], y[1:]
    scale = np.ldexp(1.0, -np.frexp(np.maximum(abs(x), abs(y)))[1])
    return x * scale, y * scale, x[1:] * scale[:-1], y[1:] * scale[:-1]


def _turns(x: np.ndarray, y: np.ndarray, x1: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Each step's turn from state n to its successor, atan2(cross, dot), with
    the cross product formed from the step's increment so that it keeps the
    accuracy of the turn itself and the turns' roundings do not add up."""
    import numpy as np
    x0, y0 = x[:-1], y[:-1]
    return np.arctan2(x0 * (y1 - y0) - y0 * (x1 - x0), x0 * x1 + y0 * y1)


def _solve_angles(x: np.ndarray, y: np.ndarray, x_next: np.ndarray, y_next: np.ndarray,
                  theta0: float, a, b, phase: float, beta: float, bound: float):
    """Whole-sequence solve of theta_{n+1} = Phi(theta_n), theta_0 = theta0,
    as theta_n = thc_n + E_n: thc_n is the angle of the Cartesian RK4 state
    (x_n, y_n), accumulated from theta0 by each step's turn (_turns), and
    E_n a small correction, so that no stage takes a sine of the full range
    of angles (_first_stage, _later_stages).

    Newton's method over the sequence: with residuals r_n =
    Phi(theta_n) - theta_{n+1} = F_n - turn_n - (E_{n+1} - E_n), F_n the
    increment of Phi, and J_n = Phi'(theta_n) at the current iterate, the
    correction solves e_{n+1} = J_n e_n + r_n, e_0 = 0 (_linear_scan).  The
    corrected sequence then differs from the recurrence's own solution
    by d, with d_0 = 0 and d_{n+1} = J_n d_n + Phi''(xi_n) (e_n + d_n)^2 / 2,
    so by at most the Newton remainder n max|Phi''| G max|e|^2 (beta
    bounds h p for max|Phi''|, G is the largest product of consecutive J)
    while that is at most 0.4 max|e|.  A pass is accepted when the
    remainder is also below 2^-54 max(1, max|theta|), below the rounding
    of theta itself, with max|theta| <= |theta0| + sum|turn| + max|E|;
    else it repeats, at most _NEWTON_PASSES times.  Returns E and max|E|,
    or None if a stage argument 2 (theta - phase) overflows, a J is not
    positive, the correction is not finite or no pass is accepted.
    """
    scale = (len(x) - 1) * _angle_curvature_bound(beta)
    big_e, e_bound, top = None, 0.0, None
    for _ in range(_NEWTON_PASSES):
        f, jac = _angle_map(*_first_stage(x, y, phase, big_e, e_bound), a, b, bound)
        if not jac.min() > 0.0:  # nan included
            return None
        turn = _turns(x, y, x_next, y_next)
        if top is None:
            top = abs(theta0) + float(abs(turn).sum())  # bounds max|thc|
            if not math.isfinite(2.0 * (top + abs(phase))):
                return None
        f -= turn  # f is now the residual r
        if big_e is not None:
            f -= big_e[1:]
            f += big_e[:-1]
        del turn
        scan = _linear_scan(jac, f)
        if scan is None:
            return None
        e, e_max, log_g = scan
        big_e = e if big_e is None else big_e + e
        e_bound = max(float(big_e.max()), -float(big_e.min()))
        remainder = scale * e_max * e_max * math.exp(min(log_g, 709.0))
        if remainder <= min(2.0 ** -54 * max(1.0, top + e_bound), 0.4 * e_max):
            return big_e, e_bound
    return None


def integrate(rt: RTParams, r0: float, theta0: float, step: float, t_end: float) -> Trajectory:
    """dynamics.integrate_polar, which documents it."""
    step, t_end = _real("step", step, positive=True), _real("t_end", t_end, positive=True)
    r0, theta0 = _real("r0", r0, positive=True), _real("theta0", theta0)
    m_r, m_t, p = rt.m_r, rt.m_t, rt.p
    phase = rt.theta_r.value if rt.theta_r is not None else 0.0
    n_full, rem = _grid(step, t_end)
    import numpy as np
    h = np.append(np.full(n_full, step), rem) if rem else step
    a, b = h * m_t, h * p
    bound = step * (abs(m_t) + p)  # bounds each stage's shift |a - b sin u|
    # The Cartesian run's norm grows like e^{sigma t} once its direction
    # settles, sigma the largest real part of an eigenvalue: a start of norm
    # about e^{-sigma t_end / 2}, a power of two, keeps long runs in range.
    sigma = m_r + (math.sqrt((p - abs(m_t)) * (p + abs(m_t))) if p > abs(m_t) else 0.0)
    norm = math.ldexp(1.0, int(max(-960.0, min(960.0, -0.5 * t_end * sigma / math.log(2.0)))))
    # A state that underflows to 0 ends as nan in J, so that no pass is
    # accepted, and an angle that overflows as a ValueError from math.sin in
    # the loop; a radius that overflows ends as inf or nan in the last sample.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            cart = reconstruct(rt)
            ts, x, y = _step_linear(lambda hs: _rk4_increment(cart.a11, cart.a12, cart.a21, cart.a22, hs),
                                    (norm * math.cos(theta0), norm * math.sin(theta0)), step, t_end)
            x, y, x_next, y_next = _scaled_states(x, y)
            solved = _solve_angles(x, y, x_next, y_next, theta0, a, b, phase, step * p, bound)
        except (InvalidInputError, NumericFailureError):  # the Cartesian matrix or run overflows
            solved = None
        if solved is None:  # the loop's own directions, with no correction
            try:
                ths = _step_angles(theta0, m_t, p, phase, step, n_full, rem)
            except ValueError:
                raise NumericFailureError(f"angle overflowed before t = {t_end!r}") from None
            theta = np.fromiter(ths, float, len(ths))
            ts, x, y = _sample_times(n_full, step, rem, t_end), np.cos(theta), np.sin(theta)
        big_e, e_bound = solved or (None, 0.0)
        r = _radii(r0, _radius_increments(*_first_stage(x, y, phase, big_e, e_bound),
                                          a, b, bound, h, m_r, p))
        r /= np.sqrt(x * x + y * y)
        xs, ys = (r * x, r * y) if big_e is None else _turn(r * x, r * y, big_e, e_bound)
    _check_finite(float(xs[-1]), float(ys[-1]), t_end)
    return _trajectory(ts, xs, ys, step, "rk4_polar")
