"""The RK4 polar route behind dynamics.integrate_polar.

It is imported on the first call, so that importing the package neither
compiles nor holds the solver's code.  See dynamics.integrate_polar and
_solve_angles for the method: each Newton pass makes one sweep over the
four RK4 stages of every step (_stage_sweep), and that one sweep gives
both the angle map and the radius factors.
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
# takes to certify the angle before it steps the angle one step at a time
# instead; one more is taken where only the radius is not yet certified.
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
    2^-56 (so sin d is d itself for K = 1); beyond _TAYLOR_TERMS terms,
    from np.cos and np.sin.
    """
    import numpy as np
    k = 1
    while k <= _TAYLOR_TERMS and min(bound, 1.0) ** (2 * k + 1) > 2.0 ** -56 * math.factorial(2 * k + 1):
        k += 1
    if k > _TAYLOR_TERMS:
        cos_d, sin_d = np.cos(d), np.sin(d)
        scratch = d
    else:
        d2 = d * d
        cos_d = d2 * _COS[k]
        for coef in _COS[k - 1:0:-1]:
            cos_d += coef
            cos_d *= d2
        cos_d += _COS[0]
        if k == 1:
            sin_d, scratch = d, d2
        else:
            sin_d = d2 * _SIN[k - 1]
            for coef in _SIN[k - 2:0:-1]:
                sin_d += coef
                sin_d *= d2
            sin_d += _SIN[0]
            sin_d *= d
            scratch = d
        del d2
    turned_c = c * cos_d
    turned_c -= np.multiply(s, sin_d, out=scratch)
    cos_d *= s
    cos_d += np.multiply(c, sin_d, out=sin_d)
    return turned_c, cos_d


def _doubled(u, v, own: bool):
    """cos and sin of twice the angle of unit vectors (u, v): 1 - 2 v^2 and
    2 u v, written over v and u where the caller owns them."""
    import numpy as np
    s = np.multiply(u, v, out=u if own else None)
    s *= 2.0
    c = np.multiply(v, v, out=v if own else None)
    c *= -2.0
    c += 1.0
    return c, s


def _stage_sweep(big_x, big_y, big_e, e_bound: float, a, b, bound: float, h, m_r: float, p: float):
    """One sweep over the four RK4 stages of every step: the angle map's
    increment F = Phi(theta) - theta and slope J - 1 = Phi'(theta) - 1,
    and the radius increment phi with its slope dphi/dtheta, at
    theta_n = thc_n + E_n (E_n = 0 where big_e is None).

    (X, Y) are the unit directions at thc - phase (_directions), so stage
    i's argument u_i = 2 (theta - phase) + shift_i is twice the angle of
    (X, Y) turned (_turn) by E + shift_i / 2, and cos u_i = 1 - 2 Y_i^2,
    sin u_i = 2 X_i Y_i (_doubled).  As in _step_angles, shift_1 = 0,
    shift_{2,3} = a - b sin u_{1,2} and shift_4 = 2 (a - b sin u_3), so the
    half shifts are at most bound / 2, bound / 2 and bound for
    bound >= |a| + |b|; each stage's sine gives the next shift before the
    stage is used up.  With k = (1, 2, 2, 1) and d_i = du_i/dtheta
    (d_1 = 2, d_{2,3} = 2 - b cos(u_{1,2}) d_{1,2}, d_4 = 2 -
    2 b cos(u_3) d_3): F = a - b/6 sum_i k_i sin u_i and J - 1 =
    -b/6 sum_i k_i cos(u_i) d_i.  The RK4 step multiplies r by 1 + phi,
    phi = h/6 sum_i k_i g_i: g_i is stage i's radial slope per unit
    radius, g_i = R_i rho_i with R_i = m_R + p cos u_i and rho_i the
    stage's radius over r (rho_1 = 1, rho_{2,3} = 1 + h/2 g_{1,2},
    rho_4 = 1 + h g_3), so dphi/dtheta = h/6 sum_i k_i g_i' with
    g_i' = -p sin(u_i) d_i rho_i + R_i rho_i'.  The sums take each stage
    as it is formed, weighted k_i / 2, and are doubled before stage 4 so
    that its weight is 1; doubling is exact.
    """
    if big_e is None:
        c, s = _doubled(big_x, big_y, False)
    else:
        c, s = _doubled(*_turn(big_x, big_y, big_e.copy(), e_bound), True)
    # The order of these allocations sets how far the heap grows: with jac
    # taken over c instead, a process running only 1e4-step calls faulted
    # in about 230 pages a call, not 125.
    f, jac = 0.5 * s, 2.0 * c  # jac: cos(u_i) d_i, then its sum
    g, gp = p * c + m_r, -2.0 * p * s  # g_1 and g_1'
    d = jac * -b
    d += 2.0  # d_2
    jac *= 0.5
    phi, dphi = 0.5 * g, 0.5 * gp
    del c
    psi = s  # stage 2's half shift
    psi *= -0.5 * b
    psi += 0.5 * a
    for stage in (2, 3, 4):
        last = stage == 4
        if big_e is not None:
            psi += big_e
        c, s = _doubled(*_turn(big_x, big_y, psi, (bound if last else 0.5 * bound) + e_bound), True)
        del psi
        if last:
            for total in (f, jac, phi, dphi):
                total *= 2.0
        f += s
        if not last:  # the next half shift
            psi = s * (-b if stage == 3 else -0.5 * b)
            psi += a if stage == 3 else 0.5 * a
        weight = h if last else 0.5 * h
        g *= weight
        g += 1.0  # rho_i
        gp *= weight  # rho_i'
        s *= d
        s *= g
        s *= -p  # R_i' rho_i
        d *= c  # cos(u_i) d_i
        jac += d
        if not last:
            d *= -2.0 * b if stage == 3 else -b
            d += 2.0  # d_{i+1}
        c *= p
        c += m_r  # R_i
        gp *= c
        gp += s  # g_i'
        g *= c  # g_i
        phi += g
        dphi += gp
        del c, s
    f *= -b / 6.0
    f += a
    jac *= -b / 6.0
    phi *= h / 6.0
    dphi *= h / 6.0
    return f, jac, phi, dphi


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


def _curvature_bounds(beta: float, z: float) -> tuple[float, float]:
    """Upper bounds on |Phi''| and |phi''|, the second derivatives of the RK4
    angle map and radius increment, for a step with h p <= beta and
    h (|m_R| + p) <= z; both are about 4 beta for small beta and z.

    With D_i >= |du_i/dtheta| and E_i >= |d^2u_i/dtheta^2| (D_1 = 2,
    E_1 = 0; D_{2,3} = 2 + beta D_{1,2}, E_{2,3} = beta (D_{1,2}^2 + E_{1,2});
    D_4 = 2 + 2 beta D_3, E_4 = 2 beta (D_3^2 + E_3)), Phi'' =
    -(b/6) sum_i k_i (cos u_i u_i'' - sin u_i u_i'^2), k = (1, 2, 2, 1),
    is at most (beta/6) sum_i k_i (E_i + D_i^2).  For phi, |R_i| <=
    |m_R| + p, |R_i'| <= p D_i and |R_i''| <= p (D_i^2 + E_i), so the stage
    radii bound as A_i >= |rho_i|, A_i' >= |rho_i'|, A_i'' >= |rho_i''|
    (A_1 = 1, A_1' = A_1'' = 0; with w = (1/2, 1/2, 1), A_{i+1} =
    1 + w_i z A_i and A_{i+1}^(m) = w_i h|g_i^(m)|, where h|g_i'| <=
    beta D_i A_i + z A_i' and h|g_i''| <= beta (D_i^2 + E_i) A_i +
    2 beta D_i A_i' + z A_i''), and |phi''| <= 1/6 sum_i k_i h|g_i''|.
    """
    d, e = 2.0, 0.0
    rho, rho1, rho2 = 1.0, 0.0, 0.0
    angle = radius = 0.0
    for k, w, next_w in ((1.0, 0.5, 1.0), (2.0, 0.5, 1.0), (2.0, 1.0, 2.0), (1.0, 0.0, 0.0)):
        g1 = beta * d * rho + z * rho1
        g2 = beta * (d * d + e) * rho + 2.0 * beta * d * rho1 + z * rho2
        angle += k * beta * (d * d + e)
        radius += k * g2
        rho, rho1, rho2 = 1.0 + w * z * rho, w * g1, w * g2
        d, e = 2.0 + next_w * beta * d, next_w * beta * (d * d + e)
    return angle / 6.0, radius / 6.0


def _linear_scan(jm1: np.ndarray, res: np.ndarray):
    """Solve e_0 = 0, e_{n+1} = J_n e_n + r_n for n = 0..len(jm1) - 1, given
    J - 1.

    In blocks of _BLOCK steps, as _step_linear: within a block,
    e_{s+i+1} = Q_i (e_s + sum_{l <= i} r_l / Q_l), with Q the cumulative
    product of the block's J, and only the block starts e_s step in
    sequence.  Returns e, max|e| and the blocks' Q, for _log_growth; or
    None if a Q underflows or overflows, which ends as inf or nan in e.
    """
    import numpy as np
    n = len(jm1)
    m = min(_BLOCK, n)
    nb = -(-n // m)
    q = np.ones((nb, m))
    np.add(jm1, 1.0, out=q.ravel()[:n])
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
    return e, e_max, q


def _log_growth(q: np.ndarray) -> float:
    """The log of the largest product of consecutive J (every J positive),
    from _linear_scan's block products Q, which it overwrites.

    log Q offset by the earlier blocks is the running sum L of log J, and
    the largest product is exp(max_j (L_j - min(0, min_{k <= j} L_k))).
    """
    import numpy as np
    np.log(q, out=q)
    q[1:] += np.cumsum(q[:-1, -1])[:, None]  # the running sum L of log J
    low = np.minimum.accumulate(q.ravel())
    np.minimum(low, 0.0, out=low)
    return max(0.0, float((q.ravel() - low).max()))


def _directions(x: np.ndarray, y: np.ndarray, phase: float):
    """The unit vectors (X, Y) of the states (x, y) turned by -phase.

    Where a squared norm is not a normal float, each state is first scaled
    by 2^-k, k the binary exponent of max(|x|, |y|), which is exact and
    keeps its angle; a state of norm 0 gives nan.
    """
    import numpy as np
    rho = x * x + y * y
    if not (rho.min() >= 2.0 ** -968 and rho.max() < math.inf):
        scale = np.ldexp(1.0, -np.frexp(np.maximum(abs(x), abs(y)))[1])
        x, y = x * scale, y * scale
        rho = x * x + y * y
    np.sqrt(rho, out=rho)
    cp, sp = math.cos(phase), math.sin(phase)
    big_x = x * cp
    big_x += y * sp
    big_x /= rho
    big_y = y * cp
    big_y -= x * sp
    big_y /= rho
    return big_x, big_y


def _turns(big_x: np.ndarray, big_y: np.ndarray) -> np.ndarray:
    """Each step's turn from direction n to its successor, atan2(cross, dot),
    with the cross product formed from the step's increment so that it keeps
    the accuracy of the turn itself and the turns' roundings do not add up."""
    import numpy as np
    x0, y0, x1, y1 = big_x[:-1], big_y[:-1], big_x[1:], big_y[1:]
    return np.arctan2(x0 * (y1 - y0) - y0 * (x1 - x0), x0 * x1 + y0 * y1)


def _solve_angles(big_x: np.ndarray, big_y: np.ndarray, theta0: float, phase: float,
                  stages: tuple, beta: float, z: float):
    """Whole-sequence solve of theta_{n+1} = Phi(theta_n), theta_0 = theta0,
    as theta_n = thc_n + E_n: thc_n is the angle of the Cartesian RK4 state
    n, accumulated from theta0 by each step's turn between the states'
    directions (X, Y) (_directions, _turns), and E_n a small correction, so
    that no stage takes a sine of the full range of angles (_stage_sweep,
    whose arguments after E are stages = (a, b, bound, h, m_R, p)).

    Newton's method over the sequence: with residuals r_n =
    Phi(theta_n) - theta_{n+1} = F_n - turn_n - (E_{n+1} - E_n), F_n the
    increment of Phi, and J_n = Phi'(theta_n) at the current iterate, the
    correction solves e_{n+1} = J_n e_n + r_n, e_0 = 0 (_linear_scan).  The
    corrected sequence then differs from the recurrence's own solution
    by d, with d_0 = 0 and d_{n+1} = J_n d_n + Phi''(xi_n) (e_n + d_n)^2 / 2,
    so by at most the Newton remainder n max|Phi''| G max|e|^2 (beta
    bounds h p for max|Phi''|, G is the largest product of consecutive J)
    while that is at most 0.4 max|e|.  log G is bounded first by
    sum max(0, J_n - 1) >= sum max(0, log J_n), and by the exact running
    sum (_log_growth) only where that bound does not certify.  A pass is
    accepted when the remainder is also below 2^-54 max(1, max|theta|),
    below the rounding of theta itself, with max|theta| <= |theta0| +
    sum|turn| + max|E|; else it repeats, at most _NEWTON_PASSES times.

    The pass's one stage sweep also gives the radius increments phi and
    their slopes at the pass's angles, so at the corrected angles they are
    phi + phi' e to within |phi''| e^2 / 2 a step.  That moves each r_n by
    a relative n max|phi''| max|e|^2 / (2 min(1 + phi)) at most (z bounds
    h (|m_R| + p) for _curvature_bounds), which must be below 2^-54
    too, below the rounding of r; where only that fails, one more pass is
    taken.  Returns E, max|E| and the corrected phi, or None if a stage
    argument 2 (theta - phase) overflows, a J is not positive, the
    correction is not finite or no pass is accepted.
    """
    import numpy as np
    n = len(big_x) - 1
    angle_curv, radius_curv = _curvature_bounds(beta, z)
    big_e, e_bound, top = None, 0.0, None
    for n_pass in range(1, _NEWTON_PASSES + 2):
        f, jm1, phi, dphi = _stage_sweep(big_x[:-1], big_y[:-1], None if big_e is None else big_e[:-1],
                                         e_bound, *stages)
        if not jm1.min() > -1.0:  # a J not positive, nan included
            return None
        log_g = float(np.maximum(jm1, 0.0).sum())
        turn = _turns(big_x, big_y)
        if top is None:
            top = abs(theta0) + float(abs(turn).sum())  # bounds max|thc|
            if not math.isfinite(2.0 * (top + abs(phase))):
                return None
        f -= turn  # f is now the residual r
        if big_e is not None:
            f -= big_e[1:]
            f += big_e[:-1]
        del turn
        scan = _linear_scan(jm1, f)
        del f, jm1
        if scan is None:
            return None
        e, e_max, q = scan
        big_e = e if big_e is None else big_e + e
        e_bound = max(float(big_e.max()), -float(big_e.min()))
        limit = min(2.0 ** -54 * max(1.0, top + e_bound), 0.4 * e_max)
        remainder = n * angle_curv * e_max * e_max
        if not remainder * math.exp(min(log_g, 709.0)) <= limit:
            log_g = _log_growth(q)
        if remainder * math.exp(min(log_g, 709.0)) <= limit:
            if 0.5 * n * radius_curv * e_max * e_max <= 2.0 ** -54 * (1.0 + float(phi.min())):
                dphi *= e[:-1]
                phi += dphi
                return big_e, e_bound, phi
        elif n_pass >= _NEWTON_PASSES:
            return None
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
    # bound bounds each stage's shift |a - b sin u|
    stages = (h * m_t, h * p, step * (abs(m_t) + p), h, m_r, p)
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
            big_x, big_y = _directions(*_step_linear(
                lambda hs: _rk4_increment(cart.a11, cart.a12, cart.a21, cart.a22, hs),
                (norm * math.cos(theta0), norm * math.sin(theta0)), step, t_end), phase)
            solved = _solve_angles(big_x, big_y, theta0, phase, stages, step * p, step * (abs(m_r) + p))
        except (InvalidInputError, NumericFailureError):  # the Cartesian matrix or run overflows
            solved = None
        if solved is None:  # the loop's own directions, with no correction
            try:
                ths = _step_angles(theta0, m_t, p, phase, step, n_full, rem)
            except ValueError:
                raise NumericFailureError(f"angle overflowed before t = {t_end!r}") from None
            theta = np.fromiter(ths, float, len(ths))
            big_x, big_y = _directions(np.cos(theta), np.sin(theta), phase)
            solved = None, 0.0, _stage_sweep(big_x[:-1], big_y[:-1], None, 0.0, *stages)[2]
        big_e, e_bound, phi = solved
        r = _radii(r0, phi)
        u, v = r * big_x, r * big_y
        if big_e is not None:
            u, v = _turn(u, v, big_e, e_bound)
        cp, sp = math.cos(phase), math.sin(phase)  # turn back by +phase
        xs, ys = u * cp, v * cp
        xs -= v * sp
        ys += u * sp
    _check_finite(float(xs[-1]), float(ys[-1]), t_end)
    return _trajectory(_sample_times(step, t_end), xs, ys, step, "rk4_polar")
