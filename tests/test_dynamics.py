import math

import numpy as np
import pytest
import scipy.linalg

from reactlin import (
    AngleModPi,
    InapplicableError,
    InvalidInputError,
    Mat2,
    NonautConfig,
    NumericFailureError,
    QUARTER_TURN,
    RTParams,
    corotating_matrix,
    decompose,
    default_step,
    eigen_structure,
    integrate_linear,
    integrate_nonaut,
    integrate_polar,
    log_norm_slope,
    matrix_exponential,
    nonaut_matrix,
    ortho_structure,
    reconstruct,
    repulsion_window,
    rotate_conjugate,
    sweep_rotation_rates,
    transient_summary,
)
from reactlin import _polar, dynamics
from reactlin._polar import (
    _curvature_bounds,
    _directions,
    _linear_scan,
    _log_growth,
    _solve_angles,
    _stage_sweep,
    _turn,
)
from reactlin.dynamics import (
    _BLOCK,
    _MAX_ERROR_GAIN,
    _corotating_increment,
    _gain_bound,
    _grid,
    _powers,
    _rk4_increment,
    _sample_times,
    _step_linear,
)
from reactlin.spectra import ComplexPairEigen
from conftest import (
    A_SADDLE,
    A_SPIRAL,
    A_TRIANGULAR,
    angle_close,
    mat_close,
    max_speed,
    random_mat2,
    random_reactive_attractor,
)

SQRT13 = math.sqrt(13.0)


def rk4_reference(f, t, x, y, h):
    """One classical RK4 step of (x, y)' = f(t, x, y), stage by stage."""
    k1x, k1y = f(t, x, y)
    k2x, k2y = f(t + h / 2, x + h / 2 * k1x, y + h / 2 * k1y)
    k3x, k3y = f(t + h / 2, x + h / 2 * k2x, y + h / 2 * k2y)
    k4x, k4y = f(t + h, x + h * k3x, y + h * k3y)
    return (
        x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x),
        y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y),
    )


class TestRk4Kernel:
    @staticmethod
    def reference_columns(a11, a12, a21, a22, h):
        def f(_t, x, y):
            return a11 * x + a12 * y, a21 * x + a22 * y

        c1 = rk4_reference(f, 0.0, 1.0, 0.0, h)
        c2 = rk4_reference(f, 0.0, 0.0, 1.0, h)
        return c1[0], c2[0], c1[1], c2[1]

    def test_step_matrix_matches_stages_for_floats(self, rng):
        for _ in range(200):
            a = random_mat2(rng, -3, 3)
            h = float(rng.uniform(1e-4, 0.3))
            e = _rk4_increment(a.a11, a.a12, a.a21, a.a22, h)
            got = (1.0 + e[0], e[1], e[2], 1.0 + e[3])
            want = self.reference_columns(a.a11, a.a12, a.a21, a.a22, h)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14

    def test_zero_rate_corotating_increment_is_bit_identical(self, rng):
        # block powers would magnify even a 1-ulp gap between the two, and
        # `trajectory --k 0` must reproduce `trajectory` byte for byte
        for _ in range(200):
            a = random_mat2(rng, -5, 5)
            h = float(rng.uniform(1e-5, 0.3))
            want = _rk4_increment(a.a11, a.a12, a.a21, a.a22, h)
            assert _corotating_increment(a, 0.0, h) == want


def sequential_gap(xs, ys, x0, increments):
    """Largest gap between (xs, ys) and x <- x + E x stepped once per E in
    increments, relative to the sequential state's norm."""
    x, y = x0
    ref = [(x, y)]
    for e11, e12, e21, e22 in increments:
        x, y = x + (e11 * x + e12 * y), y + (e21 * x + e22 * y)
        ref.append((x, y))
    ref = np.array(ref)
    assert len(xs) == len(ys) == len(ref)
    gap = np.hypot(xs - ref[:, 0], ys - ref[:, 1])
    return (gap / np.hypot(ref[:, 0], ref[:, 1])).max()


class TestBlockStepping:
    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("n_full", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 10_000])
    def test_matches_sequential_steps(self, n_full, partial):
        a, step = A_SPIRAL, 1e-3
        t_end = (n_full + (0.37 if partial else 0.0)) * step

        def increment(h):
            return _rk4_increment(a.a11, a.a12, a.a21, a.a22, h)

        xs, ys = _step_linear(increment, (0.6, -0.8), step, t_end)
        increments = [increment(step)] * n_full
        if partial:
            increments.append(increment(t_end - n_full * step))
        ts = _sample_times(step, t_end)
        assert ts[-1] == t_end and len(ts) == len(xs)
        assert sequential_gap(xs, ys, (0.6, -0.8), increments) <= 1e-12

    @pytest.mark.parametrize(
        "a, x0, step, n_full",
        [
            (Mat2(-1.0, 0.0, 0.0, -1.0), (0.6, 0.8), 0.2, 1000),  # e^-51 per 256 steps
            (Mat2(-100.0, 0.0, 0.0, -1.0), (1.0, 0.0), 1e-3, 1000),  # fast axis only
            (Mat2(-1.0, -8.0, 0.0, -3.0), (0.6, 0.8), 0.05, 2000),
        ],
    )
    def test_coarse_step_on_fast_decay_keeps_relative_accuracy(self, a, x0, step, n_full):
        # a state that shrinks by many orders within 256 steps must still
        # be accurate relative to itself, as one-at-a-time stepping is
        traj = integrate_linear(a, x0, step, n_full * step)
        increments = [_rk4_increment(a.a11, a.a12, a.a21, a.a22, step)] * n_full
        assert sequential_gap(traj.x1, traj.x2, x0, increments) <= 1e-12

    def test_scalar_certificate_keeps_the_powers(self, rng, monkeypatch):
        # _powers returns the same array, bit for bit, whether the scalar
        # certificate holds the whole block or every power's gain is formed:
        # fine steps (certified), A_SPIRAL at h = 1e-3 (h speed 7e-3: whole
        # but not certified), a coarse step on a fast decay whose block must
        # shorten, and a step whose high powers overflow
        fine = [(a, 1e-3 / max_speed(a)) for a in [A_SPIRAL, A_TRIANGULAR] + [random_mat2(rng) for _ in range(20)]]
        table = [(a, h, True, True) for a, h in fine] + [
            (A_SPIRAL, 1e-3, False, True),
            (Mat2(-1.0, 0.0, 0.0, -1.0), 0.2, False, False),
            (Mat2(-1.0, -8.0, 0.0, -3.0), 0.05, False, False),
            (Mat2(800.0, 0.0, 0.0, -1.0), 1e-3, False, False),
        ]
        for a, h, certified, whole in table:
            e = _rk4_increment(a.a11, a.a12, a.a21, a.a22, h)
            assert (_gain_bound(*e) <= _MAX_ERROR_GAIN) is certified
            got = _powers(*e)
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_gain_bound", lambda *_: math.inf)
                want = _powers(*e)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert (got.shape[1] == _BLOCK) is whole

    def test_trajectory_shapes_take_the_scalar_certificate(self, rng):
        # steps of 1e-3 over the largest rate scale, spin rates up to that
        # scale, as the 1e4-step trajectories of the dyn-warm benchmark take
        for _ in range(200):
            a = random_mat2(rng)
            scale = 1.0 + max(abs(a.a11), abs(a.a12), abs(a.a21), abs(a.a22))
            k = float(rng.uniform(-1.0, 1.0)) * scale
            assert _gain_bound(*_rk4_increment(a.a11, a.a12, a.a21, a.a22, 1e-3 / scale)) <= _MAX_ERROR_GAIN
            assert _gain_bound(*_corotating_increment(a, k, 1e-3 / (scale + abs(k)))) <= _MAX_ERROR_GAIN

    def test_fast_growth_leaves_other_component_exact(self):
        # one step grows x1 2.2-fold: P^1024 and higher powers overflow,
        # and inf * 0 would turn the zero component into nan
        traj = integrate_linear(Mat2(800.0, 0.0, 0.0, -1.0), (0.0, 1.0), 1e-3, 10.0)
        assert np.all(traj.x1 == 0.0)
        assert np.all(np.isfinite(traj.x2)) and np.all(np.diff(traj.x2) < 0.0)
        assert traj.x2[-1] == pytest.approx(math.exp(-10.0), rel=1e-9)


class TestMatrixExponential:
    def test_time_zero_is_identity(self, rng):
        a = random_mat2(rng)
        assert mat_close(matrix_exponential(a, 0.0), Mat2(1, 0, 0, 1), 0.0)

    def test_quarter_period_of_rotation_field(self):
        e = matrix_exponential(QUARTER_TURN, math.pi / 2)
        assert mat_close(e, Mat2(0.0, -1.0, 1.0, 0.0), 1e-15)

    def test_diagonal(self):
        e = matrix_exponential(Mat2(-1.0, 0.0, 0.0, -3.0), 1.0)
        want = Mat2(math.exp(-1.0), 0.0, 0.0, math.exp(-3.0))
        assert mat_close(e, want, 1e-15)

    def test_semigroup_property(self, rng):
        for _ in range(100):
            a = random_mat2(rng, -3, 3)
            cap = 10.0 / max(a.max_abs(), 1.0)
            s, t = rng.uniform(-cap, cap, size=2)
            left = matrix_exponential(a, s + t)
            fs = matrix_exponential(a, s)
            ft = matrix_exponential(a, t)
            # opposite-sign s, t cancel large factors; error scales with them
            tol = 1e-10 * max(1.0, fs.max_abs() * ft.max_abs())
            assert mat_close(left, fs @ ft, tol)

    def test_against_scipy_expm(self, rng):
        for _ in range(200):
            a = random_mat2(rng, -3, 3)
            t = rng.uniform(-1.5, 1.5)
            ours = matrix_exponential(a, t).as_array()
            ref = scipy.linalg.expm(a.as_array() * t)
            assert np.abs(ours - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())

    def test_stiff_matrices_against_scipy_expm(self):
        # w|t| of 721 to 1499: cosh(wt) alone overflows, e^{At} is small
        assert mat_close(matrix_exponential(Mat2(-1.0, 0.0, 0.0, -1000.0), 2.0),
                         Mat2(math.exp(-2.0), 0.0, 0.0, 0.0), 1e-17)
        for a, t in [
            (rotate_conjugate(Mat2(-1.0, 0.0, 0.0, -1000.0), 0.3), 2.0),
            (Mat2(-2.0, 7.0, 0.0, -3000.0), 1.0),
            (Mat2(-1500.0, 4.0, -3.0, -2.0), 1.0),
            (Mat2(-500.0, 400.0, 300.0, -700.0), 2.0),
            (rotate_conjugate(Mat2(-0.5, 20.0, 0.0, -2000.0), 1.1), 0.8),
        ]:
            ours = matrix_exponential(a, t).as_array()
            ref = scipy.linalg.expm(a.as_array() * t)
            assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_defective_case_is_exact(self):
        # disc = 0 exactly: e^{At} = e^{2t} (I + t N)
        a = Mat2(2.0, 1.0, 0.0, 2.0)
        e = matrix_exponential(a, 1.7)
        f = math.exp(3.4)
        assert mat_close(e, Mat2(f, 1.7 * f, 0.0, f), 1e-12 * f)

    def test_overflow_is_numeric_failure(self):
        # e^800 is beyond double range, on the series and the cosh routes;
        # the last det A overflows, so the cos route sees w = inf
        for a in (Mat2(800.0, 0.0, 0.0, 800.0), Mat2(800.0, 0.0, 0.0, -800.0),
                  Mat2(0.3617859540231656, -2.0, 1e308, 0.30986385989495724)):
            with pytest.raises(NumericFailureError):
                matrix_exponential(a, 1.0)

    def test_names_the_time_it_cannot_use(self):
        for bad, message in (("x", "time='x' is not a real number"),
                             (10**400, "time is too large for a float"),
                             (math.nan, "time=nan is not finite")):
            with pytest.raises(InvalidInputError) as exc:
                matrix_exponential(A_TRIANGULAR, bad)
            assert str(exc.value) == message


class TestIntegrateLinear:
    def test_scalar_exponential(self):
        traj = integrate_linear(Mat2(-0.5, 0, 0, -0.5), (1.0, 0.0), 1e-3, 2.0)
        assert np.allclose(traj.x1, np.exp(-0.5 * traj.t), atol=1e-10)
        assert np.allclose(traj.x2, 0.0)

    def test_pure_rotation_stays_on_circle(self):
        traj = integrate_linear(QUARTER_TURN, (1.0, 0.0), 1e-3, 2 * math.pi)
        assert np.abs(traj.r - 1.0).max() <= 1e-10
        assert np.allclose(traj.x1, np.cos(traj.t), atol=1e-9)
        assert np.allclose(traj.x2, np.sin(traj.t), atol=1e-9)

    def test_fig1_trajectory_peaks_at_rho_max(self):
        # unit start at the arc entrance, about (-0.4, 0.9)
        th0 = 1.9465079800650789
        traj = integrate_linear(
            A_TRIANGULAR, (math.cos(th0), math.sin(th0)), 1e-4, 2.0
        )
        assert traj.r.max() == pytest.approx(1.6626800963141626, abs=1e-3)

    def test_agrees_with_matrix_exponential(self, rng):
        step = 2e-4
        for _ in range(100):
            a = random_mat2(rng, -2, 2)
            x0 = rng.normal(size=2)
            if np.hypot(*x0) < 0.1:
                continue
            traj = integrate_linear(a, tuple(x0), step, 1.0)
            rho1 = decompose(a).rho1
            norm0 = float(np.hypot(*x0))
            for idx in (len(traj.t) // 3, len(traj.t) - 1):
                t = float(traj.t[idx])
                want = matrix_exponential(a, t).apply(*x0)
                err = math.hypot(traj.x1[idx] - want[0], traj.x2[idx] - want[1])
                assert err <= 1e-8 * norm0 * math.exp(rho1 * t)

    def test_grid_and_partial_final_step(self):
        traj = integrate_linear(Mat2(0, -1, 1, 0), (1.0, 0.0), 1e-3, 0.0105)
        assert traj.t[-1] == pytest.approx(0.0105)
        assert np.all(np.diff(traj.t) > 0)
        assert np.allclose(np.diff(traj.t)[:-1], 1e-3)
        assert np.all(traj.r > 0)

    def test_unwrapped_theta_is_within_an_ulp_of_the_samples(self):
        # 36,000 steps of a growing spiral, theta reaching 143 over 23
        # turns: every rebuilt angle against mpmath's atan2 of the same
        # sample, unwrapped by whole turns at 40 digits, is off by at most
        # an ulp of theta plus arctan2's own rounding (an ulp of pi)
        mpmath = pytest.importorskip("mpmath")
        traj = integrate_linear(Mat2(1.5, -4.0, 4.0, 0.5), (1.0, 0.0), 1e-3, 36.0)
        theta = traj.theta
        assert theta[-1] > 140.0
        worst = 0.0
        with mpmath.workdps(40):
            tau, turns, prev = 2 * mpmath.pi, 0, None
            for x, y, got, ulp in zip(traj.x1.tolist(), traj.x2.tolist(), theta.tolist(),
                                      np.spacing(np.abs(theta)).tolist()):
                a = mpmath.atan2(y, x)
                if prev is not None:
                    turns += int(mpmath.nint((prev - a) / tau))
                prev = a
                worst = max(worst, float(abs(got - (a + turns * tau))) / (ulp + np.spacing(np.pi)))
        assert worst <= 1.0

    def test_overflow_is_numeric_failure(self):
        with pytest.raises(NumericFailureError):
            integrate_linear(Mat2(800.0, 0.0, 0.0, 800.0), (1.0, 0.0), 1e-3, 1.0)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            integrate_linear(A_TRIANGULAR, (0.0, 0.0), 1e-3, 1.0)
        with pytest.raises(InvalidInputError):
            integrate_linear(A_TRIANGULAR, (1.0, 0.0), -1e-3, 1.0)
        with pytest.raises(InvalidInputError):
            integrate_linear(A_TRIANGULAR, (1.0, 0.0), 1e-3, 0.0)


def polar_rk4_reference(rt, r0, theta0, step, t_end, mp=None):
    """Radii and angles of RK4 on dr = r R(theta), dtheta = T(theta),
    stage by stage, one step at a time: in floats, or, given an mpmath
    module, exactly at its working precision from the float parameters
    and steps, rounded to floats at the end.  In floats theta is carried
    as hi + lo, each step's increment added by two-sum, so that the
    rounding of theta does not add up along the run."""
    num, cos, sin = (float, math.cos, math.sin) if mp is None else (mp.mpf, mp.cos, mp.sin)
    m_r, m_t, p = num(rt.m_r), num(rt.m_t), num(rt.p)
    phase = num(rt.theta_r.value if rt.theta_r is not None else 0.0)

    def rk4(r, hi, lo, h):
        u = 2.0 * ((hi - phase) + lo)
        k1r = r * (m_r + p * cos(u))
        k1t = m_t - p * sin(u)
        u = 2.0 * ((hi - phase) + (lo + 0.5 * h * k1t))
        k2r = (r + 0.5 * h * k1r) * (m_r + p * cos(u))
        k2t = m_t - p * sin(u)
        u = 2.0 * ((hi - phase) + (lo + 0.5 * h * k2t))
        k3r = (r + 0.5 * h * k2r) * (m_r + p * cos(u))
        k3t = m_t - p * sin(u)
        u = 2.0 * ((hi - phase) + (lo + h * k3t))
        k4r = (r + h * k3r) * (m_r + p * cos(u))
        k4t = m_t - p * sin(u)
        inc = h / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        total = hi + inc  # two-sum: total + err = hi + inc exactly
        back = total - hi
        lo += (hi - (total - back)) + (inc - back)
        hi = total + lo
        return r + h / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r), hi, lo - (hi - total)

    n_full = int(math.floor(t_end / step + 1e-9))
    r, hi, lo = num(r0), num(theta0), num(0.0)
    rs, ths = [r], [hi]
    for h in [step] * n_full + [t_end - n_full * step]:
        r, hi, lo = rk4(r, hi, lo, num(h))
        rs.append(r)
        ths.append(hi + lo)
    return np.array(rs, dtype=float), np.array(ths, dtype=float)


class TestIntegratePolar:
    def test_matches_stagewise_reference(self, rng):
        # 1e4 fine steps, or 300 coarse ones, plus a partial one; the loop
        # shifts each stage's angle by h k instead of re-forming it, and the
        # radius is a product of per-step factors, so both agree with the
        # stagewise arithmetic to rounding
        mats = [A_SPIRAL, A_SADDLE] + [random_mat2(rng) for _ in range(20)]
        for h_speed, n_steps in ((1e-3, 10_000), (0.1, 300)):
            for a in mats:
                rt = decompose(a)
                step = h_speed / max(max_speed(a), 1.0)
                t_end = (n_steps + 0.37) * step
                th0 = float(rng.uniform(-3.0, 3.0))
                traj = integrate_polar(rt, 1.5, th0, step, t_end)
                r, th = polar_rk4_reference(rt, 1.5, th0, step, t_end)
                assert len(traj.t) == len(r) == n_steps + 2
                gap = np.hypot(traj.x1 - r * np.cos(th), traj.x2 - r * np.sin(th))
                assert (gap / r).max() <= 1e-12
                assert np.abs(traj.theta - th).max() <= 1e-13

    def test_theta_is_rebuilt_from_the_samples(self):
        # the loop steps theta0 = 10 as given; Trajectory.theta comes from
        # the Cartesian samples, so it starts reduced into (-pi, pi]
        traj = integrate_polar(decompose(A_SPIRAL), 1.0, 10.0, 1e-3, 0.01)
        assert traj.theta[0] == pytest.approx(10.0 - 4.0 * math.pi, abs=1e-15)
        assert np.abs(np.diff(traj.theta)).max() < 0.1

    def test_matches_exact_rk4(self, rng):
        # the same RK4 map evaluated to 30 digits: what the float loop
        # adds is rounding alone, 2000 steps plus a partial one
        mpmath = pytest.importorskip("mpmath")
        for a in [A_SPIRAL, A_SADDLE, random_mat2(rng), random_mat2(rng)]:
            rt = decompose(a)
            step = 1e-3 / max(max_speed(a), 1.0)
            t_end = (2000 + 0.37) * step
            th0 = float(rng.uniform(-3.0, 3.0))
            traj = integrate_polar(rt, 1.5, th0, step, t_end)
            with mpmath.workdps(30):
                r, th = polar_rk4_reference(rt, 1.5, th0, step, t_end, mp=mpmath)
            assert np.abs(traj.theta - th).max() <= 1e-13
            assert (np.abs(traj.r - r) / r).max() <= 1e-12

    def test_flat_curves_fix_the_angle(self):
        rt = decompose(Mat2(-0.7, 0, 0, -0.7))
        traj = integrate_polar(rt, 2.0, 0.3, 1e-3, 1.0)
        assert np.allclose(traj.r, 2.0 * np.exp(-0.7 * traj.t), atol=1e-9)
        assert np.allclose(traj.theta, 0.3, atol=1e-12)

    def test_angle_flows_to_attracting_eigendirection(self):
        rt = decompose(A_SADDLE)
        eig = eigen_structure(rt)
        traj = integrate_polar(rt, 1.0, eig.theta1.value + 0.9, 1e-3, 12.0)
        assert angle_close(float(traj.theta[-1]), eig.theta1.value, 1e-4)

    def test_spiral_mean_angular_speed(self):
        # averaged over whole revolutions the angular speed is the
        # geometric mean of the extreme angular velocities
        rt = decompose(A_SPIRAL)
        t_end = 3 * 2 * math.pi / math.sqrt(8.71)
        traj = integrate_polar(rt, 1.0, 0.2, 1e-3, t_end)
        mean_speed = float(traj.theta[-1] - traj.theta[0]) / t_end
        assert mean_speed == pytest.approx(math.sqrt(8.71), rel=1e-6)

    def test_matches_cartesian_integrator(self, rng):
        for _ in range(100):
            a = random_mat2(rng)
            rt = decompose(a)
            t_end = 5.0 / max_speed(a)
            th0 = rng.uniform(0, 2 * math.pi)
            cart = integrate_linear(a, (math.cos(th0), math.sin(th0)), 1e-4, t_end)
            pol = integrate_polar(rt, 1.0, th0, 1e-4, t_end)
            gap = np.hypot(cart.x1 - pol.x1, cart.x2 - pol.x2)
            assert (gap / cart.r).max() <= 1e-6

    def test_overflow_is_numeric_failure(self):
        with pytest.raises(NumericFailureError):
            integrate_polar(decompose(Mat2(800.0, 0.0, 0.0, 800.0)), 1.0, 0.0, 1e-3, 10.0)

    def test_input_validation(self):
        rt = decompose(A_SPIRAL)
        with pytest.raises(InvalidInputError):
            integrate_polar(rt, 0.0, 0.0, 1e-3, 1.0)
        with pytest.raises(InvalidInputError):
            integrate_polar(rt, 1.0, float("nan"), 1e-3, 1.0)


class TestPolarAngleSolve:
    """The whole-sequence Newton solve of integrate_polar's angle recurrence."""

    @pytest.fixture
    def loop_calls(self, monkeypatch):
        # records each fall back to stepping the angle one step at a time
        calls = []
        step_angles = _polar._step_angles
        monkeypatch.setattr(_polar, "_step_angles",
                            lambda *args: calls.append(args) or step_angles(*args))
        return calls

    @staticmethod
    def check_against_reference(a, r0, th0, step, n_steps, state_tol, theta_tol):
        rt = decompose(a)
        t_end = (n_steps + 0.37) * step
        traj = integrate_polar(rt, r0, th0, step, t_end)
        r, th = polar_rk4_reference(rt, r0, th0, step, t_end)
        assert len(traj.t) == len(r) == n_steps + 2
        gap = np.hypot(traj.x1 - r * np.cos(th), traj.x2 - r * np.sin(th))
        assert (gap / r).max() <= state_tol
        assert np.abs(traj.theta - (th - th[0] + traj.theta[0])).max() <= theta_tol

    def test_long_runs_are_solved_whole(self, loop_calls, monkeypatch):
        # 1e5 steps, ten times the stagewise test's, at ten times its state
        # bound, whose rounding grows with the step count; theta is at its
        # bound, as neither side lets theta's roundings add up.  On the
        # spiral the cheap growth bound does not certify, so the exact one
        # is taken
        exact = []
        log_growth = _polar._log_growth
        monkeypatch.setattr(_polar, "_log_growth", lambda q: exact.append(q.size) or log_growth(q))
        for a in (A_SPIRAL, A_TRIANGULAR):
            step = 1e-3 / max_speed(a)
            self.check_against_reference(a, 1.0, 0.4, step, 100_000, 1e-11, 1e-13)
            if a is A_SPIRAL:
                assert exact
        assert not loop_calls

    def test_coarse_steps_take_the_loop(self, loop_calls):
        # at h speed = 2 no Newton pass is certified, so theta is stepped
        for a in (A_SPIRAL, A_TRIANGULAR):
            step = 2.0 / max_speed(a)
            self.check_against_reference(a, 1.0, 0.4, step, 200, 1e-12, 1e-12)
        assert len(loop_calls) == 2

    def test_flat_amplitude(self, loop_calls):
        # p = 0: Phi(theta) = theta + h m_T is linear, so one pass is exact
        for a in (Mat2(-0.7, -3.0, 3.0, -0.7), Mat2(-0.7, 0.0, 0.0, -0.7)):
            assert decompose(a).p == 0.0
            self.check_against_reference(a, 2.0, 0.3, 1e-3, 10_000, 1e-12, 1e-13)
        assert not loop_calls

    def test_decaying_run_whose_guess_underflows(self, loop_calls):
        # a Cartesian run from a unit vector underflows (to subnormals, and
        # for the spiral to 0), the polar run from r0 = 1e300 does not.  The
        # polar route starts its own Cartesian run near e^{-sigma t_end / 2},
        # so the angle is still solved whole, and it is the recurrence's
        for a, n_steps in ((Mat2(-50.0, 0.0, 0.0, -60.0), 8700), (Mat2(-50.0, 20.0, -20.0, -60.0), 8700)):
            step = 0.1 / max_speed(a)
            cart = integrate_linear(a, (math.cos(0.3), math.sin(0.3)), step, (n_steps + 0.37) * step)
            assert cart.r[-1] < 2.2e-308
            self.check_against_reference(a, 1e300, 0.3, step, n_steps, 1e-12, 1e-12)
        assert not loop_calls

    def test_growing_run_whose_guess_overflows(self, loop_calls):
        # the Cartesian states from a unit vector pass 1e154, where their
        # squared norms overflow; the polar route's own run starts lower
        # and stays in range, so the angle is solved whole.  Over the 2e4
        # steps theta reaches 1764 (ulp 2.3e-13)
        a = Mat2(1.5, -4.0, 4.0, 0.5)
        assert decompose(a).p > 0.0
        step = 0.1 / max_speed(a)
        self.check_against_reference(a, 1.0, 0.3, step, 20_000, 5e-11, 5e-11)
        assert not loop_calls

    def test_run_beyond_the_squared_norm_range_is_rescaled(self, loop_calls):
        # the norm grows by e^800 over the run, so even from its centred
        # start the Cartesian states' squared norms leave the float range at
        # both ends; each state is scaled by a power of two instead, which
        # keeps its angle, and the angle is still solved whole.  theta
        # reaches 3200 (ulp 4.5e-13)
        a = Mat2(1.5, -4.0, 4.0, 0.5)
        step = 0.1 / max_speed(a)
        n_steps = int(800.0 / step)
        self.check_against_reference(a, 1e-300, 0.3, step, n_steps, 1e-11, 1e-10)
        assert not loop_calls

    def test_perturbed_guess_is_corrected_or_refused(self, rng):
        # the Cartesian states only set the speed: each turned by 1e-3 rad
        # more (the first kept), they give the same angles thc + E to 1e-13,
        # or no answer at all
        solved = 0
        for a in [A_SPIRAL, A_SADDLE] + [random_mat2(rng) for _ in range(10)]:
            rt = decompose(a)
            step = 1e-3 / max(max_speed(a), 1.0)
            t_end = (2000 + 0.37) * step
            th0 = float(rng.uniform(-3.0, 3.0))
            n_full, rem = _grid(step, t_end)
            h = np.append(np.full(n_full, step), rem)
            phase = rt.theta_r.value if rt.theta_r is not None else 0.0
            stages = (h * rt.m_t, h * rt.p, step * (abs(rt.m_t) + rt.p), h, rt.m_r, rt.p)
            args = (th0, phase, stages, step * rt.p, step * (abs(rt.m_r) + rt.p))
            cart = integrate_linear(reconstruct(rt), (math.cos(th0), math.sin(th0)), step, t_end)
            x, y = cart.x1, cart.x2
            want = _solve_angles(*_directions(x, y, phase), *args)[0]
            for off in (np.full(n_full + 2, 1e-3), 1e-3 * np.sin(np.arange(n_full + 2))):
                off[0] = 0.0
                xo, yo = x * np.cos(off) - y * np.sin(off), x * np.sin(off) + y * np.cos(off)
                got = _solve_angles(*_directions(xo, yo, phase), *args)
                if got is not None:
                    solved += 1
                    assert np.abs(got[0] + off - want).max() <= 1e-13
        assert solved > 0

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_linear_scan_matches_sequential(self, rng, n):
        # e_{k+1} = J_k e_k + r_k one step at a time, and the largest product
        # of consecutive J by brute force over every run (with every J > 1,
        # the whole sequence), which the cheap bound sum max(0, J - 1) holds
        for lo, hi in ((0.5, 1.8), (1.0, 1.5)):
            jm1, res = rng.uniform(lo - 1.0, hi - 1.0, n), rng.normal(size=n)
            jac = jm1 + 1.0
            e, e_max, q = _linear_scan(jm1, res)
            log_g = _log_growth(q)
            want = [0.0]
            for j, r in zip(jac, res):
                want.append(j * want[-1] + r)
            assert np.abs(e - want).max() <= 1e-12 * np.abs(want).max()
            assert e_max == np.abs(e).max()
            run = np.append(0.0, np.cumsum(np.log(jac)))
            runs = np.triu(run[None, :] - run[:, None])  # [i, j]: log of J_i ... J_{j-1}
            assert log_g == pytest.approx(runs.max(), rel=1e-12, abs=1e-12)
            assert np.maximum(jm1, 0.0).sum() >= log_g

    def test_angle_overflow_is_numeric_failure(self):
        # 2 (theta - theta_R) overflows: math.sin(inf) raised ValueError
        for th0 in (1e308, -1e308):
            with pytest.raises(NumericFailureError, match="angle overflowed"):
                integrate_polar(decompose(A_SPIRAL), 1.0, th0, 1e-3, 0.01)

    @pytest.mark.parametrize("beta", [1e-3, 0.1, 0.5, 1.0])
    def test_curvature_bound_holds(self, beta):
        # Phi'' and phi'' by central differences of the sweep's increments
        # Phi(theta) - theta and phi (truncation ~ delta^2, rounding ~
        # eps/delta^2, both far below the bounds), over a grid of theta,
        # shifts a = h m_T and z = h (|m_R| + p), with h = 1; and
        # J = Phi', dphi/dtheta against central differences with a finer delta
        theta = np.linspace(0.0, math.pi, 2001)
        worst_angle = 0.0
        for z, sign in ((beta, 1.0), (2.0 * beta, 1.0), (2.0 * beta, -1.0), (4.0 * beta, -1.0)):
            m_r = sign * (z - beta)
            angle_bound, radius_bound = _curvature_bounds(beta, z)
            worst_radius = 0.0
            for a in (0.0, 0.5 * beta, -2.0 * beta, 3.0 * beta):
                def sweep(delta):
                    u = theta + delta - 0.2  # the direction at theta - phase
                    return _stage_sweep(np.cos(u), np.sin(u), None, 0.0, a, beta, abs(a) + beta, 1.0, m_r, beta)
                (f0, jm1, phi0, dphi), (f1, _, phi1, _), (f2, _, phi2, _) = sweep(0.0), sweep(-1e-3), sweep(1e-3)
                (f3, _, phi3, _), (f4, _, phi4, _) = sweep(-1e-5), sweep(1e-5)
                worst_angle = max(worst_angle, np.abs(f1 - 2.0 * f0 + f2).max() / 1e-6)
                worst_radius = max(worst_radius, np.abs(phi1 - 2.0 * phi0 + phi2).max() / 1e-6)
                assert np.abs(jm1 - (f4 - f3) / 2e-5).max() <= 1e-6
                assert np.abs(dphi - (phi4 - phi3) / 2e-5).max() <= 1e-8 * (1.0 + np.abs(dphi).max())
            assert worst_radius <= radius_bound
            if beta <= 1e-3 and z == beta:  # about 4 beta to first order, and tight there
                assert worst_radius >= 0.99 * radius_bound
        assert worst_angle <= angle_bound
        if beta <= 1e-3:  # the bound is 4 beta to first order, and tight there
            assert worst_angle >= 0.99 * angle_bound

    def test_small_turns_match_numpy(self, rng):
        # the Taylor series of _turn at each number of terms, and np.cos /
        # np.sin beyond them, against numpy, whose own side rounds u + d
        for bound in (1e-15, 4e-6, 1e-3, 1e-2, 0.05, 0.3, 3.0, 1e300):
            d = rng.uniform(-1.0, 1.0, 1000) * min(bound, 1.0)
            u = rng.uniform(-4.0, 4.0, 1000)
            c, s = _turn(np.cos(u), np.sin(u), d.copy(), bound)
            assert np.abs(c - np.cos(u + d)).max() <= 2.0 ** -50
            assert np.abs(s - np.sin(u + d)).max() <= 2.0 ** -50

    def test_radius_under_a_constant_factor_does_not_drift(self):
        # p = 0: every step multiplies r by the same factor
        # f = 1 + z + z^2/2 + z^3/6 + z^4/24, z = h m_R, so r_n = r0 f^n.  A
        # cumulative product of fl(f) repeats the rounding of f at every
        # step (3.0e-12 off at 1e5 steps); the split factor does not
        mpmath = pytest.importorskip("mpmath")
        for a in (Mat2(-0.7, -3.0, 3.0, -0.7), Mat2(-0.7, 0.0, 0.0, -0.7)):
            rt = decompose(a)
            traj = integrate_polar(rt, 2.0, 0.3, 1e-3, 100_000 * 1e-3)
            assert len(traj.t) == 100_001
            picks = list(range(0, 100_001, 997)) + [100_000]
            with mpmath.workdps(40):
                z = mpmath.mpf(1e-3) * mpmath.mpf(rt.m_r)
                f = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
                want = np.array([float(2 * f ** k) for k in picks])
            assert (np.abs(traj.r[picks] - want) / want).max() <= 1e-13


class TestNonautMatrices:
    def test_time_zero_and_full_revolution(self):
        cfg = NonautConfig(A_SPIRAL, -3.0)
        assert mat_close(nonaut_matrix(cfg, 0.0), A_SPIRAL, 0.0)
        full = nonaut_matrix(cfg, 2 * math.pi / 3.0)
        assert mat_close(full, A_SPIRAL, 1e-13)

    def test_frozen_matrices_share_invariants(self, rng):
        cfg = NonautConfig(A_SPIRAL, -2.5)
        for t in rng.uniform(0, 10, size=20):
            rt = decompose(nonaut_matrix(cfg, float(t)))
            assert rt.rho1 == pytest.approx(0.7, abs=1e-12)
            assert rt.p == pytest.approx(2.7, abs=1e-12)

    def test_corotating_examples(self):
        assert mat_close(
            corotating_matrix(NonautConfig(A_SPIRAL, -4.0)),
            Mat2(0.7, 0.0, 0.0, -4.7),
            1e-15,
        )
        assert mat_close(
            corotating_matrix(NonautConfig(A_SPIRAL, 0.0)), A_SPIRAL, 0.0
        )
        slow = corotating_matrix(NonautConfig(A_SPIRAL, -1.0))
        eig = eigen_structure(decompose(slow))
        assert isinstance(eig, ComplexPairEigen)
        assert eig.re < 0

    def test_corotating_shifts_tangential_midline(self, rng):
        cfg = NonautConfig(A_SPIRAL, rng.uniform(-6, 6))
        rt_a = decompose(cfg.base)
        rt_c = decompose(corotating_matrix(cfg))
        assert rt_c.m_r == pytest.approx(rt_a.m_r, abs=1e-12)
        assert rt_c.m_t == pytest.approx(rt_a.m_t + cfg.k, abs=1e-12)
        assert rt_c.p == pytest.approx(rt_a.p, abs=1e-12)

    def test_config_requires_reactive_attractor(self):
        with pytest.raises(InapplicableError):
            NonautConfig(Mat2(-3.0, 0.1, 0.0, -3.0), 1.0)

    def test_config_names_the_rate_it_cannot_use(self):
        for bad, message in (("x", "rotation rate k='x' is not a real number"),
                             (10**400, "rotation rate k is too large for a float"),
                             (math.inf, "rotation rate k=inf is not finite")):
            with pytest.raises(InvalidInputError) as exc:
                NonautConfig(A_SPIRAL, bad)
            assert str(exc.value) == message
        assert type(NonautConfig(A_SPIRAL, 2).k) is float


class TestRepulsionWindow:
    def test_spiral_window(self):
        lo, hi = repulsion_window(A_SPIRAL)
        assert lo == pytest.approx(-5.813835714721706, rel=1e-12)
        assert hi == pytest.approx(-2.186164285278294, rel=1e-12)

    def test_triangular_window(self):
        lo, hi = repulsion_window(A_TRIANGULAR)
        assert lo == pytest.approx(-(4 + SQRT13), rel=1e-12)
        assert hi == pytest.approx(-(4 - SQRT13), rel=1e-12)

    def test_boundary_rate_gives_zero_eigenvalue(self):
        lo, hi = repulsion_window(A_SPIRAL)
        for k in (lo, hi):
            c = corotating_matrix(NonautConfig(A_SPIRAL, k))
            assert abs(c.det()) <= 1e-10

    def test_inside_saddle_outside_attracting(self, rng):
        lo, hi = repulsion_window(A_SPIRAL)
        for k in np.linspace(lo + 0.2, hi - 0.2, 5):
            c = corotating_matrix(NonautConfig(A_SPIRAL, float(k)))
            eigs = np.linalg.eigvals(c.as_array())
            assert eigs.real.max() > 0
        for k in (lo - 0.3, hi + 0.3, 0.0, -8.0):
            c = corotating_matrix(NonautConfig(A_SPIRAL, float(k)))
            eigs = np.linalg.eigvals(c.as_array())
            assert eigs.real.max() < 0

    def test_equals_the_negated_orthovalues(self, rng):
        for a in [A_SPIRAL, A_TRIANGULAR] + [random_reactive_attractor(rng) for _ in range(50)]:
            ortho = ortho_structure(decompose(a))
            assert repulsion_window(a) == (-ortho.mu1, -ortho.mu2)

    def test_inapplicable(self):
        # the second is a reactive attractor whose arc ends tie (p = |m_R|)
        tie = reconstruct(RTParams(-1.0, 5.0, 1.0 + 1e-12, AngleModPi(0.3)))
        for a in (Mat2(-3.0, 0.1, 0.0, -3.0), tie):
            with pytest.raises(InapplicableError):
                repulsion_window(a)


class TestIntegrateNonaut:
    def test_zero_rate_matches_linear(self):
        cfg = NonautConfig(A_SPIRAL, 0.0)
        a = integrate_nonaut(cfg, (1.0, 0.5), 1e-3, 2.0)
        b = integrate_linear(A_SPIRAL, (1.0, 0.5), 1e-3, 2.0)
        assert np.abs(a.x1 - b.x1).max() <= 1e-13 * np.abs(b.x1).max()
        assert np.abs(a.x2 - b.x2).max() <= 1e-13 * np.abs(b.x2).max()

    def test_resonant_rate_grows_like_corotating_eigenvalue(self):
        traj = integrate_nonaut(NonautConfig(A_SPIRAL, -4.0), (1.0, 0.0), 1e-3, 20.0)
        slope = log_norm_slope(traj.t, np.log(traj.r))
        assert slope == pytest.approx(0.7, abs=5e-3)

    def test_detuned_rate_decays(self):
        traj = integrate_nonaut(NonautConfig(A_SPIRAL, -1.0), (1.0, 0.0), 1e-3, 20.0)
        slope = log_norm_slope(traj.t, np.log(traj.r))
        assert slope < -0.1

    def test_norm_matches_corotating_frame(self):
        for k in (-4.0, -1.0):
            cfg = NonautConfig(A_SPIRAL, k)
            x = integrate_nonaut(cfg, (1.0, 0.0), 2.5e-4, 20.0)
            y = integrate_linear(corotating_matrix(cfg), (1.0, 0.0), 2.5e-4, 20.0)
            rel = np.abs(x.r - y.r) / x.r
            assert rel.max() <= 1e-6

    def test_matches_stagewise_rk4_with_partial_step(self):
        # the co-rotating step matrix must reproduce RK4 of B_k(t) itself,
        # including the final partial step from a t0 that is not 0
        cfg = NonautConfig(A_SPIRAL, -3.3)
        step, t_end = 1e-2, 2.0037
        traj = integrate_nonaut(cfg, (0.6, -0.8), step, t_end)

        def f(t, x, y):
            return nonaut_matrix(cfg, t).apply(x, y)

        x, y = 0.6, -0.8
        ts, xs, ys = [0.0], [x], [y]
        n_full = int(t_end / step)
        for i in range(n_full):
            x, y = rk4_reference(f, i * step, x, y, step)
            ts.append((i + 1) * step)
            xs.append(x)
            ys.append(y)
        x, y = rk4_reference(f, n_full * step, x, y, t_end - n_full * step)
        ts.append(t_end)
        xs.append(x)
        ys.append(y)
        assert traj.t[-1] == t_end and traj.t[-1] - traj.t[-2] < step
        assert np.array_equal(traj.t, np.array(ts))
        assert np.abs(traj.x1 - np.array(xs)).max() <= 1e-12
        assert np.abs(traj.x2 - np.array(ys)).max() <= 1e-12

    def test_overflow_is_numeric_failure(self):
        # inside the repulsion window the norm grows until it overflows
        with pytest.raises(NumericFailureError):
            integrate_nonaut(NonautConfig(A_SPIRAL, -4.0), (1.0, 0.0), 0.05, 2000.0)


class TestSweep:
    def test_quick_window_detection(self):
        res = sweep_rotation_rates(A_SPIRAL, -8.0, 0.0, 33, step=1e-2, t_end=30.0)
        lo, hi = res.analytic_window
        assert res.empirical_window is not None
        assert abs(res.empirical_window[0] - lo) <= 0.25
        assert abs(res.empirical_window[1] - hi) <= 0.25
        for pt in res.points:
            if lo + 0.3 < pt.k < hi - 0.3:
                assert pt.growing
            if pt.k < lo - 0.3 or pt.k > hi + 0.3:
                assert not pt.growing

    def test_range_outside_window_all_decaying(self):
        res = sweep_rotation_rates(A_SPIRAL, -1.5, 0.0, 7, step=1e-2, t_end=20.0)
        assert res.empirical_window is None
        assert res.max_abs_boundary_error is None
        assert all(not pt.growing for pt in res.points)

    def test_requires_reactive_attractor(self):
        with pytest.raises(InapplicableError):
            sweep_rotation_rates(Mat2(-3.0, 0.1, 0.0, -3.0), -8.0, 0.0, 5)

    def test_slopes_fit_the_exact_norm(self):
        # t_end / step <= 512 puts a sample at every multiple of step
        step, t_end = 0.05, 20.0
        res = sweep_rotation_rates(A_SPIRAL, -8.0, 0.0, 17, step=step, t_end=t_end)
        t = np.arange(round(t_end / step) + 1) * step
        for pt in res.points:
            e = corotating_matrix(NonautConfig(A_SPIRAL, pt.k))
            logs = [math.log(math.hypot(*matrix_exponential(e, ti).apply(1.0, 0.0))) for ti in t]
            assert abs(pt.log_slope - log_norm_slope(t, np.array(logs))) <= 1e-9

    def test_stiff_spiral_window(self):
        # the criterion-9 spiral and grid times 200: step * |A| is past
        # RK4's stability limit, which the exact propagator does not have
        c = 200.0
        res = sweep_rotation_rates(A_SPIRAL.scaled(c), -8.0 * c, 0.0, 161, step=5e-3, t_end=50.0)
        assert res.empirical_window is not None
        assert res.max_abs_boundary_error <= 0.05 * c

    @pytest.mark.parametrize("k_min", [-8.0, -1.0])  # growth overflows, decay underflows
    def test_unrepresentable_norm_is_numeric_failure(self, k_min):
        c = 2e4
        with pytest.raises(NumericFailureError):
            sweep_rotation_rates(A_SPIRAL.scaled(c), k_min * c, 0.0, 161, step=5e-3, t_end=50.0)


class TestHelpers:
    def test_log_norm_slope_recovers_exact_line(self):
        t = np.linspace(0, 10, 101)
        assert log_norm_slope(t, 0.37 * t - 2.0) == pytest.approx(0.37, abs=1e-12)

    def test_default_step_scales_with_speed(self):
        fast = decompose(Mat2(-100.0, 0, 0, -100.0))
        slow = decompose(Mat2(-0.01, 0, 0, -0.01))
        assert default_step(fast) == pytest.approx(1e-6)
        assert default_step(slow) == pytest.approx(1e-2)
        assert default_step(decompose(Mat2(0.0, 0.0, 0.0, 0.0))) == 1e-4

    def test_default_step_overflow_is_numeric_failure(self):
        rt = decompose(Mat2(-5e-324, -4e-323, 0.0, -1.5e-323))
        with pytest.raises(NumericFailureError, match="default step 0.0001 / speed 4e-323"):
            default_step(rt)

    def test_trajectory_theta_unwraps_winding(self):
        traj = integrate_linear(QUARTER_TURN, (1.0, 0.0), 1e-3, 4 * math.pi)
        assert traj.theta[-1] == pytest.approx(4 * math.pi, abs=1e-8)
