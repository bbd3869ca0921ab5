import math

import numpy as np
import pytest
import scipy.linalg

from reactlin import (
    InapplicableError,
    InvalidInputError,
    Mat2,
    NonautConfig,
    NumericFailureError,
    QUARTER_TURN,
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
    repulsion_window,
    rotate_conjugate,
    sweep_rotation_rates,
    transient_summary,
)
from reactlin.dynamics import _BLOCK, _corotating_increment, _rk4_increment, _step_linear
from reactlin.spectra import ComplexPairEigen
from conftest import (
    A_SADDLE,
    A_SPIRAL,
    A_TRIANGULAR,
    angle_close,
    mat_close,
    max_speed,
    random_mat2,
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

    def test_step_matrix_matches_stages_for_arrays(self, rng):
        entries = rng.uniform(-3, 3, size=(4, 50))
        h = rng.uniform(1e-4, 0.3, size=50)
        e = _rk4_increment(*entries, h)
        got = np.array([1.0 + e[0], e[1], e[2], 1.0 + e[3]])
        assert got.shape == (4, 50)
        want = np.array(self.reference_columns(*entries, h))
        assert np.abs(got - want).max() <= 1e-14

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

        ts, xs, ys = _step_linear(increment, (0.6, -0.8), step, t_end)
        increments = [increment(step)] * n_full
        if partial:
            increments.append(increment(t_end - n_full * step))
        assert ts[-1] == t_end
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

    def test_defective_case_is_exact(self):
        # disc = 0 exactly: e^{At} = e^{2t} (I + t N)
        a = Mat2(2.0, 1.0, 0.0, 2.0)
        e = matrix_exponential(a, 1.7)
        f = math.exp(3.4)
        assert mat_close(e, Mat2(f, 1.7 * f, 0.0, f), 1e-12 * f)

    def test_overflow_is_numeric_failure(self):
        # e^800 is beyond double range, on the series and the cosh routes
        for a in (Mat2(800.0, 0.0, 0.0, 800.0), Mat2(800.0, 0.0, 0.0, -800.0)):
            with pytest.raises(NumericFailureError):
                matrix_exponential(a, 1.0)


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


def polar_rk4_reference(rt, r0, theta0, step, t_end):
    """Radii and angles of RK4 on dr = r R(theta), dtheta = T(theta),
    stage by stage, one step at a time."""
    m_r, m_t, p = rt.m_r, rt.m_t, rt.p
    phase = rt.theta_r.value if rt.theta_r is not None else 0.0
    cos, sin = math.cos, math.sin

    def rk4(r, th, h):
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

    n_full = int(math.floor(t_end / step + 1e-9))
    r, th = r0, theta0
    rs, ths = [r], [th]
    for h in [step] * n_full + [t_end - n_full * step]:
        r, th = rk4(r, th, h)
        rs.append(r)
        ths.append(th)
    return np.array(rs), np.array(ths)


class TestIntegratePolar:
    def test_matches_stagewise_reference(self, rng):
        # 1e4 steps plus a partial one; the angle loop is the reference's
        # arithmetic, the radius a product of per-step factors
        for a in [A_SPIRAL, A_SADDLE] + [random_mat2(rng) for _ in range(20)]:
            rt = decompose(a)
            step = 1e-3 / max(max_speed(a), 1.0)
            t_end = (10_000 + 0.37) * step
            th0 = float(rng.uniform(-3.0, 3.0))
            traj = integrate_polar(rt, 1.5, th0, step, t_end)
            r, th = polar_rk4_reference(rt, 1.5, th0, step, t_end)
            assert len(traj.t) == len(r) == 10_002
            gap = np.hypot(traj.x1 - r * np.cos(th), traj.x2 - r * np.sin(th))
            assert (gap / r).max() <= 1e-12
            assert np.abs(traj.theta - th).max() <= 1e-13

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

    def test_inapplicable(self):
        with pytest.raises(InapplicableError):
            repulsion_window(Mat2(-3.0, 0.1, 0.0, -3.0))


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
        assert default_step(slow) == pytest.approx(1e-4)

    def test_trajectory_theta_unwraps_winding(self):
        traj = integrate_linear(QUARTER_TURN, (1.0, 0.0), 1e-3, 4 * math.pi)
        assert traj.theta[-1] == pytest.approx(4 * math.pi, abs=1e-8)
