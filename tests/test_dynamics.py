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
from reactlin import dynamics
from reactlin.dynamics import (
    _BLOCK,
    _MAX_ERROR_GAIN,
    _corotating_increment,
    _exact_increment,
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


def error_gain(d):
    """(1 + |D|_F) |I + D|_F / |det(I + D)|, the gain _powers bounds for D = P^j - I."""
    p = np.eye(2) + d
    return (1.0 + np.linalg.norm(d)) * np.linalg.norm(p) / abs(np.linalg.det(p))


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
        # _powers returns the same table and block-start step, bit for bit,
        # whether the scalar certificate holds the whole block or every
        # power's gain is formed: fine steps (certified), A_SPIRAL at
        # h = 1e-3 (h speed 7e-3: whole but not certified), a coarse step on
        # a fast decay whose block must shorten, and a step whose high powers
        # overflow
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
            got, got_step = _powers(*e)
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_gain_bound", lambda *_: math.inf)
                want, want_step = _powers(*e)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got_step == want_step
            assert (got.shape[2] == _BLOCK) is whole
            if not whole:  # the block ends at the last power whose gain is small enough
                d = np.array(got_step).reshape(2, 2)
                d_next = (np.eye(2) + d) @ (np.eye(2) + np.reshape(e, (2, 2))) - np.eye(2)
                assert error_gain(d) <= _MAX_ERROR_GAIN < error_gain(d_next)

    @pytest.mark.parametrize(
        "increment, sign_q",
        [
            (_rk4_increment(-1.0, -8.0, 0.0, -3.0, 1e-3 / 9.0), 1.0),  # A_TRIANGULAR: real P
            (_rk4_increment(0.7, -4.0, 4.0, -4.7, 1e-3 / 5.7), -1.0),  # A_SPIRAL: complex P
            (_rk4_increment(2.0, 1.0, 0.0, 2.0, 1e-3 / 2.5), 0.0),  # defective P, q == 0 exactly
            (_exact_increment(Mat2(-2.0, 1.0, 2.0, 1.0), 1e-2 / 3.0), 1.0),  # A_SADDLE, e^{Ah}
        ],
        ids=["q>0", "q<0", "q==0", "exact-q>0"],
    )
    def test_power_table_against_exact_powers(self, increment, sign_q):
        # P^j = I + f_j I + s_j N in closed form, against the powers of the
        # float P = I + E at 50 digits: every table entry is within 8 eps of
        # the largest |P^j|, and the step between block starts, P^m - I,
        # within 8 eps of the largest |P^j - I|, since its rounding compounds
        # over the blocks (measured: 4.8 and 3.8 eps at most over 300 random
        # RK4 and exact increments)
        mpmath = pytest.importorskip("mpmath")
        e11, e12, e21, e22 = increment
        assert np.sign((0.5 * (e11 - e22)) ** 2 + e12 * e21) == sign_q  # the case of _powers
        table, step = _powers(*increment)
        m = table.shape[2]
        assert m > 1
        with mpmath.workdps(50):
            mp = mpmath.mpf
            p = mpmath.matrix([[1 + mp(e11), mp(e12)], [mp(e21), 1 + mp(e22)]])
            powers = [mpmath.eye(2)]
            for _ in range(m):
                powers.append(powers[-1] * p)
            d_m = powers[m] - mpmath.eye(2)
            table_gap = max(abs(mp(table[r, c, j]) - powers[j][r, c])
                            for j in range(m) for r in range(2) for c in range(2))
            step_gap = max(abs(mp(step[2 * r + c]) - d_m[r, c]) for r in range(2) for c in range(2))
            largest_p = max(abs(v) for pw in powers[:m] for v in pw)
            largest_d = max(abs(v) for pw in powers for v in pw - mpmath.eye(2))
            eps = 2.0 ** -52
            assert table_gap <= 8 * eps * largest_p
            assert step_gap <= 8 * eps * largest_d

    @pytest.mark.parametrize(
        "e",
        [
            (-1.5, 0.3, 0.1, -0.2),  # P = [[-0.5, 0.3], [0.1, 0.8]]: eigenvalues -0.52, 0.82
            (-1.5, 0.3, 0.1, -1.8),  # P = [[-0.5, 0.3], [0.1, -0.8]]: -0.42, -0.88, det P > 0
        ],
        ids=["det<0", "det>0"],
    )
    def test_negative_eigenvalue_steps_one_at_a_time(self, e):
        # a P with a real eigenvalue below 0 has no real logarithm; a step far
        # beyond the stability limit can give one.  The block is one step,
        # and the run is one-at-a-time stepping bit for bit
        table, step = _powers(*e)
        assert table.shape == (2, 2, 1) and np.array_equal(table[:, :, 0], np.eye(2))
        assert step == e
        x0 = (0.6, -0.8)
        xs, ys = _step_linear(lambda _h: e, x0, 0.1, 1000 * 0.1)
        assert sequential_gap(xs, ys, x0, [e] * 1000) == 0.0

    def test_trajectory_shapes_take_the_scalar_certificate(self, rng):
        # steps of 1e-3 over the largest rate scale, spin rates up to that
        # scale, as the 1e4-step trajectories of the dyn-warm benchmark take
        for _ in range(200):
            a = random_mat2(rng)
            scale = 1.0 + max(abs(a.a11), abs(a.a12), abs(a.a21), abs(a.a22))
            k = float(rng.uniform(-1.0, 1.0)) * scale
            assert _gain_bound(*_rk4_increment(a.a11, a.a12, a.a21, a.a22, 1e-3 / scale)) <= _MAX_ERROR_GAIN
            assert _gain_bound(*_corotating_increment(a, k, 1e-3 / (scale + abs(k)))) <= _MAX_ERROR_GAIN

    @pytest.mark.parametrize("name", ["integrate_linear", "integrate_polar", "integrate_nonaut"])
    def test_working_set_stays_at_its_measured_peak(self, name):
        # MAX_GRID_STEPS prices a call at a few arrays of a float per sample.
        # A 1e4-step run on the spiral peaks at 3.06 of them for
        # integrate_linear and integrate_polar (the states and the sample
        # times) and at 9.21 for integrate_nonaut, which also turns its
        # states back from the co-rotating frame
        import tracemalloc
        n, step = 10_000, 1e-3 / 5.7
        call, bound = {
            "integrate_linear": (lambda: integrate_linear(A_SPIRAL, (1.0, 0.3), step, n * step), 3.5),
            "integrate_polar": (lambda: integrate_polar(decompose(A_SPIRAL), 1.0, 0.3, step, n * step), 3.5),
            "integrate_nonaut": (
                lambda: integrate_nonaut(NonautConfig(A_SPIRAL, -2.0), (1.0, 0.3), step, n * step), 9.5),
        }[name]
        call()  # first-call imports come first
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * (n + 1)

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

    def test_power_of_two_scales_are_exact(self):
        # e^{At} depends on At alone: A 2^k at t 2^-k gives the same bits, also
        # where m^2 or det A would leave the float range (k = +-600, +-1000)
        for a in (A_SPIRAL, A_TRIANGULAR, Mat2(-1.0, 2.0, 0.0, -1.0)):
            want = matrix_exponential(a, 0.7)
            for k in (-1000, -600, -300, 300, 600, 1000):
                assert matrix_exponential(a.scaled(2.0 ** k), 0.7 * 2.0 ** -k) == want

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


def exact_polar_samples(rt, r0, theta0, step, t_end, picks):
    """States (x, y) of the polar flow from (r0, theta0) at the samples picks
    of the grid (step, t_end), an index past the full steps meaning t_end.

    The flow is e^{At} x0 with A = [[R(0), -T(pi/2)], [T(0), R(pi/2)]] and
    x0 = r0 (cos theta0, sin theta0), both formed from rt's curves in
    mpmath, and e^{At} is mpmath's expm at 40 digits: exact from the
    float parameters and times, rounded to floats at the end, and
    independent of reconstruct and matrix_exponential."""
    mpmath = pytest.importorskip("mpmath")
    n_full = _grid(step, t_end)[0]
    with mpmath.workdps(40):
        mp = mpmath.mpf
        m_r, m_t, p = mp(rt.m_r), mp(rt.m_t), mp(rt.p)
        phase = mp(rt.theta_r.value if rt.theta_r is not None else 0.0)

        def curves(th):  # R(th), T(th)
            u = 2 * (th - phase)
            return m_r + p * mpmath.cos(u), m_t - p * mpmath.sin(u)

        (r_0, t_0), (r_q, t_q) = curves(0), curves(mpmath.pi / 2)
        a = mpmath.matrix([[r_0, -t_q], [t_0, r_q]])
        x0 = mpmath.matrix([mp(r0) * mpmath.cos(mp(theta0)), mp(r0) * mpmath.sin(mp(theta0))])
        states = [mpmath.expm(a * (mp(t_end) if i > n_full else i * mp(step))) * x0 for i in picks]
        return (np.array([float(v[0]) for v in states]), np.array([float(v[1]) for v in states]))


def check_exact_flow(rt, r0, theta0, step, n_steps, state_tol, theta_tol=None):
    """integrate_polar over n_steps + 0.37 steps against exact_polar_samples
    at about 17 grid samples and the last: the largest relative state gap
    is at most state_tol, and theta agrees with the exact states' angle,
    mod 2pi, to theta_tol (state_tol if not given)."""
    t_end = (n_steps + 0.37) * step
    traj = integrate_polar(rt, r0, theta0, step, t_end)
    assert len(traj.t) == n_steps + 2 and traj.method == "exact"
    picks = list(range(0, n_steps + 1, max(1, n_steps // 16))) + [n_steps + 1]
    x, y = exact_polar_samples(rt, r0, theta0, step, t_end, picks)
    r = np.hypot(x, y)
    assert (np.hypot(traj.x1[picks] - x, traj.x2[picks] - y) / r).max() <= state_tol
    turn = (traj.theta[picks] - np.arctan2(y, x)) / (2.0 * math.pi)
    assert (np.abs(turn - np.rint(turn)) * 2.0 * math.pi).max() <= (theta_tol or state_tol)


class TestIntegratePolar:
    def test_matches_stagewise_reference(self, rng):
        # integrate_polar samples the exact flow of X' = AX, A = reconstruct(rt);
        # polar_rk4_reference steps dr = r R(theta), dtheta = T(theta) from rt's
        # curves alone.  They agree to RK4's truncation error, which falls
        # like (h speed)^4: a check of the decomposition, not of the stepping
        mats = [A_SPIRAL, A_SADDLE] + [random_mat2(rng) for _ in range(20)]
        for h_speed, n_steps in ((1e-3, 10_000), (1e-2, 1000), (0.1, 300)):
            for a in mats:
                rt = decompose(a)
                step = h_speed / max(max_speed(a), 1.0)
                t_end = (n_steps + 0.37) * step
                th0 = float(rng.uniform(-3.0, 3.0))
                traj = integrate_polar(rt, 1.5, th0, step, t_end)
                r, th = polar_rk4_reference(rt, 1.5, th0, step, t_end)
                assert len(traj.t) == len(r) == n_steps + 2
                gap = np.hypot(traj.x1 - r * np.cos(th), traj.x2 - r * np.sin(th))
                assert (gap / r).max() <= h_speed ** 4
                assert np.abs(traj.theta - th).max() <= h_speed ** 4

    def test_theta_is_rebuilt_from_the_samples(self):
        # the run starts from theta0 = 10 as given; Trajectory.theta comes
        # from the Cartesian samples, so it starts reduced into (-pi, pi]
        traj = integrate_polar(decompose(A_SPIRAL), 1.0, 10.0, 1e-3, 0.01)
        assert traj.theta[0] == pytest.approx(10.0 - 4.0 * math.pi, abs=1e-15)
        assert np.abs(np.diff(traj.theta)).max() < 0.1

    def test_matches_the_exact_flow_to_rounding(self, rng):
        # the exact flow, from mpmath's expm at 40 digits: what the float
        # stepping adds is rounding alone, 2000 steps plus a partial one
        for a in [A_SPIRAL, A_SADDLE, random_mat2(rng), random_mat2(rng)]:
            rt = decompose(a)
            step = 1e-3 / max(max_speed(a), 1.0)
            th0 = float(rng.uniform(-3.0, 3.0))
            check_exact_flow(rt, 1.5, th0, step, 2000, 1e-12, 1e-13)

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

    def test_unrepresentable_matrix_is_numeric_failure(self):
        # finite parameters whose matrix overflows: the error is about the
        # run, not an argument the caller never passed
        rt = RTParams(1e308, 1e308, 1e308, AngleModPi(0.3))
        with pytest.raises(NumericFailureError, match="rt"):
            integrate_polar(rt, 1.0, 0.0, 1e-3, 1.0)

    def test_overflow_is_numeric_failure(self):
        with pytest.raises(NumericFailureError):
            integrate_polar(decompose(Mat2(800.0, 0.0, 0.0, 800.0)), 1.0, 0.0, 1e-3, 10.0)

    def test_input_validation(self):
        rt = decompose(A_SPIRAL)
        with pytest.raises(InvalidInputError):
            integrate_polar(rt, 0.0, 0.0, 1e-3, 1.0)
        with pytest.raises(InvalidInputError):
            integrate_polar(rt, 1.0, float("nan"), 1e-3, 1.0)

    def test_power_of_two_scales_give_the_same_states(self):
        # rates 2^k times A's on steps 2^-k times as long: the same states
        want = integrate_polar(decompose(A_SPIRAL), 1.0, 0.3, 1e-3, 3.0)
        for k in (-900, -600, 600, 900):
            s = 2.0 ** k
            traj = integrate_polar(decompose(A_SPIRAL.scaled(s)), 1.0, 0.3, 1e-3 / s, 3.0 / s)
            assert np.array_equal(traj.x1, want.x1) and np.array_equal(traj.x2, want.x2)

    def test_stiff_system_at_a_coarse_step(self):
        # RK4's step at h = 1 multiplies x1 by about 1500^4 / 24 = 2e11, so
        # that RK4 reaches 4e56 at t = 5; the exact step is e^{Ah}, finite and
        # stable at any step, with a stiff factor e^{-1500} that underflows
        a = Mat2(-1500.0, 0.0, 0.0, -1.0)
        traj = integrate_polar(decompose(a), 1.0, 0.3, 1.0, 5.0)
        assert len(traj.t) == 6
        want_x = np.array([math.exp(-1500.0 * t) * math.cos(0.3) for t in range(6)])
        want_y = np.array([math.exp(-1.0 * t) * math.sin(0.3) for t in range(6)])
        gap = np.hypot(traj.x1 - want_x, traj.x2 - want_y)
        assert (gap / np.hypot(want_x, want_y)).max() <= 1e-13


class TestPolarAngleSolve:
    """integrate_polar over long runs, coarse steps and states near the ends
    of the float range, against the exact flow (check_exact_flow)."""

    def test_1e5_step_runs_keep_to_the_exact_flow(self):
        # 1e5 steps, ten times the stagewise test's: each step's rounding,
        # not any per-step error of the method, sets the gap
        for a in (A_SPIRAL, A_TRIANGULAR):
            step = 1e-3 / max_speed(a)
            check_exact_flow(decompose(a), 1.0, 0.4, step, 100_000, 1e-13)

    def test_coarse_steps_go_one_at_a_time_and_stay_exact(self):
        # at h speed = 2 every power of the step gains too much error, so
        # the states step one at a time, and each step is still exact
        for a in (A_SPIRAL, A_TRIANGULAR):
            step = 2.0 / max_speed(a)
            check_exact_flow(decompose(a), 1.0, 0.4, step, 200, 1e-12)

    def test_flat_amplitude(self):
        # p = 0: the angle turns at m_T and r grows at m_R
        for a in (Mat2(-0.7, -3.0, 3.0, -0.7), Mat2(-0.7, 0.0, 0.0, -0.7)):
            assert decompose(a).p == 0.0
            check_exact_flow(decompose(a), 2.0, 0.3, 1e-3, 10_000, 1e-13)

    def test_decaying_run_whose_guess_underflows(self):
        # a run from a unit vector underflows (to subnormals, and for the
        # spiral to 0); the run from r0 = 1e300 stays in range throughout
        for a, n_steps in ((Mat2(-50.0, 0.0, 0.0, -60.0), 8700), (Mat2(-50.0, 20.0, -20.0, -60.0), 8700)):
            step = 0.1 / max_speed(a)
            cart = integrate_linear(a, (math.cos(0.3), math.sin(0.3)), step, (n_steps + 0.37) * step)
            assert cart.r[-1] < 2.2e-308
            check_exact_flow(decompose(a), 1e300, 0.3, step, n_steps, 1e-12)

    def test_growing_run_whose_guess_overflows(self):
        # the states pass 1e154, where their squared norms overflow, which
        # neither the stepping nor Trajectory.r and .theta form.  Over the
        # 2e4 steps theta reaches 1764 (ulp 2.3e-13)
        a = Mat2(1.5, -4.0, 4.0, 0.5)
        assert decompose(a).p > 0.0
        step = 0.1 / max_speed(a)
        check_exact_flow(decompose(a), 1.0, 0.3, step, 20_000, 5e-11)

    def test_run_beyond_the_squared_norm_range_is_rescaled(self):
        # the norm grows by e^800 over the run, from 1e-300 to about 1e47, so
        # the squared norms leave the float range at both ends.  theta
        # reaches 3200 (ulp 4.5e-13)
        a = Mat2(1.5, -4.0, 4.0, 0.5)
        step = 0.1 / max_speed(a)
        n_steps = int(800.0 / step)
        check_exact_flow(decompose(a), 1e-300, 0.3, step, n_steps, 1e-11, 1e-10)

    def test_huge_start_angle_is_valid(self):
        # theta0 = +-1e308 is a finite real: the run starts from its cosine
        # and sine, and theta[0] is that angle reduced into (-pi, pi]
        for th0 in (1e308, -1e308):
            traj = integrate_polar(decompose(A_SPIRAL), 1.0, th0, 1e-3, 0.01)
            assert np.isfinite(traj.x1).all() and np.isfinite(traj.x2).all()
            assert -math.pi < traj.theta[0] <= math.pi
            assert traj.theta[0] == np.arctan2(math.sin(th0), math.cos(th0))

    def test_radius_under_a_constant_factor_does_not_drift(self):
        # p = 0: r = r0 e^{m_R t} exactly.  A step factor fl(1 + z) repeated at
        # every step would drift with the step count (RK4's factor
        # 1 + z + ... + z^4/24, z = h m_R, is 1.4e-13 off e^{z n} at 1e5
        # steps); the increment keeps the 1 out, so its rounding does not
        # repeat
        mpmath = pytest.importorskip("mpmath")
        for a in (Mat2(-0.7, -3.0, 3.0, -0.7), Mat2(-0.7, 0.0, 0.0, -0.7)):
            rt = decompose(a)
            traj = integrate_polar(rt, 2.0, 0.3, 1e-3, 100_000 * 1e-3)
            assert len(traj.t) == 100_001
            picks = list(range(0, 100_001, 997)) + [100_000]
            with mpmath.workdps(40):
                rate = mpmath.mpf(rt.m_r) * mpmath.mpf(1e-3)
                want = np.array([float(2 * mpmath.exp(rate * k)) for k in picks])
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

    def test_one_fit_over_the_samples_by_rates_array(self, monkeypatch):
        shapes = []
        fit = dynamics.log_norm_slope
        monkeypatch.setattr(dynamics, "log_norm_slope", lambda t, y: shapes.append(y.shape) or fit(t, y))
        sweep_rotation_rates(A_SPIRAL, -8.0, 0.0, 161)
        assert shapes == [(528, 161)]  # sample 0, 526 of 19 steps and one of 6

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

    def test_log_norm_slope_fits_each_column(self, rng):
        t = np.linspace(0.0, 10.0, 101)
        y = rng.normal(size=(101, 5)) + np.outer(t, [0.37, -2.0, 0.0, 1e3, -1e-3])
        slopes = log_norm_slope(t, y)
        assert slopes.shape == (5,)
        for j in range(5):
            one = log_norm_slope(t, y[:, j])
            assert type(one) is float
            assert abs(slopes[j] - one) <= 1e-14 * max(1.0, abs(one))

    def test_log_norm_slope_of_equal_times_is_zero(self):
        # the trailing half has one time, or equal times: no slope to fit
        assert log_norm_slope(np.array([2.0]), np.array([5.0])) == 0.0
        assert log_norm_slope(np.full(4, 2.0), np.arange(4.0)) == 0.0
        assert np.array_equal(log_norm_slope(np.full(4, 2.0), np.ones((4, 3))), np.zeros(3))

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
