import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reactlin import (
    AmplificationMethod,
    AngleModPi,
    Classification,
    ComplexPairEigen,
    DistinctRealEigen,
    DistinctRealOrtho,
    InapplicableError,
    Mat2,
    NumericFailureError,
    RTParams,
    RepeatedDefectiveEigen,
    attractor_with_eigenvalues,
    decompose,
    eigen_structure,
    from_deltas,
    matrix_exponential,
    ortho_structure,
    reconstruct,
    reflect_conjugate,
    rho_max_bound_eigen,
    rho_max_bound_ortho,
    rho_max_closed,
    rho_max_from_eigen_ortho,
    rho_max_from_midlines,
    rho_max_from_separations,
    rho_max_numeric,
    rotate_conjugate,
    transient_summary,
)
from reactlin import amplification
from reactlin.amplification import _exit_root
from reactlin.cli import main
from conftest import A_MILD, A_SPIRAL, A_TRIANGULAR, max_speed, random_reactive_attractor

SQRT17 = math.sqrt(17.0)

# Frozen from an independent adaptive-quadrature oracle built on
# brute-force root finding (exp of the integral of R/T over the arc).
RHO_MAX_TRIANGULAR = 1.6626800963141626
T_MAX_TRIANGULAR = 0.48557072550733915
RHO_MAX_MILD = 1.1675487936545725
T_MAX_MILD = 0.37752383215050644
RHO_MAX_SPIRAL = 1.0935319103034655
T_MAX_SPIRAL = 0.19981662989066504


def assert_closed_matches(a: Mat2, rho_max: float, t_max: float) -> None:
    res = rho_max_closed(a)
    assert res.method is AmplificationMethod.CLOSED_ARC
    assert res.rho_max == pytest.approx(rho_max, rel=1e-12)
    assert res.t_max == pytest.approx(t_max, rel=1e-12)
    # m_T > 0, so the worst case enters on the lower orthovector
    assert res.theta_entry.distance(ortho_structure(decompose(a)).phi1) <= 1e-12


class TestClosedForm:
    def test_triangular_value(self):
        assert_closed_matches(A_TRIANGULAR, RHO_MAX_TRIANGULAR, T_MAX_TRIANGULAR)
        assert 1.66 <= rho_max_closed(A_TRIANGULAR).rho_max <= 1.67

    def test_reflection_invariance(self):
        # reflected systems turn clockwise, so the worst case enters on
        # the upper orthovector instead
        for a, rho_max in ((A_TRIANGULAR, RHO_MAX_TRIANGULAR), (A_SPIRAL, RHO_MAX_SPIRAL)):
            b = reflect_conjugate(a)
            res = rho_max_closed(b)
            assert res.rho_max == pytest.approx(rho_max, rel=1e-12)
            assert res.theta_entry.distance(ortho_structure(decompose(b)).phi2) <= 1e-12

    def test_mild_value(self):
        assert_closed_matches(A_MILD, RHO_MAX_MILD, T_MAX_MILD)

    def test_inapplicable_classifications(self):
        with pytest.raises(InapplicableError):
            rho_max_closed(Mat2(-3.0, 0.1, 0.0, -3.0))  # non-reactive attractor
        with pytest.raises(InapplicableError):
            rho_max_closed(Mat2(-2.0, 1.0, 2.0, 1.0))  # saddle

    def test_near_singular_attractor(self, capsys):
        # m_T/p_T - 1 = 1e-8: det A is about 1.5e-8 p^2
        a = reconstruct(RTParams(-0.5, math.sqrt(0.75) * (1 + 1e-8), 1.0, AngleModPi(0.3)))
        res = rho_max_closed(a)
        assert 1.0 <= res.rho_max < rho_max_bound_ortho(a)
        code = main(["analyze", "--", *(repr(x) for x in (a.a11, a.a12, a.a21, a.a22))])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["amplification"]["rho_max"] == res.rho_max

    @pytest.mark.parametrize("a", [
        Mat2(-1e-6, 0.0, -11.0, 0.0),  # det A = 0
        Mat2(-7.477253809488413e-06, -0.0, -11.242148894154873, 2.30057536606057e-16),  # det < 0
    ])
    def test_non_positive_det_is_numeric_failure(self, a, capsys):
        # classified reactive within the eigenvalue-vs-0 tie, but t_max is
        # infinite: a numeric failure (exit 4), not a traceback (exit 1)
        assert transient_summary(decompose(a)).classification is Classification.REACTIVE_ATTRACTOR
        with pytest.raises(NumericFailureError, match="t_max is infinite"):
            rho_max_closed(a)
        code = main(["analyze", "--", *(repr(x) for x in (a.a11, a.a12, a.a21, a.a22))])
        out, err = capsys.readouterr()
        assert code == 4 and out == "" and "t_max is infinite" in err

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        log_gap=st.floats(min_value=-12.0, max_value=-5.0),
        frac=st.floats(min_value=0.05, max_value=0.95),
        log_p=st.floats(min_value=-2.0, max_value=2.0),
        sign=st.sampled_from([1.0, -1.0]),
        theta_r=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_near_singular_matches_quadrature(self, log_gap, frac, log_p, sign, theta_r):
        # m_T/p_T - 1 = 10^log_gap, so det A is about 2 p_T^2 10^log_gap
        mp = pytest.importorskip("mpmath")
        p = 10.0**log_p
        p_t = p * math.sqrt((1.0 - frac) * (1.0 + frac))
        a = reconstruct(RTParams(-frac * p, sign * p_t * (1.0 + 10.0**log_gap), p,
                                 AngleModPi(theta_r)))
        # a tie of lambda1 with 0 within the rate-scale tolerance is degenerate
        assume(transient_summary(decompose(a)).classification
               is Classification.REACTIVE_ATTRACTOR)
        res = rho_max_closed(a)
        ln_rho, t_max = arc_quadrature(mp, a)
        assert abs(math.log(res.rho_max) - ln_rho) <= 1e-12
        assert abs(res.t_max - t_max) <= 1e-12 * t_max

    @pytest.mark.parametrize("a", [A_SPIRAL, A_TRIANGULAR, from_deltas(math.pi / 8, 0.0, 1.0)])
    def test_certificate_rejects_a_wrong_t_max(self, a, monkeypatch):
        # |e^{At}|_2 peaks at t_max, so a norm taken 0.1% later misses rho_max
        monkeypatch.setattr(amplification, "matrix_exponential",
                            lambda b, t: matrix_exponential(b, 1.001 * t))
        with pytest.raises(NumericFailureError, match="does not certify"):
            rho_max_closed(a)

    def test_spiral_value(self):
        assert isinstance(eigen_structure(decompose(A_SPIRAL)), ComplexPairEigen)
        assert_closed_matches(A_SPIRAL, RHO_MAX_SPIRAL, T_MAX_SPIRAL)

    def test_repeated_eigenvalue_value(self):
        # 30-digit quadrature of R/T over the reactive arc gives
        # 1.19037312194794...; p equals |m_T| exactly here.
        a = from_deltas(math.pi / 8, 0.0, 1.0)
        assert isinstance(eigen_structure(decompose(a)), RepeatedDefectiveEigen)
        res = rho_max_closed(a)
        assert res.rho_max == pytest.approx(1.190373121947942, rel=1e-12)
        oracle = rho_max_numeric(a, step=1e-4)
        assert res.t_max == pytest.approx(oracle.t_max, rel=1e-9)
        assert res.theta_entry.distance(oracle.theta_entry) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        log_p=st.floats(min_value=-3.0, max_value=3.0),
        frac=st.floats(min_value=0.1, max_value=0.9),
        theta_r=st.floats(min_value=0.0, max_value=3.0),
        sign=st.sampled_from([1.0, -1.0]),
        log_eps=st.floats(min_value=-13.0, max_value=-3.0),
    )
    def test_continuous_across_repeated_boundary(self, log_p, frac, theta_r, sign, log_eps):
        # m_T = p (1 + eps) is a spiral, p (1 - eps) has real eigenvalues,
        # and p itself a repeated one; one formula must join them smoothly.
        p, eps = 10.0**log_p, 10.0**log_eps

        def ln_rho(m_t: float) -> float:
            rt = RTParams(-frac * p, sign * m_t, p, AngleModPi(theta_r))
            return math.log(rho_max_closed(reconstruct(rt)).rho_max)

        at_boundary = ln_rho(p)
        for m_t in (p * (1.0 + eps), p * (1.0 - eps)):
            assert abs(ln_rho(m_t) - at_boundary) <= 100.0 * eps + 1e-12

    def test_scale_invariance(self, rng):
        for a in (A_TRIANGULAR, A_SPIRAL, *(random_reactive_attractor(rng) for _ in range(20))):
            base = rho_max_closed(a)
            for c in (1e-6, 3.7e-4, 0.5, 1.0, 42.0, 2.2e3, 1e6):
                res = rho_max_closed(a.scaled(c))
                assert res.rho_max == pytest.approx(base.rho_max, rel=1e-12)
                assert res.t_max * c == pytest.approx(base.t_max, rel=1e-12)
                assert res.theta_entry.distance(base.theta_entry) <= 1e-12

    def test_rotation_invariance(self, rng):
        for _ in range(25):
            a = random_reactive_attractor(rng)
            base = rho_max_closed(a).rho_max
            b = rotate_conjugate(a, rng.uniform(0, math.pi))
            assert rho_max_closed(b).rho_max == pytest.approx(base, rel=1e-9)
            assert rho_max_closed(reflect_conjugate(a)).rho_max == pytest.approx(
                base, rel=1e-9
            )


class TestFormulaConcordance:
    def test_three_routes_agree(self, rng):
        for _ in range(100):
            a = random_reactive_attractor(rng)
            rt = decompose(a)
            if rt.m_t < 0:
                rt = decompose(reflect_conjugate(a))
            eig = eigen_structure(rt)
            ortho = ortho_structure(rt)
            if not isinstance(eig, DistinctRealEigen):
                continue
            assert isinstance(ortho, DistinctRealOrtho)
            v1 = rho_max_from_eigen_ortho(eig.lambda1, eig.lambda2, ortho.mu1, ortho.mu2)
            v2 = rho_max_from_midlines(rt.m_r, rt.m_t, eig.p_r, ortho.p_t)
            v3 = rho_max_from_separations(ortho.delta_r, eig.delta_t)
            assert v2 == pytest.approx(v1, rel=1e-9)
            assert v3 == pytest.approx(v1, rel=1e-9)
            closed = rho_max_closed(a).rho_max
            for v in (v1, v2, v3):
                assert v == pytest.approx(closed, rel=1e-9)


class TestBounds:
    def test_ortho_bound_triangular(self):
        assert rho_max_bound_ortho(A_TRIANGULAR) == pytest.approx(SQRT17 / 2, rel=1e-12)

    def test_eigen_bound_examples(self):
        assert rho_max_bound_eigen(A_TRIANGULAR) == pytest.approx(SQRT17, rel=1e-12)
        assert rho_max_bound_eigen(A_MILD) == pytest.approx(
            math.sqrt(29.0) / 2, rel=1e-12
        )

    def test_symmetric_reactive_matrix_inapplicable(self):
        with pytest.raises(InapplicableError):
            rho_max_bound_ortho(Mat2(-1.0, 2.0, 2.0, -1.0))

    def test_eigen_bound_needs_real_spectrum(self):
        with pytest.raises(InapplicableError):
            rho_max_bound_eigen(A_SPIRAL)

    def test_eigen_bound_diverges_as_lines_merge(self):
        tight = rho_max_bound_eigen(from_deltas(0.2, 0.01, 1.0))
        loose = rho_max_bound_eigen(from_deltas(0.2, 0.1, 1.0))
        assert tight > loose > 1.0

    def test_gap_to_ortho_bound_closes_as_det_vanishes(self):
        # ln rho_max -> ln(-p/m_R) from below, with a gap of order det ln(1/det)
        gaps = []
        for k in range(2, 10):  # at 1e-10 lambda1 ties with 0: degenerate
            a = reconstruct(RTParams(-0.5, math.sqrt(0.75) * (1 + 10.0**-k), 1.0,
                                     AngleModPi(0.3)))
            det = a.det()
            gap = rho_max_bound_ortho(a) - rho_max_closed(a).rho_max
            assert 0.0 < gap <= 2.0 * det * math.log(1.0 / det)
            gaps.append(gap)
        assert gaps == sorted(gaps, reverse=True)

    def test_bounds_strictly_dominate(self, rng):
        for _ in range(50):
            a = random_reactive_attractor(rng)
            rho = rho_max_closed(a).rho_max
            ortho_bound = rho_max_bound_ortho(a)
            eigen_bound = rho_max_bound_eigen(a)
            assert rho < ortho_bound
            assert rho < eigen_bound
            assert ortho_bound <= eigen_bound + 1e-12


ARC_EXIT_CASES = [
    A_TRIANGULAR,
    Mat2(-1.0, 8.0, 0.0, -3.0),  # reflected
    attractor_with_eigenvalues(-1e-4, -3.0, 2.0),  # eigenline borders the arc
]


class TestNumericOracle:
    def test_triangular_agrees_with_closed(self):
        res = rho_max_numeric(A_TRIANGULAR, step=1e-4)
        assert res.method is AmplificationMethod.NUMERIC_SWEEP
        assert res.rho_max == pytest.approx(RHO_MAX_TRIANGULAR, rel=1e-6)
        assert res.t_max == pytest.approx(T_MAX_TRIANGULAR, rel=1e-6)
        # entry on the lower boundary orthovector of the reactive arc
        ortho = ortho_structure(decompose(A_TRIANGULAR))
        assert res.theta_entry.distance(ortho.phi1) <= 1e-9

    def test_entry_vector_matches_reported_initial_condition(self):
        # the amplification-maximizing start direction is about (-0.4, 0.9)
        res = rho_max_numeric(A_TRIANGULAR, step=1e-3)
        v = (math.cos(res.theta_entry.value), math.sin(res.theta_entry.value))
        assert v[0] == pytest.approx(-0.367, abs=5e-3)
        assert v[1] == pytest.approx(0.930, abs=5e-3)

    def test_spiral_agrees_with_quadrature(self):
        res = rho_max_numeric(A_SPIRAL, step=1e-3)
        assert res.rho_max == pytest.approx(RHO_MAX_SPIRAL, rel=1e-6)
        assert res.t_max == pytest.approx(T_MAX_SPIRAL, rel=1e-5)
        assert res.rho_max >= 1.0

    def test_mild_agrees_with_quadrature(self):
        res = rho_max_numeric(A_MILD, step=1e-4)
        assert res.rho_max == pytest.approx(RHO_MAX_MILD, rel=1e-8)
        assert res.t_max == pytest.approx(T_MAX_MILD, rel=1e-6)

    def test_inapplicable(self):
        with pytest.raises(InapplicableError):
            rho_max_numeric(Mat2(-3.0, 0.1, 0.0, -3.0))

    def test_reflected_system_same_value(self):
        a = Mat2(-1.0, 8.0, 0.0, -3.0)
        res = rho_max_numeric(a, step=1e-4)
        assert res.rho_max == pytest.approx(RHO_MAX_TRIANGULAR, rel=1e-6)
        # entry angle lives in the original (unreflected) frame
        ortho = ortho_structure(decompose(a))
        on_boundary = min(
            res.theta_entry.distance(ortho.phi1), res.theta_entry.distance(ortho.phi2)
        )
        assert on_boundary <= 1e-9

    @pytest.mark.parametrize("a", ARC_EXIT_CASES)
    def test_exit_state_matches_matrix_exponential(self, a):
        # the exact solution from the unit entry vector, taken at t_max,
        # must have gained rho_max and sit on the other boundary orthovector
        res = rho_max_numeric(a, step=1e-4)
        entry = res.theta_entry.value
        x, y = matrix_exponential(a, res.t_max).apply(math.cos(entry), math.sin(entry))
        assert math.hypot(x, y) == pytest.approx(res.rho_max, rel=1e-9)
        ortho = ortho_structure(decompose(a))
        on_phi1 = res.theta_entry.distance(ortho.phi1) <= 1e-12
        exit_line = ortho.phi2 if on_phi1 else ortho.phi1
        assert exit_line.distance(math.atan2(y, x)) <= 1e-9

    @pytest.mark.parametrize("a", ARC_EXIT_CASES)
    def test_exit_time_matches_closed(self, a):
        # the exit time is solved for to rounding on the last partial
        # step, so even where T is small at the exit (the third case)
        # t_max keeps the accuracy of the RK4 steps themselves
        res = rho_max_numeric(a, step=1e-4)
        assert res.t_max == pytest.approx(rho_max_closed(a).t_max, rel=1e-10)

    def test_slow_spiral_crosses_the_arc_once(self):
        # every rate is about 0.015, so the default step is 1e-4 in
        # absolute time; half a turn takes about 4400 time units, more
        # steps than MAX_STEPS allows, so one arc crossing must suffice
        a = Mat2(-0.014292925519603154, -0.030028108502834015,
                 2.1210621770522894e-05, -0.013568538239368924)
        assert isinstance(eigen_structure(decompose(a)), ComplexPairEigen)
        res = rho_max_numeric(a)
        assert res.rho_max == pytest.approx(rho_max_closed(a).rho_max, rel=1e-9)

    def test_default_step_overflow_raises(self):
        # the speed is about 4e-323, so 1e-4 / speed leaves the float range
        with pytest.raises(NumericFailureError, match="default step 0.0001 / speed"):
            rho_max_numeric(A_TRIANGULAR.scaled(5e-324))

    @pytest.mark.parametrize("a", [A_SPIRAL, A_TRIANGULAR])
    def test_unstable_step_raises(self, a):
        with pytest.raises(NumericFailureError, match="is unstable for this system"):
            rho_max_numeric(a, step=1.0)

    def test_exit_root_when_the_angle_peaks_inside_a_coarse_step(self):
        # a step near RK4's stability limit (3 / max_speed): g, the sine
        # of the angle past the exit times the norm, rises through 0 and
        # falls again within the step, so from the secant point, where g
        # already falls, Newton heads away from the root; the sign bracket
        # brings it back
        a = Mat2(0.5075269066045065, -5.902916321088528,
                 2.0622915301279257, -6.764880481174033)
        h, cos_t, sin_t = 0.37061151805974973, -0.9939392973670907, -0.1099303104217118
        x0 = np.array([-0.82756839962859, 0.5613648937510916])
        r, s = _exit_root(a, *x0, h, cos_t, sin_t)
        assert 0.5 * h < s < 0.7 * h
        x, y = rk4_step_matrix(a, s) @ x0
        assert math.hypot(x, y) == pytest.approx(r, rel=1e-14)
        assert abs(cos_t * y - sin_t * x) <= 1e-12 * r

    def test_repeated_eigenvalue_attractor(self):
        a = from_deltas(math.pi / 8, 0.0, 1.0)
        res = rho_max_numeric(a, step=1e-4)
        assert 1.0 <= res.rho_max < rho_max_bound_ortho(a)

    def test_population_agreement(self, rng):
        for _ in range(25):
            a = random_reactive_attractor(rng)
            closed = rho_max_closed(a).rho_max
            numeric = rho_max_numeric(a, step=1e-3).rho_max
            assert abs(closed - numeric) <= 1e-3 * closed
            assert numeric < rho_max_bound_ortho(a)
            assert numeric < rho_max_bound_eigen(a)

    def test_repeated_calls_are_bit_identical(self):
        a = rho_max_numeric(A_SPIRAL, step=1e-3)
        b = rho_max_numeric(A_SPIRAL, step=1e-3)
        assert a.rho_max == b.rho_max and a.t_max == b.t_max

    def test_leaves_numpy_unimported(self):
        # one arc crossing in plain floats for every spectrum
        script = (
            "import sys\n"
            "from reactlin import Mat2, rho_max_numeric\n"
            "for entries in [(0.7, -4.0, 4.0, -4.7), (-1.0, -8.0, 0.0, -3.0)]:\n"
            "    rho_max_numeric(Mat2(*entries))\n"
            "    print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert proc.stdout.split() == ["False", "False"]

    def test_exit_step_matches_one_at_a_time_stepping(self, rng):
        # the binary descent must stop on the step that stepping one at a
        # time first finds past the exit, J, so t_max lies in step J
        cases = [
            *(random_reactive_attractor(rng) for _ in range(10)),
            *(random_reactive_spiral(rng) for _ in range(10)),
            attractor_with_eigenvalues(-1e-4, -3.0, 2.0),
            from_deltas(math.pi / 8, 0.0, 1.0),
        ]
        windows = []
        for a in cases:
            if decompose(a).m_t < 0.0:  # step the canonical, counterclockwise form
                a = reflect_conjugate(a)
            rt, h = decompose(a), 1e-2 / max_speed(a)
            ortho = ortho_structure(rt)
            target = ortho.phi1.value + 2.0 * ortho.delta_r
            (p11, p12), (p21, p22) = rk4_step_matrix(a, h).tolist()
            x, y, j = math.cos(ortho.phi1.value), math.sin(ortho.phi1.value), 0
            while math.cos(target) * y - math.sin(target) * x < 0.0:
                x, y, j = p11 * x + p12 * y, p21 * x + p22 * y, j + 1
            t_max = rho_max_numeric(a, step=h).t_max
            assert (j - 1) * h <= t_max <= j * h
            # a descent window is the largest power of two w with
            # w h (m_T + p) <= 1
            w = 1
            while 2 * w * h * (rt.m_t + rt.p) <= 1.0:
                w *= 2
            windows.append(j / w)
        assert max(windows[10:20]) > 2.0  # a spiral crossing several windows

    def test_max_steps_refusal(self):
        # crossing the arc at this step takes about 48.6M steps
        with pytest.raises(NumericFailureError, match="exceeded"):
            rho_max_numeric(A_TRIANGULAR, step=1e-8)

    def test_many_steps_keep_their_accuracy(self):
        # about 9.7M steps, within MAX_STEPS
        res, closed = rho_max_numeric(A_TRIANGULAR, step=5e-8), rho_max_closed(A_TRIANGULAR)
        assert res.rho_max == pytest.approx(closed.rho_max, rel=1e-13)
        assert res.t_max == pytest.approx(closed.t_max, rel=1e-13)


def random_reactive_spiral(rng) -> Mat2:
    """Reactive attractor with a complex pair: |m_R| < p < |m_T|."""
    m_r = -rng.uniform(0.1, 3.0)
    p = -m_r / rng.uniform(0.1, 0.95)
    m_t = p * (1.0 + rng.uniform(0.05, 2.0)) * rng.choice([-1.0, 1.0])
    return reconstruct(RTParams(m_r, m_t, p, AngleModPi(rng.uniform(0.0, math.pi))))


def rk4_step_matrix(a: Mat2, h: float) -> np.ndarray:
    """The RK4 step of X' = AX, its columns pushed through the four stages."""
    cols = []
    for x, y in ((1.0, 0.0), (0.0, 1.0)):
        k1 = a.apply(x, y)
        k2 = a.apply(x + h / 2 * k1[0], y + h / 2 * k1[1])
        k3 = a.apply(x + h / 2 * k2[0], y + h / 2 * k2[1])
        k4 = a.apply(x + h * k3[0], y + h * k3[1])
        cols.append([
            x + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        ])
    return np.array(cols).T


def arc_quadrature(mp, a: Mat2) -> tuple[float, float]:
    """(ln rho_max, t_max) of a reactive attractor with real eigenvalues, to
    30 digits from the float entries: the integrals of R/T and 1/T over the
    reactive arc.  T falls monotonically across the arc, from mu1 to mu2,
    and sin 2(theta - theta_R) = (m_T - T)/p, so
    dtheta = -dT / (2 p cos 2(theta - theta_R)), and in s = ln T both integrands are smooth up to det A = 0."""
    with mp.workdps(30):
        a11, a12, a21, a22 = (mp.mpf(x) for x in (a.a11, a.a12, a.a21, a.a22))
        m_r, m_t = (a11 + a22) / 2, abs(a21 - a12) / 2
        p = mp.hypot(a11 - a22, a12 + a21) / 2
        p_t = mp.sqrt(p * p - m_r * m_r)

        def two_p_cos(s):
            t = mp.exp(s)
            return 2 * mp.sqrt((p - m_t + t) * (p + m_t - t))

        span = [mp.log(m_t - p_t), mp.log(m_t + p_t)]
        ln_rho = mp.quad(lambda s: (m_r + two_p_cos(s) / 2) / two_p_cos(s), span)
        t_max = mp.quad(lambda s: 1 / two_p_cos(s), span)
        return float(ln_rho), float(t_max)


class TestExactPropagator:
    """The paper's definition, free of RK4: sup_t |e^{At}|_2 is rho_max."""

    def test_propagator_norm_peaks_at_rho_max(self, rng):
        cases = [
            A_SPIRAL,
            A_TRIANGULAR,
            attractor_with_eigenvalues(-1e-4, -3.0, 2.0),
            from_deltas(math.pi / 8, 0.0, 1.0),
            *(random_reactive_spiral(rng) for _ in range(20)),
            *(random_reactive_attractor(rng) for _ in range(20)),
        ]
        for a in cases:
            closed = rho_max_closed(a)
            c = closed.rho_max
            eig = eigen_structure(decompose(a))
            if isinstance(eig, ComplexPairEigen):
                t_end = 2.0 * (2.0 * math.pi / eig.im)  # two periods
            else:
                t_end = 4.0 * closed.t_max
            props = np.array([
                matrix_exponential(a, t).as_array() for t in np.linspace(0.0, t_end, 2049)
            ])
            # no start gains more than rho_max at any time ...
            assert np.linalg.norm(props, 2, axis=(1, 2)).max() <= c * (1.0 + 1e-12)
            # ... and some start gains it at t_max
            peak = np.linalg.norm(matrix_exponential(a, closed.t_max).as_array(), 2)
            assert abs(peak - c) <= 1e-10
