import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reactlin import (
    AmplificationMethod,
    AngleModPi,
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
)
from reactlin.amplification import _max_power_norm
from reactlin.dynamics import default_step
from conftest import A_MILD, A_SPIRAL, A_TRIANGULAR, random_reactive_attractor

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

    @pytest.mark.xfail(
        strict=True,
        raises=NumericFailureError,
        reason="near det A = 0 the paper's forms and the arc formula each lose "
        "about eps p^2 / det of relative accuracy, so the concordance check fails",
    )
    def test_near_singular_attractor(self):
        # m_T/p_T - 1 = 1e-8, well inside the band where the routes disagree
        a = reconstruct(RTParams(-0.5, math.sqrt(0.75) * (1 + 1e-8), 1.0, AngleModPi(0.3)))
        assert rho_max_closed(a).rho_max >= 1.0

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

    def test_bounds_strictly_dominate(self, rng):
        for _ in range(50):
            a = random_reactive_attractor(rng)
            rho = rho_max_closed(a).rho_max
            ortho_bound = rho_max_bound_ortho(a)
            eigen_bound = rho_max_bound_eigen(a)
            assert rho < ortho_bound
            assert rho < eigen_bound
            assert ortho_bound <= eigen_bound + 1e-12


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

    def test_spiral_multi_revolution(self):
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

    @pytest.mark.parametrize("a", [
        A_TRIANGULAR,
        Mat2(-1.0, 8.0, 0.0, -3.0),  # reflected
        attractor_with_eigenvalues(-1e-4, -3.0, 2.0),  # eigenline borders the arc
    ])
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

    def test_seeded_sweep_is_deterministic(self):
        a = rho_max_numeric(A_SPIRAL, step=1e-3)
        b = rho_max_numeric(A_SPIRAL, step=1e-3)
        assert a.rho_max == b.rho_max and a.t_max == b.t_max


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


class TestSpiralGuard:
    """The oracle's spiral guard, the largest |P^j|_2 over two periods."""

    def test_equals_largest_power_norm(self, rng):
        spirals = [A_SPIRAL, *(random_reactive_spiral(rng) for _ in range(20))]
        angles = np.radians(np.arange(360))
        starts = np.array([np.cos(angles), np.sin(angles)])
        for a in spirals:
            rt = decompose(a)
            assert isinstance(eigen_structure(rt), ComplexPairEigen)
            period = 2.0 * math.pi / math.sqrt(rt.tau1 * rt.tau2)
            h = min(default_step(rt, 1e-2), period / 512.0)
            n = math.ceil(2.0 * period / h)
            step = rk4_step_matrix(a, h)
            powers = [np.eye(2)]
            for _ in range(n):
                powers.append(step @ powers[-1])
            powers = np.array(powers)
            exact = float(np.linalg.norm(powers, 2, axis=(1, 2)).max())
            guard = _max_power_norm(a, n, h)
            assert guard == pytest.approx(exact, rel=1e-12, abs=0.0)
            # it bounds every one of 360 sampled unit starts, up to rounding
            sampled = max(
                float(np.linalg.norm(powers[i:i + 512] @ starts, axis=1).max())
                for i in range(0, n + 1, 512)
            )
            assert guard >= sampled * (1.0 - 1e-15)
