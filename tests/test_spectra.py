import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reactlin import (
    AllOrtho,
    Classification,
    ComplexPairEigen,
    DistinctRealEigen,
    DistinctRealOrtho,
    InapplicableError,
    Mat2,
    NonautConfig,
    NoRealOrtho,
    QUARTER_TURN,
    RepeatedDefectiveEigen,
    RepeatedFullEigen,
    RepeatedOrtho,
    Stability,
    angular_phase_line,
    decompose,
    eigen_structure,
    eval_radial,
    eval_tangential,
    from_deltas,
    ortho_structure,
    reconstruct,
    repulsion_window,
    rho_max_closed,
    rotate_conjugate,
    transient_summary,
)
from reactlin.core import AngleModPi, RTParams
from reactlin.spectra import CASE_RTOL
from conftest import A_SADDLE, A_SPIRAL, A_TRIANGULAR, angle_close, random_mat2

SQRT13 = math.sqrt(13.0)
SQRT17 = math.sqrt(17.0)
MINUS_J = Mat2(0.0, 1.0, -1.0, 0.0)  # quarter turn inverse


class TestEigenStructure:
    def test_saddle_example(self):
        eig = eigen_structure(decompose(A_SADDLE))
        assert isinstance(eig, DistinctRealEigen)
        assert eig.lambda1 == pytest.approx((-1 + SQRT17) / 2, rel=1e-12)
        assert eig.lambda2 == pytest.approx((-1 - SQRT17) / 2, rel=1e-12)

    def test_spiral_example(self):
        eig = eigen_structure(decompose(A_SPIRAL))
        assert isinstance(eig, ComplexPairEigen)
        assert eig.re == pytest.approx(-2.0, abs=1e-14)
        assert eig.im == pytest.approx(math.sqrt(6.7 * 1.3), rel=1e-12)

    def test_scaled_identity(self):
        eig = eigen_structure(decompose(Mat2(2.0, 0.0, 0.0, 2.0)))
        assert isinstance(eig, RepeatedFullEigen)
        assert eig.lam == 2.0

    def test_defective_case(self):
        # p = |m_T| != 0: one eigenline at the tangency of T with zero
        rt = RTParams(-1.0, 2.0, 2.0, AngleModPi(0.3))
        eig = eigen_structure(rt)
        assert isinstance(eig, RepeatedDefectiveEigen)
        assert eig.lam == -1.0
        assert angle_close(eig.theta0.value, 0.3 + math.pi / 4)
        a = reconstruct(rt)
        v = (math.cos(eig.theta0.value), math.sin(eig.theta0.value))
        av = a.apply(*v)
        assert av[0] == pytest.approx(eig.lam * v[0], abs=1e-12)
        assert av[1] == pytest.approx(eig.lam * v[1], abs=1e-12)

    def test_classification_scale_invariant(self):
        for a in (A_TRIANGULAR, A_SPIRAL, from_deltas(math.pi / 8, 0.0, 1.0)):
            rt = decompose(a)
            rho = rho_max_closed(a).rho_max
            for scale in (1e-10, 1e-20, 1e-200):
                small = decompose(a.scaled(scale))
                assert type(eigen_structure(small)) is type(eigen_structure(rt))
                assert type(ortho_structure(small)) is type(ortho_structure(rt))
                assert transient_summary(small).classification is Classification.REACTIVE_ATTRACTOR
                assert rho_max_closed(a.scaled(scale)).rho_max == pytest.approx(rho, rel=1e-12)

    def test_eigen_angles_carry_their_values(self):
        eig = eigen_structure(decompose(A_TRIANGULAR))
        # lambda1 = -1 on the x-axis eigenline of the triangular matrix
        assert angle_close(eig.theta1.value, 0.0, 1e-12)
        assert angle_close(eig.theta2.value, math.atan2(1.0, 4.0), 1e-12)

    def test_trace_det_consistency(self, rng):
        for _ in range(500):
            a = random_mat2(rng)
            eig = eigen_structure(decompose(a))
            if isinstance(eig, DistinctRealEigen):
                s, q = eig.lambda1 + eig.lambda2, eig.lambda1 * eig.lambda2
            elif isinstance(eig, ComplexPairEigen):
                s, q = 2 * eig.re, eig.re**2 + eig.im**2
            else:
                s, q = 2 * eig.lam, eig.lam**2
            scale = 1 + a.max_abs() ** 2
            assert abs(s - a.trace()) <= 1e-10 * scale
            assert abs(q - a.det()) <= 1e-10 * scale

    def test_matches_lapack_roots(self, rng):
        for _ in range(500):
            a = random_mat2(rng)
            eig = eigen_structure(decompose(a))
            roots = np.linalg.eigvals(a.as_array())
            scale = 1 + a.max_abs()
            if isinstance(eig, ComplexPairEigen):
                got = sorted([complex(eig.re, eig.im), complex(eig.re, -eig.im)], key=lambda z: z.imag)
                want = sorted(roots, key=lambda z: z.imag)
            else:
                if isinstance(eig, DistinctRealEigen):
                    got = [eig.lambda2, eig.lambda1]
                else:
                    got = [eig.lam, eig.lam]
                want = sorted(roots.real)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9 * scale

    def test_eigenvector_residual(self, rng):
        count = 0
        while count < 300:
            a = random_mat2(rng)
            eig = eigen_structure(decompose(a))
            if not isinstance(eig, DistinctRealEigen):
                continue
            count += 1
            norm = a.max_abs()
            for th, lam in ((eig.theta1.value, eig.lambda1), (eig.theta2.value, eig.lambda2)):
                v = np.array([math.cos(th), math.sin(th)])
                res = a.as_array() @ v - lam * v
                assert np.linalg.norm(res) <= 1e-9 * norm


class TestOrthoStructure:
    def test_triangular_example(self):
        ortho = ortho_structure(decompose(A_TRIANGULAR))
        assert isinstance(ortho, DistinctRealOrtho)
        assert ortho.mu1 == pytest.approx(4 + SQRT13, rel=1e-12)
        assert ortho.mu2 == pytest.approx(4 - SQRT13, rel=1e-12)
        # frozen from brute-force root finding on R
        assert ortho.delta_r == pytest.approx(0.5321758416906976, abs=1e-12)

    def test_spiral_example(self):
        ortho = ortho_structure(decompose(A_SPIRAL))
        assert ortho.mu1 == pytest.approx(5.813835714721706, rel=1e-12)
        assert ortho.mu2 == pytest.approx(2.186164285278294, rel=1e-12)

    def test_pure_rotation_is_all_ortho(self):
        ortho = ortho_structure(RTParams(0.0, 1.0, 0.0, None))
        assert isinstance(ortho, AllOrtho)
        assert ortho.mu == 1.0

    def test_single_signed_radial(self):
        ortho = ortho_structure(decompose(Mat2(-3.0, 0.1, 0.0, -3.0)))
        assert isinstance(ortho, NoRealOrtho)

    def test_repeated_ortho_touch_point(self):
        # p = |m_R| != 0 with m_R < 0: R touches zero at theta_R
        rt = RTParams(-2.0, 1.0, 2.0, AngleModPi(0.7))
        ortho = ortho_structure(rt)
        assert isinstance(ortho, RepeatedOrtho)
        assert angle_close(ortho.phi0.value, 0.7)
        assert abs(eval_radial(rt, ortho.phi0.value)) <= 1e-12

    def test_orthovalues_are_tangential_values_at_boundaries(self, rng):
        count = 0
        while count < 300:
            a = random_mat2(rng)
            rt = decompose(a)
            ortho = ortho_structure(rt)
            if not isinstance(ortho, DistinctRealOrtho):
                continue
            count += 1
            tol = 1e-10 * (1 + a.max_abs())
            assert abs(eval_tangential(rt, ortho.phi1.value) - ortho.mu1) <= tol
            assert abs(eval_tangential(rt, ortho.phi2.value) - ortho.mu2) <= tol
            assert abs(eval_radial(rt, ortho.phi1.value)) <= tol
            assert abs(eval_radial(rt, ortho.phi2.value)) <= tol

    def test_orthovector_residual(self, rng):
        count = 0
        while count < 300:
            a = random_mat2(rng)
            ortho = ortho_structure(decompose(a))
            if not isinstance(ortho, DistinctRealOrtho):
                continue
            count += 1
            norm = a.max_abs()
            for phi, mu in ((ortho.phi1.value, ortho.mu1), (ortho.phi2.value, ortho.mu2)):
                v = np.array([math.cos(phi), math.sin(phi)])
                vperp = np.array([-v[1], v[0]])
                res = a.as_array() @ v - mu * vperp
                assert np.linalg.norm(res) <= 1e-9 * norm

    def test_duality_with_rotated_system(self, rng):
        # orthovectors of A are eigenvectors of J^-1 A with equal values
        for _ in range(400):
            a = random_mat2(rng)
            ortho = ortho_structure(decompose(a))
            eig = eigen_structure(decompose(MINUS_J @ a))
            scale = 1 + a.max_abs()
            if isinstance(ortho, DistinctRealOrtho):
                assert isinstance(eig, DistinctRealEigen)
                assert abs(ortho.mu1 - eig.lambda1) <= 1e-9 * scale
                assert abs(ortho.mu2 - eig.lambda2) <= 1e-9 * scale
                assert angle_close(ortho.phi1.value, eig.theta1.value, 1e-9)
                assert angle_close(ortho.phi2.value, eig.theta2.value, 1e-9)
            elif isinstance(ortho, NoRealOrtho):
                assert isinstance(eig, ComplexPairEigen)
            elif isinstance(ortho, AllOrtho):
                assert isinstance(eig, RepeatedFullEigen)
                assert abs(ortho.mu - eig.lam) <= 1e-9 * scale


class TestSeparationIdentities:
    def test_amplitude_ties_separations(self, rng):
        # p sin(2 delta_T) = p_R and p sin(2 delta_R) = p_T
        for _ in range(400):
            a = random_mat2(rng)
            rt = decompose(a)
            eig = eigen_structure(rt)
            ortho = ortho_structure(rt)
            if isinstance(eig, DistinctRealEigen):
                assert rt.p * math.sin(2 * eig.delta_t) == pytest.approx(
                    eig.p_r, abs=1e-10 * (1 + rt.p)
                )
                assert math.cos(2 * eig.delta_t) == pytest.approx(
                    -rt.m_t / rt.p, abs=1e-10
                )
            if isinstance(ortho, DistinctRealOrtho):
                assert rt.p * math.sin(2 * ortho.delta_r) == pytest.approx(
                    ortho.p_t, abs=1e-10 * (1 + rt.p)
                )
                assert math.cos(2 * ortho.delta_r) == pytest.approx(
                    -rt.m_r / rt.p, abs=1e-10
                )


class TestTransientSummary:
    def test_triangular_is_reactive_attractor(self):
        s = transient_summary(decompose(A_TRIANGULAR))
        assert s.classification is Classification.REACTIVE_ATTRACTOR
        assert s.rho1 == pytest.approx(-2 + SQRT17, rel=1e-12)
        assert s.rho2 == pytest.approx(-2 - SQRT17, rel=1e-12)
        lo, hi = s.reactive_set
        ortho = ortho_structure(decompose(A_TRIANGULAR))
        assert lo == pytest.approx(ortho.phi1.value) and hi == pytest.approx(
            lo + 2 * ortho.delta_r
        )

    def test_saddle_flags(self):
        s = transient_summary(decompose(A_SADDLE))
        assert s.classification is Classification.SADDLE
        assert s.is_reactive and s.is_attenuating

    def test_symmetric_reactive_saddle_is_not_reactive_attractor(self):
        s = transient_summary(decompose(Mat2(-1.0, 2.0, 2.0, -1.0)))
        assert s.rho1 == pytest.approx(1.0)
        assert s.classification is Classification.SADDLE

    def test_classification_zoo(self):
        cases = [
            (Mat2(-3.0, 0.1, 0.0, -3.0), Classification.NONREACTIVE_ATTRACTOR),
            (Mat2(1.0, 8.0, 0.0, 3.0), Classification.ATTENUATING_REPELLER),
            (Mat2(1.0, 0.0, 0.0, 1.0), Classification.NONATTENUATING_REPELLER),
            (Mat2(0.0, -2.0, 1.0, 0.0), Classification.CENTER),
            (Mat2(0.0, -3.0, 3.0, 0.0), Classification.CIRCULAR_CENTER),
            (Mat2(1.0, 0.0, 0.0, 0.0), Classification.DEGENERATE),
            (Mat2(0.0, 0.0, 0.0, 0.0), Classification.DEGENERATE),
            (A_SPIRAL, Classification.REACTIVE_ATTRACTOR),
            # the remaining complex-pair classes
            (Mat2(-1.0, -2.0, 2.0, -1.0), Classification.NONREACTIVE_ATTRACTOR),
            (Mat2(-0.7, 4.0, -4.0, 4.7), Classification.ATTENUATING_REPELLER),
            (Mat2(1.0, -2.0, 2.0, 1.0), Classification.NONATTENUATING_REPELLER),
        ]
        for a, want in cases:
            assert transient_summary(decompose(a)).classification is want, a

    def test_reactive_attractor_needs_attracting_spectrum(self, rng):
        # symmetric systems: eigenvalues are rho1/rho2, eigenlines orthogonal,
        # never a reactive attractor nor attenuating repeller
        for _ in range(300):
            x, y, z = rng.uniform(-5, 5, size=3)
            a = Mat2(x, y, y, z)
            rt = decompose(a)
            eig = eigen_structure(rt)
            s = transient_summary(rt)
            assert s.classification not in (
                Classification.REACTIVE_ATTRACTOR,
                Classification.ATTENUATING_REPELLER,
            )
            if isinstance(eig, DistinctRealEigen):
                assert eig.lambda1 == pytest.approx(rt.rho1, abs=1e-10 * (1 + rt.p))
                assert eig.lambda2 == pytest.approx(rt.rho2, abs=1e-10 * (1 + rt.p))
                assert angle_close(
                    eig.theta1.value, eig.theta2.value + math.pi / 2, 1e-10
                )

    def test_trace_zero_balance(self, rng):
        # tr(A)=0: orthovectors orthogonal; center iff T is single-signed
        for _ in range(300):
            a11, a12, a21 = rng.uniform(-5, 5, size=3)
            a = Mat2(a11, a12, a21, -a11)
            rt = decompose(a)
            if rt.p == 0.0:
                continue
            ortho = ortho_structure(rt)
            s = transient_summary(rt)
            if isinstance(ortho, DistinctRealOrtho):
                assert angle_close(
                    ortho.phi1.value, ortho.phi2.value + math.pi / 2, 1e-10
                )
            single_signed = rt.p < abs(rt.m_t) - 1e-12 * (1 + abs(rt.m_t))
            if single_signed:
                assert s.classification is Classification.CENTER
            elif rt.p > abs(rt.m_t) + 1e-9 * (1 + abs(rt.m_t)):
                # symmetric saddle, unless an eigenvalue sits at zero
                assert s.classification in (
                    Classification.SADDLE,
                    Classification.DEGENERATE,
                )

    def test_reactive_set_full_and_empty(self):
        full = transient_summary(decompose(Mat2(3.0, 0.1, 0.0, 3.0)))
        assert full.reactive_set == (0.0, math.pi)
        empty = transient_summary(decompose(Mat2(-3.0, 0.1, 0.0, -3.0)))
        assert empty.reactive_set is None


class TestReactiveAttractorRequirement:
    @pytest.mark.parametrize("call, purpose", [
        (rho_max_closed, "maximal amplification"),
        (lambda a: NonautConfig(a, 1.0), "nonautonomous rotation analysis"),
        (repulsion_window, "the repulsion window"),
    ])
    def test_callers_share_one_message(self, call, purpose):
        with pytest.raises(
            InapplicableError,
            match=f"^{purpose} needs a reactive attractor; system classifies as saddle$",
        ):
            call(A_SADDLE)
        call(A_TRIANGULAR)  # a reactive attractor passes


class TestAngularPhaseLine:
    def test_saddle_attracts_toward_largest_eigenvalue(self):
        rt = decompose(A_SADDLE)
        line = angular_phase_line(rt)
        assert len(line.equilibria) == 2 and not line.all_angles
        attracting = [e for e in line.equilibria if e.stability is Stability.ATTRACTING]
        assert len(attracting) == 1
        assert eval_radial(rt, attracting[0].angle.value) == pytest.approx(
            (-1 + SQRT17) / 2, rel=1e-10
        )

    def test_spiral_has_no_equilibria(self):
        line = angular_phase_line(decompose(A_SPIRAL))
        assert line.equilibria == () and not line.all_angles

    def test_scaled_identity_rests_everywhere(self):
        line = angular_phase_line(decompose(Mat2(2.0, 0.0, 0.0, 2.0)))
        assert line.all_angles and line.equilibria == ()

    def test_defective_is_semi_stable(self):
        rt = RTParams(-1.0, 2.0, 2.0, AngleModPi(0.3))
        line = angular_phase_line(rt)
        assert len(line.equilibria) == 1
        assert line.equilibria[0].stability is Stability.SEMI_STABLE


# ---------------------------------------------------------------------------
# straddling the tie bands p = |m_T| and p = |m_R|

_midline = st.floats(-10.0, 10.0)
_tied = st.floats(0.1, 10.0).flatmap(lambda x: st.sampled_from((x, -x)))


def _straddle(m_r: float, m_t: float, on_m_t: bool, theta: float, k: float):
    """RTParams with p = |x| (1 + eps), x = m_T or m_R, eps k times the tie
    band's relative half width, and the bound sqrt(|p^2 - x^2|) / (2 |x|),
    about sqrt(eps / 2), on the angle that the two crossings then lie from
    the tie's single line (half the atan of that ratio)."""
    x = abs(m_t if on_m_t else m_r)
    p = x * (1.0 + k * CASE_RTOL * (abs(m_r) + abs(m_t) + x) / x)
    bound = 0.5 * math.sqrt(abs((p - x) * (p + x))) / x
    return RTParams(m_r, m_t, p, AngleModPi(theta)), bound * (1.0 + 1e-12) + 1e-14


def _tie(m_r: float, m_t: float, on_m_t: bool, theta: float) -> RTParams:
    return RTParams(m_r, m_t, abs(m_t if on_m_t else m_r), AngleModPi(theta))


class TestStraddling:
    """Each side of a tie band tends to the tie's own structure."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_midline, _tied, st.floats(0.0, math.pi), st.floats(0.3, 6.0))
    def test_eigenlines_close_on_the_defective_line(self, m_r, m_t, theta, log_k):
        tie = eigen_structure(_tie(m_r, m_t, True, theta))
        assert isinstance(tie, RepeatedDefectiveEigen)
        inside, _ = _straddle(m_r, m_t, True, theta, 0.5)
        assert eigen_structure(inside) == tie
        below, _ = _straddle(m_r, m_t, True, theta, -(10.0 ** log_k))
        assert isinstance(eigen_structure(below), ComplexPairEigen)
        above, bound = _straddle(m_r, m_t, True, theta, 10.0 ** log_k)
        eig = eigen_structure(above)
        assert isinstance(eig, DistinctRealEigen)
        assert eig.theta1.distance(tie.theta0) <= bound
        assert eig.theta2.distance(tie.theta0) <= bound

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tied, _midline, st.floats(0.0, math.pi), st.floats(0.3, 6.0))
    def test_orthovector_lines_close_on_phi0(self, m_r, m_t, theta, log_k):
        tie = ortho_structure(_tie(m_r, m_t, False, theta))
        assert isinstance(tie, RepeatedOrtho)
        inside, _ = _straddle(m_r, m_t, False, theta, 0.5)
        assert ortho_structure(inside) == tie
        below, _ = _straddle(m_r, m_t, False, theta, -(10.0 ** log_k))
        assert isinstance(ortho_structure(below), NoRealOrtho)
        above, bound = _straddle(m_r, m_t, False, theta, 10.0 ** log_k)
        ortho = ortho_structure(above)
        assert isinstance(ortho, DistinctRealOrtho)
        assert ortho.phi1.distance(tie.phi0) <= bound
        assert ortho.phi2.distance(tie.phi0) <= bound

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tied, _midline, st.floats(0.0, math.pi), st.floats(0.3, 6.0))
    def test_reactive_set_empties_or_fills_the_period(self, m_r, m_t, theta, log_k):
        # m_R < 0: the arc shrinks to nothing; m_R > 0: it grows to the whole
        # period but its touch point phi0, and then R > 0 everywhere
        phi0 = ortho_structure(_tie(m_r, m_t, False, theta)).phi0.value
        inside, _ = _straddle(m_r, m_t, False, theta, 0.5)
        below, _ = _straddle(m_r, m_t, False, theta, -(10.0 ** log_k))
        above, bound = _straddle(m_r, m_t, False, theta, 10.0 ** log_k)
        lo, hi = transient_summary(above).reactive_set
        if m_r < 0:
            assert transient_summary(inside).reactive_set is None
            assert transient_summary(below).reactive_set is None
            assert 0.0 < hi - lo <= 2.0 * bound
            assert angle_close(lo, phi0, bound) and angle_close(hi, phi0, bound)
        else:
            assert transient_summary(inside).reactive_set == (phi0, phi0 + math.pi)
            assert transient_summary(below).reactive_set == (0.0, math.pi)
            assert 0.0 < math.pi - (hi - lo) <= 2.0 * bound
            assert angle_close(lo, phi0, bound)
