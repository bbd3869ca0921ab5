import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reactlin import (
    AngleModPi,
    InvalidInputError,
    Mat2,
    QUARTER_TURN,
    RTParams,
    decompose,
    eval_radial,
    eval_tangential,
    reconstruct,
    reflect_conjugate,
    rotate_conjugate,
    rotation_matrix,
    symmetric_part_reactivity,
)
from conftest import A_SADDLE, A_SPIRAL, A_TRIANGULAR, angle_close, mat_close, random_mat2

SQRT17 = math.sqrt(17.0)


class TestAngleModPi:
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_normalized_and_idempotent(self, x):
        a = AngleModPi(x)
        assert 0.0 <= a.value < math.pi
        assert AngleModPi(a.value).value == a.value

    def test_negative_epsilon_folds_into_range(self):
        a = AngleModPi(-1e-18)
        assert 0.0 <= a.value < math.pi
        # the range's edges, bit for bit (a float already in [0, pi) is
        # kept), and other reals come out as floats
        below_pi = math.nextafter(math.pi, 0.0)
        for x, expected in ((0.0, 0.0), (-0.0, -0.0), (math.pi, 0.0), (below_pi, below_pi),
                            (-1e-18, 0.0), (1, 1.0), (np.float64(0.5), 0.5)):
            v = AngleModPi(x).value
            assert type(v) is float and v.hex() == expected.hex()

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            AngleModPi(float("nan"))

    def test_names_the_angle_it_cannot_convert(self):
        for bad, message in (("x", "angle='x' is not a real number"),
                             (None, "angle=None is not a real number"),
                             (10**400, "angle is too large for a float"),
                             (Fraction(-10**400, 3), "angle is too large for a float"),
                             (math.inf, "angle=inf is not finite"),
                             (np.float64("nan"), f"angle={np.float64('nan')!r} is not finite")):
            with pytest.raises(InvalidInputError) as exc:
                AngleModPi(bad)
            assert str(exc.value) == message


class TestMat2:
    def test_rejects_non_finite(self):
        for i, name in enumerate(("a11", "a12", "a21", "a22")):
            for bad in (math.nan, math.inf, -math.inf):
                entries = [1.0, -2.0, 0.5, 3.0]
                entries[i] = bad
                with pytest.raises(InvalidInputError) as exc:
                    Mat2(*entries)
                assert str(exc.value) == f"matrix entry {name}={bad!r} is not finite"

    def test_accepts_numpy_reals(self):
        a = Mat2(np.int64(1), np.float32(-0.5), np.float64(0.0), np.int32(-3))
        assert a == Mat2(1.0, -0.5, 0.0, -3.0)
        assert all(type(v) is float for v in (a.a11, a.a12, a.a21, a.a22))
        for v in (2, True, np.float64(0.25), np.float32(0.25), Fraction(1, 4)):
            a = Mat2(1.0, v, 0.0, 1.0)
            assert type(a.a12) is float and a.a12 == float(v)

    def test_rejects_non_numbers(self):
        for bad in ("1", None, 1j, np.complex128(1.0)):
            with pytest.raises(InvalidInputError, match="is not a real number"):
                Mat2(1.0, bad, 0.0, 1.0)
        with pytest.raises(InvalidInputError, match="is not finite"):
            Mat2(1.0, 0.0, np.float32("inf"), 1.0)

    def test_rejects_reals_beyond_the_float_range(self):
        for big in (10**400, -(10**400), Fraction(10**400, 3)):
            with pytest.raises(InvalidInputError, match="entry a21 is too large") as exc:
                Mat2(1.0, 0.0, big, 1.0)
            assert len(str(exc.value)) < 80

    def test_array_round_trip(self):
        a = Mat2.from_array(A_TRIANGULAR.as_array())
        assert a == A_TRIANGULAR


class TestRTParams:
    def test_theta_required_iff_p_positive(self):
        with pytest.raises(InvalidInputError):
            RTParams(1.0, 2.0, 0.5, None)
        with pytest.raises(InvalidInputError):
            RTParams(1.0, 2.0, 0.0, AngleModPi(0.3))
        with pytest.raises(InvalidInputError):
            RTParams(1.0, 2.0, -0.1, AngleModPi(0.3))
        for i, name in enumerate(("m_r", "m_t", "p")):
            for bad, message in ((math.nan, f"{name}=nan is not finite"),
                                 (math.inf, f"{name}=inf is not finite"),
                                 (-math.inf, f"{name}=-inf is not finite"),
                                 ("x", f"{name}='x' is not a real number"),
                                 (1j, f"{name}=1j is not a real number"),
                                 (10**400, f"{name} is too large for a float"),
                                 (Fraction(10**400, 3), f"{name} is too large for a float")):
                rates = [1.0, 2.0, 0.5]
                rates[i] = bad
                with pytest.raises(InvalidInputError) as exc:
                    RTParams(*rates, AngleModPi(0.3))
                assert str(exc.value) == message
        rt = RTParams(1, np.float32(2.0), Fraction(1, 2), AngleModPi(0.3))
        assert all(type(v) is float for v in (rt.m_r, rt.m_t, rt.p))

    def test_extreme_accessors(self):
        rt = RTParams(-2.0, 4.0, 3.0, AngleModPi(1.0))
        assert rt.rho1 == 1.0 and rt.rho2 == -5.0
        assert rt.tau1 == 7.0 and rt.tau2 == 1.0
        assert angle_close(rt.theta_t.value, 1.0 - math.pi / 4)


class TestDecompose:
    def test_triangular_example(self):
        rt = decompose(A_TRIANGULAR)
        assert rt.m_r == pytest.approx(-2.0, abs=1e-15)
        assert rt.m_t == pytest.approx(4.0, abs=1e-15)
        assert rt.p == pytest.approx(SQRT17, rel=1e-15)
        assert rt.theta_r.value == pytest.approx(2.478683821755777, abs=1e-12)

    def test_refuses_a_rate_scale_beyond_the_float_range(self):
        # |m_R| + |m_T| + p is 1.74e308 at 2e307 and overflows at 2.2e307
        assert decompose(A_SPIRAL.scaled(2e307)).p == pytest.approx(5.4e307)
        with pytest.raises(InvalidInputError, match="rate scale overflows"):
            decompose(A_SPIRAL.scaled(2.2e307))

    def test_identity_has_no_phase(self):
        rt = decompose(Mat2(1.0, 0.0, 0.0, 1.0))
        assert (rt.m_r, rt.m_t, rt.p) == (1.0, 0.0, 0.0)
        assert rt.theta_r is None

    def test_spiral_example(self):
        rt = decompose(A_SPIRAL)
        assert rt.m_r == pytest.approx(-2.0, abs=1e-15)
        assert rt.m_t == pytest.approx(4.0, abs=1e-15)
        assert rt.p == pytest.approx(2.7, rel=1e-15)


class TestReconstruct:
    def test_round_trip_of_triangular(self):
        assert mat_close(reconstruct(decompose(A_TRIANGULAR)), A_TRIANGULAR, 1e-12)

    def test_flat_params_give_scaled_identity(self):
        a = reconstruct(RTParams(2.5, 0.0, 0.0, None))
        assert mat_close(a, Mat2(2.5, 0.0, 0.0, 2.5), 0.0)

    def test_pure_rotation_field(self):
        a = reconstruct(RTParams(0.0, 1.0, 0.0, None))
        assert mat_close(a, QUARTER_TURN, 0.0)

    def test_bijection_on_random_matrices(self, rng):
        for _ in range(2000):
            a = random_mat2(rng)
            b = reconstruct(decompose(a))
            tol = 1e-12 * (1.0 + a.max_abs())
            assert mat_close(a, b, tol)


class TestEvaluation:
    def test_radial_max_is_reactivity(self):
        rt = decompose(A_TRIANGULAR)
        assert eval_radial(rt, rt.theta_r.value) == pytest.approx(-2 + SQRT17, rel=1e-14)

    def test_flat_radial(self):
        rt = decompose(Mat2(3.0, 0.0, 0.0, 3.0))
        for th in (0.0, 0.5, 2.0):
            assert eval_radial(rt, th) == 3.0
            assert eval_tangential(rt, th) == 0.0

    def test_axis_identities_on_examples(self):
        rt = decompose(A_SADDLE)
        assert eval_radial(rt, 0.0) == pytest.approx(-2.0, abs=1e-14)
        assert eval_tangential(rt, 0.0) == pytest.approx(2.0, abs=1e-14)
        rt = decompose(A_TRIANGULAR)
        assert eval_tangential(rt, math.pi / 2) == pytest.approx(8.0, abs=1e-13)

    def test_axis_identities_random(self, rng):
        # R(0)=a11, T(0)=a21, R(pi/2)=a22, T(pi/2)=-a12
        for _ in range(300):
            a = random_mat2(rng)
            rt = decompose(a)
            tol = 1e-12 * (1 + a.max_abs())
            assert eval_radial(rt, 0.0) == pytest.approx(a.a11, abs=tol)
            assert eval_tangential(rt, 0.0) == pytest.approx(a.a21, abs=tol)
            assert eval_radial(rt, math.pi / 2) == pytest.approx(a.a22, abs=tol)
            assert eval_tangential(rt, math.pi / 2) == pytest.approx(-a.a12, abs=tol)

    def test_pi_periodic_and_phase_locked(self, rng):
        for _ in range(100):
            a = random_mat2(rng)
            rt = decompose(a)
            if rt.theta_r is None:
                continue
            th_r = rt.theta_r.value
            th_t = th_r - math.pi / 4
            for th in rng.uniform(0, math.pi, size=8):
                assert eval_radial(rt, th + math.pi) == pytest.approx(
                    eval_radial(rt, th), abs=1e-10 * (1 + a.max_abs())
                )
                # the maximum really sits at theta_R (resp. theta_T)
                assert eval_radial(rt, th) <= eval_radial(rt, th_r) + 1e-12
                assert eval_tangential(rt, th) <= eval_tangential(rt, th_t) + 1e-12

    def test_additivity(self, rng):
        for _ in range(200):
            a, b = random_mat2(rng), random_mat2(rng)
            rt_a, rt_b, rt_ab = decompose(a), decompose(b), decompose(a + b)
            for th in rng.uniform(0, math.pi, size=8):
                assert eval_radial(rt_ab, th) == pytest.approx(
                    eval_radial(rt_a, th) + eval_radial(rt_b, th), abs=1e-10
                )
                assert eval_tangential(rt_ab, th) == pytest.approx(
                    eval_tangential(rt_a, th) + eval_tangential(rt_b, th), abs=1e-10
                )


class TestRotateConjugate:
    def test_zero_and_half_turn_are_identity(self, rng):
        a = random_mat2(rng)
        assert mat_close(rotate_conjugate(a, 0.0), a, 1e-14 * (1 + a.max_abs()))
        assert mat_close(rotate_conjugate(a, math.pi), a, 1e-12 * (1 + a.max_abs()))

    def test_rotation_by_phase_centers_the_radial_max(self):
        rt = decompose(A_TRIANGULAR)
        b = rotate_conjugate(A_TRIANGULAR, rt.theta_r.value)
        expected = Mat2(-2 + SQRT17, -4.0, 4.0, -2 - SQRT17)
        assert mat_close(b, expected, 1e-12)

    def test_horizontal_shift(self, rng):
        for _ in range(100):
            a = random_mat2(rng)
            gamma = rng.uniform(-6.0, 6.0)
            rt_a = decompose(a)
            rt_b = decompose(rotate_conjugate(a, gamma))
            for th in rng.uniform(0, math.pi, size=8):
                assert eval_radial(rt_b, th) == pytest.approx(
                    eval_radial(rt_a, th + gamma), abs=1e-10 * (1 + a.max_abs())
                )
                assert eval_tangential(rt_b, th) == pytest.approx(
                    eval_tangential(rt_a, th + gamma), abs=1e-10 * (1 + a.max_abs())
                )

    def test_matches_the_two_products_bit_for_bit(self, rng):
        for _ in range(200):
            a = random_mat2(rng).scaled(2.0 ** int(rng.integers(-500, 501)))
            gamma = float(rng.uniform(-10.0, 10.0))
            b = rotate_conjugate(a, gamma)
            ref = rotation_matrix(-gamma) @ a @ rotation_matrix(gamma)
            assert [x.hex() for x in (b.a11, b.a12, b.a21, b.a22)] == \
                [x.hex() for x in (ref.a11, ref.a12, ref.a21, ref.a22)]
        # M_-gamma A overflows before the second product
        a = Mat2(1.5e308, 0.0, 1.5e308, 0.0)
        with pytest.raises(InvalidInputError):
            rotation_matrix(-math.pi / 4) @ a
        with pytest.raises(InvalidInputError):
            rotate_conjugate(a, math.pi / 4)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(InvalidInputError):
            rotate_conjugate(A_TRIANGULAR, float("nan"))
        for bad, message in (("x", "rotation angle='x' is not a real number"),
                             (10**400, "rotation angle is too large for a float"),
                             (-math.inf, "rotation angle=-inf is not finite")):
            with pytest.raises(InvalidInputError) as exc:
                rotate_conjugate(A_TRIANGULAR, bad)
            assert str(exc.value) == message


class TestReflectConjugate:
    def test_flips_off_diagonal_signs(self):
        assert reflect_conjugate(A_TRIANGULAR) == Mat2(-1.0, 8.0, 0.0, -3.0)

    def test_symmetric_matrix_keeps_zero_m_t(self):
        a = Mat2(-1.0, 2.0, 2.0, -1.0)
        assert decompose(reflect_conjugate(a)).m_t == 0.0

    def test_negates_m_t_only(self, rng):
        for _ in range(200):
            a = random_mat2(rng)
            rt, rt_ref = decompose(a), decompose(reflect_conjugate(a))
            tol = 1e-12 * (1 + a.max_abs())
            assert rt_ref.m_r == pytest.approx(rt.m_r, abs=tol)
            assert rt_ref.m_t == pytest.approx(-rt.m_t, abs=tol)
            assert rt_ref.p == pytest.approx(rt.p, abs=tol)

    def test_spiral_example(self):
        rt = decompose(reflect_conjugate(A_SPIRAL))
        assert rt.m_t == pytest.approx(-4.0, abs=1e-14)
        assert rt.p == pytest.approx(2.7, rel=1e-14)


class TestSymmetricPartReactivity:
    def test_examples(self):
        assert symmetric_part_reactivity(A_TRIANGULAR) == pytest.approx(
            -2 + SQRT17, rel=1e-14
        )
        assert symmetric_part_reactivity(Mat2(1, 0, 0, 1)) == pytest.approx(1.0)
        assert symmetric_part_reactivity(Mat2(-1, 2, 2, -1)) == pytest.approx(1.0)

    def test_equals_midline_plus_amplitude(self, rng):
        for _ in range(500):
            a = random_mat2(rng)
            rt = decompose(a)
            tol = 1e-10 * (1 + abs(rt.m_r) + rt.p)
            assert abs(symmetric_part_reactivity(a) - (rt.m_r + rt.p)) <= tol


@given(
    st.tuples(
        st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)
    )
)
def test_bijection_hypothesis(entries):
    a = Mat2(*entries)
    b = reconstruct(decompose(a))
    tol = 1e-12 * (1.0 + a.max_abs())
    assert mat_close(a, b, tol)
