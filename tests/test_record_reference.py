"""The float paths of the analytic layers against the record-based derivation.

The standard forms, verify_form and transient_summary read plain floats from
private helpers.  The references below derive the same numbers the long way,
through the public records (decompose, then eigen_structure, ortho_structure
and theta_t), and every float must agree bit for bit.
"""

import math

import pytest

from reactlin import (
    AllOrtho,
    Classification,
    ComplexPairEigen,
    DistinctRealEigen,
    DistinctRealOrtho,
    InapplicableError,
    Mat2,
    NoRealOrtho,
    RepeatedOrtho,
    decompose,
    eigen_structure,
    ortho_structure,
    reconstruct,
    rotate_conjugate,
    transient_summary,
)
from reactlin.core import AngleModPi, RTParams, _norm_mod_pi, _scale
from reactlin.forms import (
    VERIFY_RTOL,
    StandardFormKind,
    to_r_centered,
    to_r_zeroed,
    to_t_centered,
    to_t_zeroed,
    verify_form,
)
from reactlin.spectra import CASE_RTOL

BUILDERS = {
    StandardFormKind.R_CENTERED: to_r_centered,
    StandardFormKind.T_CENTERED: to_t_centered,
    StandardFormKind.R_ZEROED: to_r_zeroed,
    StandardFormKind.T_ZEROED: to_t_zeroed,
}


def reference_form(a: Mat2, kind: StandardFormKind) -> tuple[float, Mat2]:
    """gamma and the form, from the records; InapplicableError where undefined."""
    rt = decompose(a)
    if rt.theta_r is None:
        raise InapplicableError("no phase angle")
    if kind is StandardFormKind.R_CENTERED:
        gamma = rt.theta_r.value
    elif kind is StandardFormKind.T_CENTERED:
        gamma = rt.theta_t.value
    elif kind is StandardFormKind.R_ZEROED:
        ortho = ortho_structure(rt)
        if not isinstance(ortho, DistinctRealOrtho):
            raise InapplicableError("R does not cross zero")
        gamma = rt.theta_r.value - ortho.delta_r
    else:
        eig = eigen_structure(rt)
        if not isinstance(eig, DistinctRealEigen):
            raise InapplicableError("no distinct real eigenvalues")
        gamma = rt.theta_t.value - eig.delta_t
    g = _norm_mod_pi(gamma)
    if g > math.pi / 2:
        g -= math.pi
    return g, rotate_conjugate(a, g)


def reference_verdict(a: Mat2, kind: StandardFormKind) -> bool:
    rt = decompose(a)
    tol = VERIFY_RTOL * _scale(rt.m_r, rt.m_t, rt.p)
    if kind is StandardFormKind.R_CENTERED:
        return abs(a.a11 - rt.rho1) <= tol
    if kind is StandardFormKind.T_CENTERED:
        return abs(a.a21 - rt.tau1) <= tol
    if kind is StandardFormKind.R_ZEROED:
        return abs(a.a11) <= tol and a.a12 + a.a21 >= -tol
    return abs(a.a21) <= tol and a.a22 - a.a11 >= -tol


def reference_summary(rt: RTParams) -> tuple:
    """The transient summary's fields, classified from the two structure
    records; the ortho record alone decides whether R is positive or
    negative somewhere."""
    eig, ortho = eigen_structure(rt), ortho_structure(rt)
    tol = CASE_RTOL * _scale(rt.m_r, rt.m_t, rt.p)
    one_sign = isinstance(ortho, (NoRealOrtho, RepeatedOrtho))
    reactive = isinstance(ortho, DistinctRealOrtho) or (one_sign and rt.m_r > 0)
    attenuating = isinstance(ortho, DistinctRealOrtho) or (one_sign and rt.m_r < 0)
    if isinstance(eig, DistinctRealEigen):
        lam1, lam2 = eig.lambda1, eig.lambda2
    else:
        lam1 = lam2 = rt.m_r
    if isinstance(ortho, AllOrtho):
        cls = Classification.CIRCULAR_CENTER if abs(rt.m_t) > tol else Classification.DEGENERATE
    elif min(abs(lam1), abs(lam2)) <= tol:
        cls = Classification.CENTER if isinstance(eig, ComplexPairEigen) else Classification.DEGENERATE
    elif lam1 < 0 and lam2 < 0:
        cls = (Classification.REACTIVE_ATTRACTOR if reactive
               else Classification.NONREACTIVE_ATTRACTOR)
    elif lam1 > 0 and lam2 > 0:
        cls = (Classification.ATTENUATING_REPELLER if attenuating
               else Classification.NONATTENUATING_REPELLER)
    else:
        cls = Classification.SADDLE
    if isinstance(ortho, DistinctRealOrtho):
        arc = (ortho.phi1.value, ortho.phi1.value + 2.0 * ortho.delta_r)
    elif isinstance(ortho, RepeatedOrtho) and rt.m_r > 0:
        arc = (ortho.phi0.value, ortho.phi0.value + math.pi)
    elif isinstance(ortho, NoRealOrtho) and rt.m_r > 0:
        arc = (0.0, math.pi)
    else:
        arc = None
    return rt.rho1, rt.rho2, arc, cls, reactive, attenuating


def _hex(x):
    """float.hex through tuples, Mat2 and None; other values as they are."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Mat2):
        return tuple(v.hex() for v in (x.a11, x.a12, x.a21, x.a22))
    if isinstance(x, tuple):
        return tuple(_hex(v) for v in x)
    return x


def _draws(rng):
    """2000 generic matrices at scales 2^-60..2^60, flat ones (p = 0), then
    matrices with p at |m_T| or |m_R| times 1 +- k CASE_RTOL, on both sides
    of each tie band."""
    for _ in range(2000):
        scale = 2.0 ** int(rng.integers(-60, 61))
        yield Mat2(*(float(v) * scale for v in rng.uniform(-1.0, 1.0, size=4)))
    for c, w in ((2.0, 0.0), (-0.5, 0.0), (0.0, 3.0), (0.0, 0.0), (-0.0, -0.0), (1e-300, 1e-300)):
        yield Mat2(c, -w, w, c)
    for k in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 1e3, 1e6):
        for sign in (1.0, -1.0):
            for on_m_t in (True, False):
                for _ in range(25):
                    scale = 2.0 ** int(rng.integers(-60, 61))
                    m_r, m_t = (float(v) * scale for v in rng.uniform(-2.0, 2.0, size=2))
                    p = abs(m_t if on_m_t else m_r) * (1.0 + sign * k * CASE_RTOL)
                    theta = AngleModPi(float(rng.uniform(0.0, math.pi))) if p > 0.0 else None
                    yield reconstruct(RTParams(m_r, m_t, p, theta))


def test_float_paths_match_the_record_derivation_bit_for_bit(rng):
    seen = set()
    for a in _draws(rng):
        rt = decompose(a)
        s = transient_summary(rt)
        got = (s.rho1, s.rho2, s.reactive_set, s.classification, s.is_reactive, s.is_attenuating)
        assert _hex(got) == _hex(reference_summary(rt))
        eig = eigen_structure(rt)
        seen.add((type(eig), type(ortho_structure(rt))))
        if isinstance(eig, DistinctRealEigen):
            assert _hex((eig.theta1.value, eig.theta2.value)) == _hex(
                (rt.theta_t.shifted(eig.delta_t).value, rt.theta_t.shifted(-eig.delta_t).value))

        for kind, builder in BUILDERS.items():
            assert verify_form(a, kind) is reference_verdict(a, kind)
            try:
                want = reference_form(a, kind)
            except InapplicableError:
                with pytest.raises(InapplicableError):
                    builder(a)
                continue
            res = builder(a)
            assert res.kind is kind
            assert _hex((res.gamma, res.matrix)) == _hex(want)
            for check in StandardFormKind:
                assert verify_form(res.matrix, check) is reference_verdict(res.matrix, check)
    # every eigen and every ortho case occurs
    assert len({e for e, _ in seen}) == 4 and len({o for _, o in seen}) == 4
