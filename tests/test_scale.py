"""Scale invariance: A -> cA (c > 0) scales every rate by c and time by 1/c.

Angles, the classification, rho_max and theta_entry do not change.  For
c a power of two every step of the library is exact in floating point, so
the results must agree to the bit.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from reactlin import (
    AngleModPi,
    Classification,
    Mat2,
    RTParams,
    decompose,
    eigen_structure,
    ortho_structure,
    reconstruct,
    rho_max_closed,
    transient_summary,
)

# Entries away from the subnormal range, with small integers for exact ties
# (repeated spectra, zero amplitude, singular and zero matrices).
_entry = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3),
)
_generic = st.tuples(_entry, _entry, _entry, _entry).map(lambda e: Mat2(*e))


@st.composite
def _attractor(draw) -> Mat2:
    """Reactive attractor with p = 1, |m_R| in [0.05, 0.95], m_T/p_T in [1.001, 5]."""
    u = draw(st.floats(0.05, 0.95))
    m_t = math.sqrt(1.0 - u * u) * draw(st.floats(1.001, 5.0))
    sign = draw(st.sampled_from((1.0, -1.0)))
    theta = draw(st.floats(0.0, math.pi, exclude_max=True))
    return reconstruct(RTParams(-u, sign * m_t, 1.0, AngleModPi(theta)))


def _parts(obj, k: int) -> tuple[list, list, list]:
    """Labels, angles and rates (multiplied by 2^k) of a result record."""
    labels, angles, rates = [type(obj).__name__], [], []
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, AngleModPi):
            angles.append(v.value)
        elif f.name.startswith("delta") or f.name == "reactive_set":
            angles.append(v)
        elif isinstance(v, float):
            rates.append(math.ldexp(v, k))
        else:
            labels.append(v)
    return labels, angles, rates


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_generic, _attractor()), st.integers(-900, 900))
def test_power_of_two_scaling_is_exact(a, k):
    b = a.scaled(math.ldexp(1.0, k))
    rt_a, rt_b = decompose(a), decompose(b)
    for analysis in (lambda rt: rt, eigen_structure, ortho_structure, transient_summary):
        assert _parts(analysis(rt_a), k) == _parts(analysis(rt_b), 0)
    if transient_summary(rt_a).classification is Classification.REACTIVE_ATTRACTOR:
        res_a, res_b = rho_max_closed(a), rho_max_closed(b)
        assert res_b.rho_max == res_a.rho_max
        assert res_b.theta_entry == res_a.theta_entry
        assert res_b.t_max == math.ldexp(res_a.t_max, -k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_attractor(), st.floats(-200.0, 200.0))
def test_any_scaling_keeps_rho_max(a, log10_c):
    b = a.scaled(10.0**log10_c)
    assert transient_summary(decompose(b)).classification is Classification.REACTIVE_ATTRACTOR
    rho_a, rho_b = rho_max_closed(a).rho_max, rho_max_closed(b).rho_max
    # the spread is the rounding of c * a_ij in the entries
    assert abs(rho_b - rho_a) <= 2e-12 * rho_a
