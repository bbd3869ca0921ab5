"""Radial/tangential decomposition of planar linear vector fields.

A real 2x2 matrix A defines the linear system X' = AX.  On the unit
circle the field splits into a component along X and a component along
the counter-clockwise normal X-perp,

    A X = R(theta) X + T(theta) X_perp,

and both coefficients are pi-periodic sinusoids sharing one amplitude:

    R(theta) = m_R + p cos(2 (theta - theta_R))
    T(theta) = m_T - p sin(2 (theta - theta_R))

The four numbers (m_R, m_T, p, theta_R) encode A exactly, and this
module owns that bijection plus the small set of exact matrix moves
(rotation conjugation, axis reflection) the rest of the package is
built on, with the closed-form e^{At} that certifies rho_max_closed and
checks the integrators (kept here so that the analytic layers never
import dynamics).  R is the instantaneous radial growth rate, T the angular
velocity, so everything about transient amplification is readable from
these two curves.

All types are immutable values and all functions are pure; they are
safe to call concurrently without synchronization.  The record types of
the package are declared with _record, a frozen dataclass without the
dataclasses import: their __init__ is generated as dataclasses writes it,
and dataclasses introspection (fields, replace, asdict) loads dataclasses
on first use.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import InvalidInputError, NumericFailureError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AngleModPi",
    "Mat2",
    "RTParams",
    "QUARTER_TURN",
    "angle_distance_mod_pi",
    "decompose",
    "reconstruct",
    "eval_radial",
    "eval_tangential",
    "rotate_conjugate",
    "reflect_conjugate",
    "rotation_matrix",
    "symmetric_part_reactivity",
    "matrix_exponential",
]

# Fraction of the rate scale (see _scale) at or below which the shared
# amplitude p is treated as zero (theta_R is undefined there).
P_ZERO_RTOL = 1e-12


def _scale(m_r: float, m_t: float, p: float) -> float:
    """The rate scale |m_R| + |m_T| + p that every near-tie is measured against."""
    s = abs(m_r) + abs(m_t) + p
    if s == math.inf:  # every tolerance would be infinite, every case a tie
        raise InvalidInputError(f"rate scale overflows: m_R={m_r!r}, m_T={m_t!r}, p={p!r}")
    return s


def _separation(a: float, b: float) -> float:
    """sqrt(a^2 - b^2) for |a| > |b|, formed as (a - b)(a + b) in a's binade:
    no rate is squared, and the result scales exactly with a and b."""
    e = math.frexp(a)[1]
    a, b = math.ldexp(a, -e), math.ldexp(b, -e)
    return math.ldexp(math.sqrt((a - b) * (a + b)), e)


def _norm_mod_pi(x: float) -> float:
    """Reduce an angle to [0, pi).  Idempotent under repetition."""
    if type(x) is float and 0.0 <= x < math.pi:  # fmod is exact here: same bits
        return x
    y = math.fmod(x, math.pi)
    if y < 0.0:
        y += math.pi
    # fmod of a tiny negative can round up to pi itself; fold it back.
    if y >= math.pi:
        y -= math.pi
    return y


def _real(label: str, v, positive: bool = False) -> float:
    """v as a finite float, > 0 if positive: the one admission rule for a
    public scalar argument.  Anything else raises InvalidInputError naming
    label: a non-number, a real beyond the float range, nan or inf, and a
    value that is not positive when positive is asked for."""
    if type(v) is float and math.isfinite(v) and (v > 0.0 or not positive):
        return v
    if not isinstance(v, (int, float)):
        import numbers  # numpy integers, float32 etc.; kept off the cold path
        if not isinstance(v, numbers.Real):
            raise InvalidInputError(f"{label}={v!r} is not a real number")
    try:
        x = float(v)
    except OverflowError:  # an integer or fraction beyond the float range
        raise InvalidInputError(f"{label} is too large for a float") from None
    if not math.isfinite(x):
        raise InvalidInputError(f"{label}={v!r} is not finite")
    if positive and x <= 0.0:
        raise InvalidInputError(f"{label}={v!r} is not positive")
    return x


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Fields:
    """A record's __dataclass_fields__, which dataclasses.fields, replace,
    asdict and is_dataclass read: on first read it is taken from
    dataclasses.make_dataclass over the same fields and defaults, and
    cached on the class."""

    def __get__(self, instance, owner: type) -> dict:
        import dataclasses
        spec = [(n, owner.__annotations__[n], dataclasses.field(default=owner.__dict__[n]))
                if n in owner.__dict__ else (n, owner.__annotations__[n])
                for n in owner.__match_args__]
        fields = dataclasses.make_dataclass(owner.__name__, spec).__dataclass_fields__
        owner.__dataclass_fields__ = fields
        return fields


def _record(cls=None, /, *, eq: bool = True):
    """Class decorator standing in for @dataclass(frozen=True, eq=eq) without
    importing dataclasses: a generated __init__ with the body dataclasses
    writes (each annotated field in order, its class default, then any
    __post_init__), and shared __repr__, __eq__, __hash__ and frozen
    __setattr__/__delattr__ over the field tuple __match_args__."""
    if cls is None:
        return lambda c: _record(c, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    params = "".join(f", {n}=_d[{n!r}]" if n in cls.__dict__ else f", {n}" for n in names)
    body = "".join(f"\n    _setattr(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    scope: dict = {}
    exec(f"def __init__(self{params}):{body or ' pass'}",
         {"_setattr": object.__setattr__, "_d": cls.__dict__}, scope)
    cls.__init__, cls.__match_args__, cls.__repr__ = scope["__init__"], names, _repr
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    if eq:
        cls.__eq__, cls.__hash__ = _eq, _hash
    cls.__dataclass_fields__ = _Fields()
    return cls


def angle_distance_mod_pi(a: float, b: float) -> float:
    """Distance between two angles identified modulo pi, in [0, pi/2]."""
    d = _norm_mod_pi(_real("a", a) - _real("b", b))
    return min(d, math.pi - d)


@_record
class AngleModPi:
    """An angle of a pi-periodic quantity, normalized to [0, pi).

    Directions (eigenlines, orthovector lines, sinusoid maxima) are only
    defined up to a half turn, so they live here.  Trajectory phases, by
    contrast, are kept unnormalized so that winding stays observable.
    """

    value: float

    def __post_init__(self) -> None:
        v = self.value
        if type(v) is not float or not math.isfinite(v):
            v = _real("angle", v)
        y = _norm_mod_pi(v)
        if y is not self.value:
            object.__setattr__(self, "value", y)

    def shifted(self, delta: float) -> "AngleModPi":
        return AngleModPi(self.value + delta)

    def distance(self, other: "AngleModPi | float") -> float:
        o = other.value if isinstance(other, AngleModPi) else other
        return angle_distance_mod_pi(self.value, o)


@_record
class Mat2:
    """Real 2x2 coefficient matrix of the system X' = AX.

    Entries are plain rates (units 1/time) and must be finite reals of
    any numbers.Real type, numpy scalars included, that convert to a
    finite float.  Every tolerance is a fraction of the rate scale
    |m_R| + |m_T| + p, so A and cA (c > 0) classify alike; decompose
    refuses a matrix whose rate scale overflows (entries above ~5e307).
    """

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self) -> None:
        a11, a12, a21, a22 = self.a11, self.a12, self.a21, self.a22
        if (type(a11) is type(a12) is type(a21) is type(a22) is float and math.isfinite(a11)
                and math.isfinite(a12) and math.isfinite(a21) and math.isfinite(a22)):
            return
        # Anything else is converted entry by entry, or refused with its name.
        for name in ("a11", "a12", "a21", "a22"):
            object.__setattr__(self, name, _real(f"matrix entry {name}", getattr(self, name)))

    @classmethod
    def from_array(cls, arr) -> "Mat2":
        import numpy as np
        a = np.asarray(arr, dtype=float)
        if a.shape != (2, 2):
            raise InvalidInputError(f"expected a 2x2 array, got shape {a.shape}")
        return cls(a[0, 0], a[0, 1], a[1, 0], a[1, 1])

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

    def trace(self) -> float:
        return self.a11 + self.a22

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def apply(self, x1: float, x2: float) -> tuple[float, float]:
        """Matrix-vector product A (x1, x2)."""
        return (self.a11 * x1 + self.a12 * x2, self.a21 * x1 + self.a22 * x2)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def scaled(self, c: float) -> "Mat2":
        c = _real("scale factor", c)
        return Mat2(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))


#: Counter-clockwise quarter turn; maps X to X-perp.
QUARTER_TURN = Mat2(0.0, -1.0, 1.0, 0.0)


@_record
class RTParams:
    """The four decomposition parameters of a planar linear field.

    m_r, m_t   midlines of R and T (1/time); m_r is half the trace.
    p          shared sinusoid amplitude, p >= 0 (1/time).
    theta_r    angle of the maximum of R, present exactly when p > 0
               (for p = 0 both curves are flat and no phase exists);
               a real number is taken as AngleModPi of it.
    """

    m_r: float
    m_t: float
    p: float
    theta_r: AngleModPi | None = None

    def __post_init__(self) -> None:
        m_r, m_t, p, theta_r = self.m_r, self.m_t, self.p, self.theta_r
        if (type(m_r) is type(m_t) is type(p) is float and math.isfinite(m_r) and math.isfinite(m_t)
                and math.isfinite(p)
                and (p == 0.0 if theta_r is None else p > 0.0 and type(theta_r) is AngleModPi)):
            return
        for name in ("m_r", "m_t", "p"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if theta_r is not None and not isinstance(theta_r, AngleModPi):
            object.__setattr__(self, "theta_r", AngleModPi(_real("theta_r", theta_r)))
        if self.p < 0.0:
            raise InvalidInputError(f"amplitude p must be >= 0, got {self.p}")
        if (self.theta_r is None) != (self.p == 0.0):
            raise InvalidInputError("theta_r must be present exactly when p > 0")

    # Extremes of the two sinusoids.  rho1 is the reactivity (fastest
    # instantaneous radial growth), rho2 the attenuation; tau1/tau2 are
    # the extreme angular velocities.
    @property
    def rho1(self) -> float:
        return self.m_r + self.p

    @property
    def rho2(self) -> float:
        return self.m_r - self.p

    @property
    def tau1(self) -> float:
        return self.m_t + self.p

    @property
    def tau2(self) -> float:
        return self.m_t - self.p

    @property
    def theta_t(self) -> AngleModPi | None:
        """Angle of the maximum of T, a quarter turn's half behind theta_r."""
        if self.theta_r is None:
            return None
        return self.theta_r.shifted(-math.pi / 4)


def _parts(a: Mat2) -> tuple[float, float, float, float | None]:
    """decompose(a) as plain floats (m_R, m_T, p, theta_R or None)."""
    m_r = 0.5 * (a.a11 + a.a22)
    m_t = 0.5 * (a.a21 - a.a12)
    cos_part = a.a11 - a.a22        # 2p cos(2 theta_R)
    sin_part = a.a12 + a.a21        # 2p sin(2 theta_R)
    p = 0.5 * math.hypot(cos_part, sin_part)
    if p <= P_ZERO_RTOL * _scale(m_r, m_t, p):
        return m_r, m_t, 0.0, None
    return m_r, m_t, p, _norm_mod_pi(0.5 * math.atan2(sin_part, cos_part))


def decompose(a: Mat2) -> RTParams:
    """Split A into its radial/tangential parameters.

    The amplitude is snapped to exactly zero when it is at most
    1e-12 * (|m_R| + |m_T| + p); at that scale the phase theta_R is
    numerically meaningless and is reported as absent.
    """
    m_r, m_t, p, theta_r = _parts(a)
    return RTParams(m_r, m_t, p, None if theta_r is None else AngleModPi(theta_r))


def reconstruct(rt: RTParams) -> Mat2:
    """Inverse of :func:`decompose`: the unique matrix with these curves.

    Columns come from evaluating the field at the two coordinate axes:
    A = [[R(0), -T(pi/2)], [T(0), R(pi/2)]].
    """
    half_pi = math.pi / 2
    return Mat2(
        _radial(rt, 0.0),
        -_tangential(rt, half_pi),
        _tangential(rt, 0.0),
        _radial(rt, half_pi),
    )


def _radial(rt: RTParams, theta: float) -> float:
    if rt.theta_r is None:
        return rt.m_r
    return rt.m_r + rt.p * math.cos(2.0 * (theta - rt.theta_r.value))


def _tangential(rt: RTParams, theta: float) -> float:
    if rt.theta_r is None:
        return rt.m_t
    return rt.m_t - rt.p * math.sin(2.0 * (theta - rt.theta_r.value))


def eval_radial(rt: RTParams, theta: float) -> float:
    """Radial velocity R(theta) on the unit circle."""
    return _radial(rt, _real("theta", theta))


def eval_tangential(rt: RTParams, theta: float) -> float:
    """Angular velocity T(theta) on the unit circle."""
    return _tangential(rt, _real("theta", theta))


def rotation_matrix(gamma: float) -> Mat2:
    """Counter-clockwise rotation by gamma radians."""
    gamma = _real("rotation angle", gamma)
    c, s = math.cos(gamma), math.sin(gamma)
    return Mat2(c, -s, s, c)


def rotate_conjugate(a: Mat2, gamma: float) -> Mat2:
    """Conjugate by rotation: M_gamma^-1 A M_gamma.

    In decomposition terms this is a pure horizontal shift, moving both
    curves by gamma: R_B(theta) = R_A(theta + gamma) and likewise for T.
    Midlines, amplitude, eigenvalues and orthovalues are all unchanged.
    """
    gamma = _real("rotation angle", gamma)
    # rotation_matrix(-gamma) @ a @ rotation_matrix(gamma), entry by entry
    # with the same roundings (x + -y is x - y), building one Mat2, not four.
    ci, si = math.cos(-gamma), math.sin(-gamma)
    b11, b12 = ci * a.a11 - si * a.a21, ci * a.a12 - si * a.a22
    b21, b22 = si * a.a11 + ci * a.a21, si * a.a12 + ci * a.a22
    c, s = math.cos(gamma), math.sin(gamma)
    return Mat2(b11 * c + b12 * s, b12 * c - b11 * s, b21 * c + b22 * s, b22 * c - b21 * s)


def reflect_conjugate(a: Mat2) -> Mat2:
    """Conjugate by the x-axis reflection diag(1, -1).

    Solution norms are preserved while the sense of rotation flips:
    the result decomposes with m_T negated and m_R, p unchanged.  Used
    to canonicalize m_T >= 0 before amplification formulas.
    """
    return Mat2(a.a11, -a.a12, -a.a21, a.a22)


def symmetric_part_reactivity(a: Mat2) -> float:
    """Largest eigenvalue of the symmetric part (A + A^T)/2.

    Classical definition of reactivity; computed through LAPACK so it
    stays an oracle independent of the m_R + p route.
    """
    import numpy as np
    arr = a.as_array()
    return float(np.linalg.eigvalsh(0.5 * (arr + arr.T))[-1])


def matrix_exponential(a: Mat2, t: float) -> Mat2:
    """Closed-form e^{At} by spectral case.

    With m the mean eigenvalue and d = m^2 - det(A) the squared
    half-separation, e^{At} = e^{mt} (c I + s (A - m I)) where (c, s)
    are cosh/sinh-type pair for d > 0, cos/sin-type for d < 0, and the
    shared series limit near the repeated-eigenvalue boundary.  For
    d > 0 the factor e^{mt} goes inside the pair, which then takes one
    exponential, e^{mt + w|t|}, so a stiff A (large w|t|) cannot
    overflow where e^{At} itself is small.
    """
    t = _real("time", t)
    m = 0.5 * a.trace()
    d = m * m - a.det()
    x2 = d * t * t
    try:
        if x2 > 1e-8:
            w = math.sqrt(d)
            tau = w * abs(t)
            g = math.exp(m * t + tau)
            c = 0.5 * g * (1.0 + math.exp(-2.0 * tau))
            s = math.copysign(-0.5 * g * math.expm1(-2.0 * tau) / w, t)
        elif x2 < -1e-8:
            w = math.sqrt(-d)
            c = math.cos(w * t)
            s = math.sin(w * t) / w
        else:
            c = 1.0 + x2 / 2.0 + x2 * x2 / 24.0
            s = t * (1.0 + x2 / 6.0 + x2 * x2 / 120.0)
        e = 1.0 if x2 > 1e-8 else math.exp(m * t)
    except (OverflowError, ValueError) as exc:  # ValueError: cos(inf) when det A overflows
        raise NumericFailureError(f"e^(At) overflows at t = {t!r}") from exc
    entries = (
        e * (c + s * (a.a11 - m)),
        e * s * a.a12,
        e * s * a.a21,
        e * (c + s * (a.a22 - m)),
    )
    if not all(map(math.isfinite, entries)):
        raise NumericFailureError(f"e^(At) overflows at t = {t!r}")
    return Mat2(*entries)
