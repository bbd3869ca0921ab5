"""Constructing matrices with prescribed transient/asymptotic features.

The workhorse builds a T-centered matrix from a reactive-arc radius
delta_R, an eigenline separation radius delta_T, and a reactivity rho:

    A = rho / (1 - cos 2 delta_R) * [[-cos 2 delta_R, 1 + cos 2 delta_T],
                                     [1 - cos 2 delta_T, -cos 2 delta_R]]

Since rho enters only through the scale, reactivity is unbounded for
any fixed geometry; the two wrappers below exploit that to hit target
eigenvalues or target eigenlines while making the origin a reactive
attractor.
"""

from __future__ import annotations

import math

from .core import Mat2, _real, rotate_conjugate
from .errors import InvalidInputError

__all__ = [
    "from_deltas",
    "attractor_with_eigenvalues",
    "attractor_with_eigenvectors",
]


def from_deltas(delta_r: float, delta_t: float, rho: float) -> Mat2:
    """T-centered matrix with the given arc radii and reactivity.

    Parameters
    ----------
    delta_r : reactive-arc half width, in (0, pi/2).
    delta_t : eigenline separation half angle, in [0, pi/2);
              delta_t = 0 yields a defective repeated eigenvalue.
    rho     : reactivity (maximum of R), > 0.
    """
    delta_r, delta_t = _real("delta_r", delta_r), _real("delta_t", delta_t)
    if not (0.0 < delta_r < math.pi / 2):
        raise InvalidInputError(f"delta_r must lie in (0, pi/2), got {delta_r}")
    if not (0.0 <= delta_t < math.pi / 2):
        raise InvalidInputError(f"delta_t must lie in [0, pi/2), got {delta_t}")
    rho = _real("rho", rho, positive=True)
    cr = math.cos(2.0 * delta_r)
    ct = math.cos(2.0 * delta_t)
    scale = rho / (1.0 - cr)
    return Mat2(-scale * cr, scale * (1.0 + ct), scale * (1.0 - ct), -scale * cr)


def attractor_with_eigenvalues(lambda1: float, lambda2: float, rho: float) -> Mat2:
    """Reactive attractor with eigenvalues lambda2 <= lambda1 < 0.

    Works for every rho > 0: midline m_R = (lambda1 + lambda2)/2 fixes
    the spectrum while the amplitude p = rho - m_R absorbs any demanded
    reactivity, narrowing the eigenvector pair to compensate.
    """
    lambda1, lambda2 = _real("lambda1", lambda1), _real("lambda2", lambda2)
    if not (lambda2 <= lambda1 < 0.0):
        raise InvalidInputError(
            f"need lambda2 <= lambda1 < 0, got ({lambda1}, {lambda2})"
        )
    rho = _real("rho", rho, positive=True)
    m_r = 0.5 * (lambda1 + lambda2)
    p = rho - m_r
    delta_r = 0.5 * math.acos(-m_r / p)
    p_r = lambda1 - m_r
    delta_t = 0.5 * math.asin(p_r / p)
    return from_deltas(delta_r, delta_t, rho)


def attractor_with_eigenvectors(
    theta1: float,
    theta2: float,
    rho: float,
    delta_r: float | None = None,
) -> Mat2:
    """Reactive attractor with eigenlines at the two given angles.

    The lines must be neither parallel nor orthogonal (an orthogonal
    eigenpair can never belong to a reactive attractor).  Angles are
    read modulo pi and sorted so their difference lies in (0, pi); the
    line at the larger reduced angle receives the larger eigenvalue.

    delta_r optionally overrides the reactive-arc radius; it must lie
    in (0, |delta_t - pi/4|), the full range for which both eigenvalues
    stay negative.  The default is the midpoint of that interval.
    """
    theta1, theta2 = _real("theta1", theta1), _real("theta2", theta2)
    rho = _real("rho", rho, positive=True)
    t1 = theta1 % math.pi
    t2 = theta2 % math.pi
    if t1 < t2:
        t1, t2 = t2, t1
    delta_t = 0.5 * (t1 - t2)
    if delta_t == 0.0:
        raise InvalidInputError("eigenlines are parallel; no such attractor exists")
    if abs(delta_t - math.pi / 4) < 1e-15:
        raise InvalidInputError(
            "eigenlines are orthogonal; a reactive attractor cannot have them"
        )
    half_width = abs(delta_t - math.pi / 4)
    delta_r = 0.5 * half_width if delta_r is None else _real("delta_r", delta_r)
    if not (0.0 < delta_r < half_width):
        raise InvalidInputError(
            f"delta_r must lie in (0, {half_width}), got {delta_r}"
        )
    centered = from_deltas(delta_r, delta_t, rho)
    # from_deltas is T-centered (eigenlines at +/- delta_t); shift them
    # onto the requested pair.
    return rotate_conjugate(centered, -0.5 * (t1 + t2))
