"""Seeded input generators for the three workloads.

Every matrix is built with the benchmark's own formulas, from its
radial/tangential parameters (m_R, m_T, p, theta_R) or, for the scalar,
circular-center and rank-one cases, from its entries, so the library
only ever sees the finished entries.  Each generator draws its shape from
a narrow band: the cost of the numeric routes depends on the shape (how
close a spiral sits to the repeated-eigenvalue boundary, how long the
reactive arc takes to cross), and a narrow band keeps that cost, and so
the figures, comparable from one seed to the next.  Scale and rotation
vary freely.

A workload repeats its operations once per pass, and every pass gets
fresh inputs, so no measured call sees a matrix the process has already
handled.  ``renew`` turns a matrix built from its R/T parameters to new
axes: Q A Q^T keeps every orthogonal invariant, rho_max, the
classification and the cost of every numeric route included, so one
reference and one shape serve every pass.

Labels: ``classification`` is the library's eight-way classification
(checked against its output); ``spectrum`` is one of

    distinct_real  two real eigenvalues, away from every boundary
    complex        conjugate pair (a spiral when the origin attracts)
    repeated       exactly repeated eigenvalue
    near_repeated  distinct but inside the library's repeated-eigenvalue
                   tolerance band, so it is classified as repeated
    edge           reactive attractor with lambda1 -> 0: the eigenline
                   borders the reactive arc
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

Entries = tuple[float, float, float, float]


@dataclass(frozen=True)
class Sample:
    """One generated matrix with the labels the generator built it for."""

    a: Entries
    classification: str
    spectrum: str
    #: (m_R, m_T, p, theta_R) when the matrix was built by ``from_rt``.
    rt: tuple[float, float, float, float] | None = None


def rng_for(workload: str, seed: int) -> random.Random:
    """Deterministic generator for one workload and seed."""
    return random.Random(f"perfbench:{workload}:{seed}")


def from_rt(m_r: float, m_t: float, p: float, theta_r: float) -> Entries:
    """Matrix with R = m_R + p cos 2(th - theta_R), T = m_T - p sin 2(th - theta_R)."""
    c, s = math.cos(2.0 * theta_r), math.sin(2.0 * theta_r)
    return (m_r + p * c, -m_t + p * s, m_t + p * s, m_r - p * c)


def _built(m_r: float, m_t: float, p: float, theta_r: float,
           classification: str, spectrum: str) -> Sample:
    return Sample(from_rt(m_r, m_t, p, theta_r), classification, spectrum, (m_r, m_t, p, theta_r))


def renew(sample: Sample, rng: random.Random,
          gen: Callable[[random.Random], Sample] | None = None) -> Sample:
    """A fresh input for the sample's slot: the sample in axes turned by a
    random angle when it has R/T parameters, else a new draw of ``gen``."""
    if sample.rt is None:
        return gen(rng)
    m_r, m_t, p, theta_r = sample.rt
    return _built(m_r, m_t, p, theta_r + rng.uniform(0.0, math.pi),
                  sample.classification, sample.spectrum)


def arc_transit(sample: Sample) -> float:
    """Time a perturbation takes to cross the reactive arc, where theta' = T:
    the integral of du / |T| over |u| < acos(-m_R / p) / 2 (Simpson's rule).
    Defined for reactive attractors with T nonzero on the arc."""
    m_r, m_t, p, _ = sample.rt
    half = math.acos(-m_r / p) / 2
    n = 2000
    h = 2 * half / n
    f = [1.0 / abs(m_t - p * math.sin(2 * (-half + i * h))) for i in range(n + 1)]
    return h / 3 * (f[0] + f[n] + 4 * sum(f[1:n:2]) + 2 * sum(f[2:n:2]))


def with_transit(sample: Sample, transit: float) -> Sample:
    """The sample scaled so that crossing its reactive arc takes `transit`."""
    c = arc_transit(sample) / transit
    m_r, m_t, p, theta_r = sample.rt
    return _built(c * m_r, c * m_t, c * p, theta_r, sample.classification, sample.spectrum)


def rt_of(a: Entries) -> dict[str, float]:
    """Inverse of from_rt plus the eigenvalues, by the benchmark's own formulas."""
    a11, a12, a21, a22 = a
    m_r, m_t = 0.5 * (a11 + a22), 0.5 * (a21 - a12)
    p = 0.5 * math.hypot(a11 - a22, a12 + a21)
    disc = m_r * m_r - (a11 * a22 - a12 * a21)
    root = math.sqrt(disc) if disc > 0 else 0.0
    return {"m_r": m_r, "m_t": m_t, "p": p, "lambda1": m_r + root, "lambda2": m_r - root,
            "scale": 1.0 + max(map(abs, a))}


def _orient(rng: random.Random, m_t: float) -> float:
    return m_t if rng.random() < 0.5 else -m_t


def _theta(rng: random.Random) -> float:
    return rng.uniform(0.0, math.pi)


def _scale(rng: random.Random, lo: float = 0.5, hi: float = 4.0) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def reactive_real(rng: random.Random, scale: float | None = None) -> Sample:
    """Reactive attractor with distinct real eigenvalues."""
    p = scale if scale is not None else _scale(rng)
    m_t = rng.uniform(0.3, 0.8) * p
    p_r = math.sqrt(p * p - m_t * m_t)
    m_r = -p_r - rng.uniform(0.3, 0.7) * (p - p_r)
    return _built(m_r, _orient(rng, m_t), p, _theta(rng), "reactive_attractor", "distinct_real")


def reactive_edge(rng: random.Random, scale: float | None = None) -> Sample:
    """Reactive attractor whose larger eigenvalue lambda1 is nearly 0."""
    p = scale if scale is not None else _scale(rng)
    m_t = rng.uniform(0.3, 0.8) * p
    p_r = math.sqrt(p * p - m_t * m_t)
    m_r = -p_r - math.exp(rng.uniform(math.log(1e-4), math.log(3e-4))) * p
    return _built(m_r, _orient(rng, m_t), p, _theta(rng), "reactive_attractor", "edge")


def reactive_spiral(rng: random.Random) -> Sample:
    """Reactive attractor with a complex pair (a reactive spiral sink)."""
    p = _scale(rng)
    m_t = rng.uniform(2.9, 3.1) * p
    m_r = -rng.uniform(0.45, 0.55) * p
    return _built(m_r, _orient(rng, m_t), p, _theta(rng), "reactive_attractor", "complex")


def reactive_near_repeated(rng: random.Random) -> Sample:
    """Reactive attractor inside the repeated-eigenvalue tolerance band.

    p - |m_T| = e (1 + p + |m_T|) with 1e-11 <= e <= 3e-11: two real
    eigenvalues about 1e-5 apart (relative), well inside the library's
    band e <= 1e-10, so it classifies them as one repeated eigenvalue.
    """
    p = _scale(rng)
    e = math.exp(rng.uniform(math.log(1e-11), math.log(3e-11)))
    m_t = (p - e * (1.0 + p)) / (1.0 + e)
    m_r = -rng.uniform(0.45, 0.55) * p
    return _built(m_r, _orient(rng, m_t), p, _theta(rng), "reactive_attractor", "near_repeated")


def _spectrum(m_t: float, p: float) -> str:
    return "distinct_real" if p > abs(m_t) else "complex"


def nonreactive_attractor(rng: random.Random) -> Sample:
    p = _scale(rng)
    m_r = -rng.uniform(1.2, 3.0) * p
    m_t = rng.choice((rng.uniform(0.0, 0.8), rng.uniform(1.2, 2.0))) * p
    return _built(m_r, _orient(rng, m_t), p, _theta(rng), "nonreactive_attractor", _spectrum(m_t, p))


def scalar_attractor(rng: random.Random) -> Sample:
    """-c I: every direction is an eigenline (exactly repeated spectrum)."""
    c = _scale(rng)
    return Sample((-c, 0.0, 0.0, -c), "nonreactive_attractor", "repeated")


def attenuating_repeller(rng: random.Random) -> Sample:
    p = _scale(rng)
    m_r = rng.uniform(0.2, 0.8) * p
    m_t = rng.uniform(1.2, 2.0) * p
    return _built(m_r, _orient(rng, m_t), p, _theta(rng), "attenuating_repeller", "complex")


def nonattenuating_repeller(rng: random.Random) -> Sample:
    p = _scale(rng)
    m_r = rng.uniform(1.2, 3.0) * p
    m_t = rng.choice((rng.uniform(0.0, 0.8), rng.uniform(1.2, 2.0))) * p
    return _built(m_r, _orient(rng, m_t), p, _theta(rng), "nonattenuating_repeller", _spectrum(m_t, p))


def saddle(rng: random.Random) -> Sample:
    p = _scale(rng)
    m_t = rng.uniform(0.0, 0.5) * p
    p_r = math.sqrt(p * p - m_t * m_t)
    m_r = rng.uniform(-0.7, 0.7) * p_r
    return _built(m_r, _orient(rng, m_t), p, _theta(rng), "saddle", "distinct_real")


def center(rng: random.Random) -> Sample:
    """Trace exactly zero: a11 = p c and a22 = -p c cancel without rounding."""
    p = _scale(rng)
    m_t = rng.uniform(1.2, 3.0) * p
    return _built(0.0, _orient(rng, m_t), p, _theta(rng), "center", "complex")


def circular_center(rng: random.Random) -> Sample:
    w = _orient(rng, _scale(rng))
    return Sample((0.0, -w, w, 0.0), "circular_center", "complex")


def degenerate(rng: random.Random) -> Sample:
    """Rank one, u v^T: one eigenvalue is 0, the other u.v."""
    ang_u = _theta(rng) * 2.0
    ang_v = ang_u + rng.choice((1.0, -1.0)) * rng.uniform(0.0, 1.2)
    su, sv = _scale(rng, 0.7, 2.0), _scale(rng, 0.7, 2.0)
    u = (su * math.cos(ang_u), su * math.sin(ang_u))
    v = (sv * math.cos(ang_v), sv * math.sin(ang_v))
    return Sample((u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1]),
                  "degenerate", "distinct_real")


def criterion9_attractor(rng: random.Random) -> tuple[Sample, float, float]:
    """A jittered, rotated copy of the criterion-9 spiral and its k grid.

    Returns the sample and (k_min, k_max): the criterion's [-8, 0] grid
    shifted with the repulsion window, so 161 rates keep a spacing of
    0.05 around a window of the criterion's width.
    """
    m_r, m_t, p = -2.0, 4.0, 2.7  # the criterion-9 matrix [[0.7, -4], [4, -4.7]]
    m_r *= rng.uniform(0.97, 1.03)
    m_t *= rng.uniform(0.97, 1.03)
    p *= rng.uniform(0.97, 1.03)
    shift = m_t - 4.0
    sample = _built(m_r, m_t, p, _theta(rng), "reactive_attractor", "complex")
    return sample, -8.0 - shift, 0.0 - shift


def shares(samples: list[Sample]) -> dict[str, dict[str, float]]:
    """Share of each classification and spectrum kind among samples."""
    n = len(samples)
    out = {}
    for key in ("classification", "spectrum"):
        counts = Counter(getattr(s, key) for s in samples)
        out[key] = {k: counts[k] / n for k in sorted(counts)}
    return out
