"""Independent reference for maximal amplification, and the checks using it.

A perturbation gains radius only inside the reactive arc, where
d ln r / d theta = R / T, so

    ln rho_max = | integral of R(theta) / T(theta) over the reactive arc |.

The benchmark evaluates that integral with mpmath tanh-sinh quadrature at
30 digits, from the matrix entries alone; it shares no code with the
library.  tanh-sinh clusters its nodes at the arc ends, which is where an
eigenline bordering the arc makes R/T near-singular.

Run as a script it reads a JSON list of [a11, a12, a21, a22] from stdin
and writes the list of references to stdout, so a measured process need
not load mpmath:

    python3 perfbench/reference.py < matrices.json
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

#: Largest relative distance from the reference accepted for any rho_max.
RHO_RTOL = 1e-9


def rho_max_ref(a11: float, a12: float, a21: float, a22: float) -> float:
    """exp of |integral of R/T over the reactive arc|, at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        a11, a12, a21, a22 = (mp.mpf(x) for x in (a11, a12, a21, a22))
        m_r = (a11 + a22) / 2
        m_t = (a21 - a12) / 2
        p = mp.sqrt((a11 - a22) ** 2 + (a12 + a21) ** 2) / 2
        if not (m_r < 0 < m_r + p):
            raise ValueError("not a reactive attractor: no reactive arc to integrate over")
        # u = theta - theta_R; the arc is |u| < half, where R > 0.
        half = mp.acos(-m_r / p) / 2
        integral = mp.quad(
            lambda u: (m_r + p * mp.cos(2 * u)) / (m_t - p * mp.sin(2 * u)),
            [-half, half],
        )
        return float(mp.exp(abs(integral)))


def rho_max_refs(matrices: list[tuple[float, float, float, float]]) -> list[float]:
    """References for many matrices, computed in a child process."""
    if not matrices:
        return []
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        input=json.dumps([list(a) for a in matrices]),
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def rho_error(value: float, ref: float) -> str | None:
    """None when value is within RHO_RTOL of ref, else a description."""
    rel = abs(value - ref) / ref
    if rel <= RHO_RTOL:
        return None
    return f"rho_max {value!r} is {rel:.2e} from reference {ref!r}"


if __name__ == "__main__":
    json.dump([rho_max_ref(*a) for a in json.load(sys.stdin)], sys.stdout)
