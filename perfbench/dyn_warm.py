"""dyn-warm: the RK4 loops in one warm process, a fixed seeded job list.

A pass runs the six RK4 loops that the one-kernel, angle-domain-oracle
and exact-k-sweep changes would replace, each job on its own input:

    oracle-fine     rho_max_numeric(step=1e-4): 70 real attractors and
                    4 criterion-8 edge cases (lambda1 -> 0)
    oracle-default  rho_max_numeric at its default step: 3 spirals and
                    6 near-repeated attractors
    sweep           one sweep_rotation_rates on the criterion-9 grid
                    (161 rates, step 5e-3, t_end 50)
    traj-linear, traj-polar, traj-nonaut
                    88, 63 and 34 1e4-step trajectories, each followed
                    by the closed-form solution at 16 of its sample times

The mix has no traffic source; it follows one rule: each loop takes about
a sixth of a pass, at the per-job costs measured when it was set (Intel
Xeon, 2 vCPUs: one sweep 1.0 s; oracle-fine 11 ms real, 34 ms edge;
oracle-default 190 ms spiral, 34 ms near-repeated; trajectories 9, 13
and 23 ms).  The percentiles over the 269 jobs are placed inside groups
of jobs that cost alike, not on a border between groups, where they
would hang on the seed:

  - p50 falls inside the 70 real oracles.  Each is scaled so that
    crossing its reactive arc takes 11500 steps, which puts them all
    between the integrate_linear and integrate_polar jobs.
  - p90 falls in the middle of the 34 integrate_nonaut jobs.  Edge and
    near-repeated cases are kept to 4 and 6, so that the 14 costliest
    jobs (these, the spirals and the sweep) stay above it.

Every run prints the measured share of each loop.  A loop that gets f
times slower lowers jobs/s by about (f - 1) / (f + 5), so only a loop at
least 3 times slower moves it past a 0.25 bound on its own; p50 follows
the real-attractor oracle and p90 integrate_nonaut.

Every pass gets fresh inputs (see ``inputs.renew``): the oracle and sweep
inputs are turned copies of fixed shapes, so one reference serves every
pass; each trajectory draws a new matrix, start and spin rate.
"""

from __future__ import annotations

import math
import resource

import inputs
from harness import Op
from inputs import Sample
from reference import rho_error, rho_max_refs

from reactlin import amplification, core, dynamics
from reactlin.core import Mat2

TAIL = 90
TRAJ_STEPS = 10_000
TRAJ_SAMPLES = 16
SWEEP_N, SWEEP_STEP, SWEEP_T_END = 161, 5e-3, 50.0
SWEEP_ATOL = 0.05
TRAJ_RTOL = 1e-8


def _oracle(sample: Sample, step: float | None, ref: float | None) -> Op:
    a = Mat2(*sample.a)

    def run(_tracer):
        return amplification.rho_max_numeric(a, step=step).rho_max

    return Op("oracle-fine" if step else "oracle-default", sample, run, lambda rho: rho_error(rho, ref))


def _sweep(sample: Sample, k_min: float, k_max: float) -> Op:
    a = Mat2(*sample.a)
    o = inputs.rt_of(sample.a)
    p_t = math.sqrt(o["p"] ** 2 - o["m_r"] ** 2)
    window = (-(o["m_t"] + p_t), -(o["m_t"] - p_t))

    def run(_tracer):
        return dynamics.sweep_rotation_rates(a, k_min, k_max, SWEEP_N, step=SWEEP_STEP, t_end=SWEEP_T_END)

    def check(res) -> str | None:
        if max(abs(g - w) for g, w in zip(res.analytic_window, window)) > 1e-12 * o["scale"]:
            return f"analytic window {res.analytic_window} is not (-mu1, -mu2) = {window}"
        if res.empirical_window is None:
            return "no growing rate found on the grid"
        err = max(abs(g - w) for g, w in zip(res.empirical_window, window))
        if err > SWEEP_ATOL:
            return f"empirical window {res.empirical_window} is {err:.3f} from {window}"
        return None

    return Op("sweep", sample, run, check)


def _rotate(x: tuple[float, float], angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (c * x[0] - s * x[1], s * x[0] + c * x[1])


def _apply(m: Mat2, x: tuple[float, float]) -> tuple[float, float]:
    return (m.a11 * x[0] + m.a12 * x[1], m.a21 * x[0] + m.a22 * x[1])


def _trajectory(kind: str, sample: Sample, rng) -> Op:
    """A 1e4-step trajectory and e^{At} x0 at 16 of its sample times."""
    a = Mat2(*sample.a)
    angle0 = rng.uniform(0.0, 2 * math.pi)
    x0 = (math.cos(angle0), math.sin(angle0))
    speed = inputs.rt_of(sample.a)["scale"]
    k = rng.uniform(-1.0, 1.0) * speed if kind == "nonaut" else 0.0
    step = 1e-3 / (speed + abs(k))
    t_end = TRAJ_STEPS * step
    picks = [TRAJ_STEPS * (j + 1) // TRAJ_SAMPLES for j in range(TRAJ_SAMPLES)]

    def run(_tracer):
        if kind == "linear":
            traj = dynamics.integrate_linear(a, x0, step, t_end)
            exact = [_apply(dynamics.matrix_exponential(a, traj.t[i]), x0) for i in picks]
        elif kind == "polar":
            traj = dynamics.integrate_polar(core.decompose(a), 1.0, angle0, step, t_end)
            exact = [_apply(dynamics.matrix_exponential(a, traj.t[i]), x0) for i in picks]
        else:
            cfg = dynamics.NonautConfig(a, k)
            traj = dynamics.integrate_nonaut(cfg, x0, step, t_end)
            spun = dynamics.corotating_matrix(cfg)
            exact = [_rotate(_apply(dynamics.matrix_exponential(spun, traj.t[i]), x0), -k * traj.t[i])
                     for i in picks]
        return traj, exact

    def check(out) -> str | None:
        traj, exact = out
        if len(traj.t) != TRAJ_STEPS + 1:
            return f"{len(traj.t)} samples for {TRAJ_STEPS} steps"
        for i, (ex, ey) in zip(picks, exact):
            norm = math.hypot(ex, ey)
            if math.hypot(traj.x1[i] - ex, traj.x2[i] - ey) > TRAJ_RTOL * norm:
                return f"integrate_{kind} at t={traj.t[i]:.6g} is off the closed form"
        return None

    return Op("traj-" + kind, sample, run, check)


#: (job, generator, oracle step, jobs per pass); see the module docstring.
MIX = (
    ("oracle", inputs.reactive_real, 1e-4, 70), ("oracle", inputs.reactive_edge, 1e-4, 4),
    ("oracle", inputs.reactive_spiral, None, 3), ("oracle", inputs.reactive_near_repeated, None, 6),
    ("sweep", inputs.criterion9_attractor, None, 1),
    ("linear", None, None, 88), ("polar", None, None, 63), ("nonaut", None, None, 34),
)
#: Arc-crossing time of every real attractor on oracle-fine: 11500 steps.
REAL_TRANSIT = 1.15
#: Trajectories alternate between these, so every pass has the same split.
TRAJ_GENERATORS = (inputs.reactive_real, inputs.reactive_spiral)


class DynWarm:
    name = "dyn-warm"
    tail = TAIL
    best_of = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = inputs.rng_for(self.name, seed)
        slots = []
        for job, gen, step, n in MIX:
            for j in range(n):
                if job == "oracle":
                    # step=1e-4 is absolute, so the time to cross the arc sets
                    # the cost: fix it for real attractors, keep edge cases'
                    # scale in a band.
                    if gen is inputs.reactive_real:
                        base = inputs.with_transit(gen(rng), REAL_TRANSIT)
                    else:
                        base = gen(rng, rng.uniform(1.2, 1.5)) if step else gen(rng)
                    slots.append((job, base, step))
                elif job == "sweep":
                    sample, k_min, k_max = gen(rng)
                    slots.append((job, sample, (k_min, k_max)))
                else:
                    slots.append((job, None, TRAJ_GENERATORS[j % len(TRAJ_GENERATORS)]))
        rng.shuffle(slots)
        self.slots = slots
        self.refs: dict[int, float] = {}
        self.ops = self.pass_ops(0)

    def pass_ops(self, n: int) -> list[Op]:
        """The jobs of pass n, on inputs no other pass uses."""
        rng = inputs.rng_for(f"{self.name}:pass:{n}", self.seed)
        ops = []
        for i, (job, base, extra) in enumerate(self.slots):
            if job == "oracle":
                ops.append(_oracle(inputs.renew(base, rng), extra, self.refs.get(i)))
            elif job == "sweep":
                ops.append(_sweep(inputs.renew(base, rng), *extra))
            else:
                ops.append(_trajectory(job, extra(rng), rng))
        return ops

    def warm_up(self) -> None:
        """Every job kind once on a tiny input, so first-call costs are paid."""
        real = Mat2(-1.0, -8.0, 0.0, -3.0)
        spiral = Mat2(0.7, -4.0, 4.0, -4.7)
        amplification.rho_max_numeric(real, step=1e-2)
        amplification.rho_max_numeric(spiral, step=1e-2)
        dynamics.sweep_rotation_rates(spiral, -8.0, 0.0, 2, step=0.1, t_end=1.0)
        dynamics.integrate_linear(real, (1.0, 0.0), 1e-2, 0.1)
        dynamics.integrate_polar(core.decompose(real), 1.0, 0.0, 1e-2, 0.1)
        dynamics.integrate_nonaut(dynamics.NonautConfig(spiral, -3.0), (1.0, 0.0), 1e-2, 0.1)
        dynamics.matrix_exponential(real, 1.0)

    def prepare(self) -> None:
        """References for every oracle slot."""
        want = [i for i, (job, _, _) in enumerate(self.slots) if job == "oracle"]
        self.refs = dict(zip(want, rho_max_refs([self.slots[i][1].a for i in want])))

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
