"""lib-warm: the analytic layers in one warm process, no import, no RK4.

A pass is 736 analyse ops and 276 construct ops in a seeded order, so p99
over its 1012 ops has 10 beyond it.  An analyse op takes one matrix
through decompose/reconstruct, the transient summary, both spectra, the
angular phase line and the four standard forms with verify_form; a
distinct-real reactive attractor also gets both bounds and
rho_max_closed.  A construct op is a synthesis round trip (from_deltas,
attractor_with_eigenvalues or attractor_with_eigenvectors, then
decompose).  The oracle and the import are bypassed here.

The mix has no traffic source; it follows one rule: every classification
is analysed equally often, each generator of a classification equally
often within it (the four spectrum kinds of a reactive attractor; plain
and scalar nonreactive attractors), and each synthesis route is taken as
often as each classification is analysed.

Every pass and the warm-up get their own inputs (see ``inputs.renew``)
and their own synthesis requests, so no measured op sees an input the
process has handled before.
"""

from __future__ import annotations

import math
import resource

import inputs
from harness import Op
from inputs import Sample, rt_of
from reference import rho_error, rho_max_refs

from reactlin import amplification, core, forms, spectra, synthesis
from reactlin.core import Mat2
from reactlin.errors import InapplicableError

TAIL = 99
FORM_BUILDERS = ("to_r_centered", "to_t_centered", "to_r_zeroed", "to_t_zeroed")
REACTIVE = spectra.Classification.REACTIVE_ATTRACTOR
_EIGEN_TYPE = {
    "distinct_real": spectra.DistinctRealEigen, "edge": spectra.DistinctRealEigen,
    "complex": spectra.ComplexPairEigen, "near_repeated": spectra.RepeatedDefectiveEigen,
    "repeated": spectra.RepeatedFullEigen,
}
_EQUILIBRIA = {spectra.DistinctRealEigen: 2, spectra.RepeatedDefectiveEigen: 1}


#: Copies of the 44-op mix in one pass.
MIX_COPIES = 23
ANALYSE_MIX = (
    (inputs.reactive_real, 1), (inputs.reactive_edge, 1), (inputs.reactive_spiral, 1),
    (inputs.reactive_near_repeated, 1), (inputs.nonreactive_attractor, 2), (inputs.scalar_attractor, 2),
    (inputs.attenuating_repeller, 4), (inputs.nonattenuating_repeller, 4), (inputs.saddle, 4),
    (inputs.center, 4), (inputs.circular_center, 4), (inputs.degenerate, 4),
)
#: Synthesis routes; from_deltas with delta_T = 0 builds a repeated eigenvalue.
CONSTRUCT_MIX = (("from_deltas", 3), ("from_deltas_repeated", 1),
                 ("attractor_with_eigenvalues", 4), ("attractor_with_eigenvectors", 4))


def analyse(a: Mat2):
    rt = core.decompose(a)
    back = core.reconstruct(rt)
    summary = spectra.transient_summary(rt)
    eig = spectra.eigen_structure(rt)
    spectra.ortho_structure(rt)
    line = spectra.angular_phase_line(rt)
    built = []
    for name in FORM_BUILDERS:
        try:
            res = getattr(forms, name)(a)
        except InapplicableError:
            continue
        built.append((res.matrix, forms.verify_form(res.matrix, res.kind)))
    amp = None
    if summary.classification is REACTIVE and isinstance(eig, spectra.DistinctRealEigen):
        amp = (
            amplification.rho_max_bound_ortho(a),
            amplification.rho_max_bound_eigen(a),
            amplification.rho_max_closed(a).rho_max,
        )
    return back, summary, eig, line, built, amp


def check_analyse(sample: Sample, ref: float | None, out) -> str | None:
    back, summary, eig, line, built, amp = out
    o = rt_of(sample.a)
    tol = 1e-12 * o["scale"]
    got = (back.a11, back.a12, back.a21, back.a22)
    if any(abs(g - w) > tol for g, w in zip(got, sample.a)):
        return f"reconstruct(decompose(A)) = {got} is not A = {sample.a}"
    if summary.classification.value != sample.classification:
        return f"classified {summary.classification.value}, built as {sample.classification}"
    if not isinstance(eig, _EIGEN_TYPE[sample.spectrum]):
        return f"{type(eig).__name__} for a {sample.spectrum} spectrum"
    if abs(summary.rho1 - (o["m_r"] + o["p"])) > tol:
        return f"reactivity {summary.rho1!r}, expected {o['m_r'] + o['p']!r}"
    if isinstance(eig, spectra.DistinctRealEigen) and sample.spectrum == "distinct_real":
        if max(abs(eig.lambda1 - o["lambda1"]), abs(eig.lambda2 - o["lambda2"])) > 1e-9 * o["scale"]:
            return f"eigenvalues {eig.lambda1!r}, {eig.lambda2!r} disagree with the trace/determinant"
    if len(line.equilibria) != _EQUILIBRIA.get(type(eig), 0):
        return f"{len(line.equilibria)} angular equilibria for {type(eig).__name__}"
    tr, det = sample.a[0] + sample.a[3], sample.a[0] * sample.a[3] - sample.a[1] * sample.a[2]
    for m, verified in built:
        if not verified:
            return "verify_form rejected a form the library built"
        if abs(m.trace() - tr) > tol or abs(m.det() - det) > tol * o["scale"]:
            return "a standard form is not similar to A"
    if (amp is None) != (ref is None):
        return "amplification computed exactly for distinct-real reactive attractors expected"
    if amp is not None:
        bound_ortho, bound_eigen, rho = amp
        if abs(bound_ortho - (-o["p"] / o["m_r"])) > 1e-12 * bound_ortho:
            return f"ortho bound {bound_ortho!r}, expected {-o['p'] / o['m_r']!r}"
        if not (rho < bound_ortho and rho < bound_eigen):
            return f"rho_max {rho!r} is not below its bounds {bound_ortho!r}, {bound_eigen!r}"
        return rho_error(rho, ref)
    return None


def _angle_gap(x: float, y: float) -> float:
    d = (x - y) % math.pi
    return min(d, math.pi - d)


def _eigenline(a, lam: float) -> float:
    a11, a12, a21, a22 = a
    v = (a12, lam - a11) if abs(a12) + abs(lam - a11) >= abs(lam - a22) + abs(a21) else (lam - a22, a21)
    return math.atan2(v[1], v[0])


def _construct_op(route: str, rng) -> Op:
    """One synthesis round trip with parameters drawn from rng."""
    rho = rng.uniform(0.5, 4.0)
    if route.startswith("from_deltas"):
        dt = 0.0 if route == "from_deltas_repeated" else rng.uniform(0.05, 0.5)
        dr = rng.uniform(0.05, math.pi / 4 - dt - 0.05)
        return _construct("from_deltas", (dr, dt, rho), "repeated" if dt == 0.0 else "distinct_real",
                          {"cos_dr": math.cos(2 * dr), "cos_dt": math.cos(2 * dt), "rho": rho})
    if route == "attractor_with_eigenvalues":
        lam1 = -rng.uniform(0.1, 2.0)
        lam2 = lam1 - rng.uniform(0.5, 3.0)
        return _construct(route, (lam1, lam2, rho), "distinct_real",
                          {"lambda1": lam1, "lambda2": lam2, "rho": rho})
    th2, dt = rng.uniform(0.0, math.pi), rng.uniform(0.1, 0.65)
    return _construct(route, (th2 + 2 * dt, th2, rho), "distinct_real",
                      {"lines": (th2 + 2 * dt, th2), "rho": rho})


def _construct(fn: str, args: tuple, spectrum: str, want: dict) -> Op:
    def run(_tracer):
        a = getattr(synthesis, fn)(*args)
        return a, core.decompose(a)

    def check(out) -> str | None:
        a, rt = out
        entries = (a.a11, a.a12, a.a21, a.a22)
        o = rt_of(entries)
        tol = 1e-12 * o["scale"]
        if max(abs(rt.m_r - o["m_r"]), abs(rt.m_t - o["m_t"]), abs(rt.p - o["p"])) > tol:
            return "decompose disagrees with the entries"
        if abs(o["m_r"] + o["p"] - want["rho"]) > tol:
            return f"reactivity {o['m_r'] + o['p']!r}, requested {want['rho']!r}"
        if "cos_dr" in want:
            if max(abs(-o["m_r"] / o["p"] - want["cos_dr"]), abs(-o["m_t"] / o["p"] - want["cos_dt"])) > 1e-12:
                return "arc radii differ from the requested ones"
        if "lambda1" in want:
            if max(abs(o["lambda1"] - want["lambda1"]), abs(o["lambda2"] - want["lambda2"])) > 1e-9 * o["scale"]:
                return "eigenvalues differ from the requested ones"
        if "lines" in want:
            got = sorted(_eigenline(entries, o[k]) % math.pi for k in ("lambda1", "lambda2"))
            req = sorted(t % math.pi for t in want["lines"])
            if max(_angle_gap(g, r) for g, r in zip(got, req)) > 1e-9:
                return f"eigenlines {got} differ from the requested {req}"
        return None

    return Op("construct", Sample((), "reactive_attractor", spectrum), run, check)


class LibWarm:
    name = "lib-warm"
    tail = TAIL
    best_of = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = inputs.rng_for(self.name, seed)
        slots: list[tuple[str, object]] = [
            ("analyse", gen) for gen, n in ANALYSE_MIX for _ in range(n * MIX_COPIES)
        ] + [("construct", route) for route, n in CONSTRUCT_MIX for _ in range(n * MIX_COPIES)]
        rng.shuffle(slots)
        # Each analyse slot keeps the shape of its first draw; its reference
        # holds for every turned copy of it.
        self.slots = [(kind, what, what(rng) if kind == "analyse" else None) for kind, what in slots]
        self.refs: dict[int, float] = {}
        self.ops = self.pass_ops(0)

    def _ops(self, rng) -> list[Op]:
        ops = []
        for i, (kind, what, base) in enumerate(self.slots):
            if kind == "analyse":
                ops.append(self._analyse_op(i, inputs.renew(base, rng, what)))
            else:
                ops.append(_construct_op(what, rng))
        return ops

    def pass_ops(self, n: int) -> list[Op]:
        """The ops of pass n, on inputs no other pass uses."""
        return self._ops(inputs.rng_for(f"{self.name}:pass:{n}", self.seed))

    def _analyse_op(self, index: int, sample: Sample) -> Op:
        a = Mat2(*sample.a)
        return Op("analyse", sample, lambda _tracer: analyse(a),
                  lambda out: check_analyse(sample, self.refs.get(index), out))

    def warm_up(self) -> None:
        """One pass on inputs of its own, unchecked."""
        for op in self._ops(inputs.rng_for(f"{self.name}:warm-up", self.seed)):
            op.run(None)

    def prepare(self) -> None:
        """References for every distinct-real reactive attractor slot."""
        want = [i for i, (kind, _, base) in enumerate(self.slots) if kind == "analyse"
                and base.classification == "reactive_attractor" and base.spectrum in ("distinct_real", "edge")]
        self.refs = dict(zip(want, rho_max_refs([self.slots[i][2].a for i in want])))

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
