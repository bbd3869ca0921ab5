"""cli-cold: one client, each request a fresh `python -m reactlin.cli`.

This is the only workload where interpreter start-up and imports dominate
the median request, while the numeric amplification oracle sits in the
tail: 6 of the 20 requests in a pass (30%: 4 reactive spirals and 2
near-repeated attractors) go to the RK4 oracle.  The rest of the mix has
no traffic source: one `analyze` request for each other generator in
``inputs`` (so every classification is covered), a second distinct-real
reactive attractor (the closed-form route), one `portrait` and two
`synthesize` requests (deltas, eigenvalues).  One child runs at a time.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
from harness import SRC, Op, program_env
from cli_child import MARK
from inputs import Sample
from reference import rho_error, rho_max_refs

TAIL = 90
CHILD = Path(__file__).resolve().parent / "cli_child.py"
PORTRAIT_N = 90

_EIGEN_KIND = {"distinct_real": "distinct_real", "edge": "distinct_real", "complex": "complex_pair",
               "near_repeated": "repeated_defective", "repeated": "repeated_full"}


def _analyze_samples(rng) -> list[Sample]:
    return [
        inputs.reactive_real(rng), inputs.reactive_real(rng), inputs.reactive_edge(rng),
        inputs.nonreactive_attractor(rng), inputs.scalar_attractor(rng),
        inputs.attenuating_repeller(rng), inputs.nonattenuating_repeller(rng),
        inputs.saddle(rng), inputs.center(rng), inputs.circular_center(rng),
        inputs.degenerate(rng),
        *(inputs.reactive_spiral(rng) for _ in range(4)),
        inputs.reactive_near_repeated(rng), inputs.reactive_near_repeated(rng),
    ]


def _num(x: float) -> str:
    return repr(float(x))


class CliCold:
    name = "cli-cold"
    tail = TAIL
    best_of = False

    def __init__(self, seed: int) -> None:
        rng = inputs.rng_for(self.name, seed)
        specs: list[tuple[str, Sample, list[str], dict]] = []
        for s in _analyze_samples(rng):
            specs.append(("analyze", s, ["analyze", "--", *map(_num, s.a)], {}))
        s = inputs.reactive_real(rng)
        specs.append(("portrait", s, ["portrait", "--n", str(PORTRAIT_N), "--", *map(_num, s.a)], {}))
        dr, rho = rng.uniform(0.1, 0.3), rng.uniform(0.5, 4.0)
        dt = rng.uniform(0.0, math.pi / 4 - dr - 0.1)
        specs.append(("synthesize", Sample((), "reactive_attractor", "distinct_real"),
                      ["synthesize", "deltas", "--delta-r", _num(dr), "--delta-t", _num(dt), "--rho", _num(rho)],
                      {"rho": rho}))
        lam1 = -rng.uniform(0.1, 2.0)
        lam2, rho = lam1 - rng.uniform(0.5, 3.0), rng.uniform(0.5, 4.0)
        specs.append(("synthesize", Sample((), "reactive_attractor", "distinct_real"),
                      ["synthesize", "eigenvalues", "--lambda1", _num(lam1), "--lambda2", _num(lam2),
                       "--rho", _num(rho)],
                      {"rho": rho, "lambda1": lam1, "lambda2": lam2}))
        rng.shuffle(specs)
        self.specs = specs
        self.refs: dict[int, float] = {}
        self.first: dict[int, bytes] = {}
        self._validator = None
        self.ops = [
            Op(kind, sample, self._runner(argv), self._checker(i, kind, sample, want))
            for i, (kind, sample, argv, want) in enumerate(specs)
        ]

    # -- set-up -------------------------------------------------------------

    def warm_up(self) -> None:
        """One request, so the page cache and bytecode cache are filled."""
        fast = next(op for op in self.ops if op.kind == "analyze" and op.sample.spectrum == "distinct_real")
        fast.run(None)

    @classmethod
    def setup_once(cls, seed: int) -> float:
        """Seconds to build the request list and serve the warm-up request."""
        t0 = perf_counter()
        cls(seed).warm_up()
        return perf_counter() - t0

    def prepare(self) -> None:
        """Reference values and schema, outside every timed region."""
        import jsonschema

        schema = json.loads((SRC / "reactlin" / "schemas" / "report-v1.schema.json").read_text())
        self._validator = jsonschema.Draft202012Validator(schema)
        want = [i for i, (kind, sample, _, _) in enumerate(self.specs)
                if kind == "analyze" and sample.classification == "reactive_attractor"]
        self.refs = dict(zip(want, rho_max_refs([self.specs[i][1].a for i in want])))

    def pass_ops(self, n: int) -> list[Op]:
        """Every pass repeats the same requests: each runs in a fresh
        process, and a repeat must give byte-identical output."""
        return self.ops

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- ops ----------------------------------------------------------------

    def _runner(self, argv: list[str]):
        env = program_env()

        def run(tracer):
            if tracer is None:
                cmd = [sys.executable, "-m", "reactlin.cli", *argv]
            else:
                cmd = [sys.executable, str(CHILD), *argv]
            proc = subprocess.run(cmd, env=env, cwd=SRC.parent, capture_output=True)
            err = proc.stderr.decode()
            if tracer is not None:
                head, mark, spans = err.partition(MARK)
                if mark:
                    tracer.merge(json.loads(spans))
                err = head.rstrip("\n")
            return proc.returncode, proc.stdout, err

        return run

    def _checker(self, index: int, kind: str, sample: Sample, want: dict):
        def check(out) -> str | None:
            code, stdout, stderr = out
            if code != 0 or stderr:
                return f"exit {code}: {stderr.strip()[:200]}"
            first = self.first.setdefault(index, stdout)
            if stdout != first:
                return "output differs from the first run of the same request"
            if kind == "portrait":
                return _check_portrait(stdout.decode(), sample)
            report = json.loads(stdout)
            errors = sorted(self._validator.iter_errors(report), key=str)
            if errors:
                return f"schema: {errors[0].message[:200]}"
            if kind == "synthesize":
                return _check_synthesize(report, want)
            return self._check_analyze(index, report, sample)

        return check

    def _check_analyze(self, index: int, report: dict, sample: Sample) -> str | None:
        cls = report["transient"]["classification"]
        if cls != sample.classification:
            return f"classified {cls}, built as {sample.classification}"
        if report["eigen"]["kind"] != _EIGEN_KIND[sample.spectrum]:
            return f"eigen kind {report['eigen']['kind']} for a {sample.spectrum} spectrum"
        amp = report.get("amplification")
        if (amp is None) != (index not in self.refs):
            return "amplification block present exactly for reactive attractors expected"
        if amp is None:
            return None
        for key in ("rho_max", "experimental_closed_rho_max"):
            if key in amp:
                bad = rho_error(amp[key], self.refs[index])
                if bad:
                    return f"{key}: {bad}"
        return None


def _check_synthesize(report: dict, want: dict) -> str | None:
    measured = report["measured"]
    if measured["classification"] != "reactive_attractor":
        return f"synthesized a {measured['classification']}"
    for key, value in want.items():
        if abs(measured[key] - value) > 1e-9 * max(1.0, abs(value)):
            return f"measured {key}={measured[key]!r}, requested {value!r}"
    return None


def _check_portrait(text: str, sample: Sample) -> str | None:
    lines = text.splitlines()
    if lines[0] != "theta,R,T,vx,vy" or len(lines) != PORTRAIT_N + 1:
        return "portrait header or row count is wrong"
    a11, a12, a21, a22 = sample.a
    scale = max(map(abs, sample.a))
    for i, line in enumerate(lines[1:]):
        th, r, t, vx, vy = map(float, line.split(","))
        c, s = math.cos(i * math.pi / PORTRAIT_N), math.sin(i * math.pi / PORTRAIT_N)
        fx, fy = a11 * c + a12 * s, a21 * c + a22 * s
        want = (i * math.pi / PORTRAIT_N, fx * c + fy * s, -fx * s + fy * c, fx, fy)
        if any(abs(g - w) > 1e-12 * (1.0 + scale) for g, w in zip((th, r, t, vx, vy), want)):
            return f"portrait row {i} is off: {line}"
    return None
