"""The measuring loop, per-layer aggregation, import breakdown, environment.

Every workload is a fixed, seeded list of operation slots (one "pass").
A run repeats whole passes in a closed loop with one client, each pass on
its own inputs (``pass_ops(n)``), so every run sees each slot the same
number of times and the mix never depends on where the clock ran out.
Each operation is timed alone; its output is checked after the timer
stops.
"""

from __future__ import annotations

import os
import platform
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from importlib import metadata
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

from inputs import Sample
from tracing import NAME, OP, PARENT, T0, T1, EXC, VALUE, Tracer, children, covered, has_ancestor, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics, reported by every untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "per_s": "1/s",
    "peak_rss_mib": "MiB",
}

_KINDS = ("real", "edge", "spiral", "repeated")
_FAMILY = {"distinct_real": "real", "edge": "edge", "complex": "spiral",
           "near_repeated": "repeated", "repeated": "repeated"}
# A CLI request on an edge case takes the closed-form route, like any real one.
_CLI_FAMILY = {**_FAMILY, "edge": "real"}

#: Per-layer metrics, reported by every traced run: name -> unit.
PER_LAYER = {
    "import.interpreter_s": "s",
    "import.numpy_s": "s",
    "import.reactlin_s": "s",
    "import.total_s": "s",
    "cli.self_ms": "ms",
    "cli.closed_hit_ratio": "ratio",
    "cli.oracle_calls_per_request.real": "count",
    "cli.oracle_calls_per_request.spiral": "count",
    "cli.oracle_calls_per_request.repeated": "count",
    "cli.oracle_useful_ratio": "ratio",
    "core.decompose.calls_per_op": "count",
    "amplification.decompose_per_closed": "count",
    "amplification.rho_max_closed.us_per_call": "us",
    "core.self_us_per_op": "us",
    "spectra.self_us_per_op": "us",
    "forms.self_us_per_op": "us",
    "synthesis.self_us_per_op": "us",
    **{f"amplification.rho_max_numeric.ms_per_call.{k}": "ms" for k in _KINDS},
    "dynamics.sweep_rotation_rates.s_per_call": "s",
    "dynamics.integrate_linear.ms_per_call": "ms",
    "dynamics.integrate_polar.ms_per_call": "ms",
    "dynamics.integrate_nonaut.ms_per_call": "ms",
    "dynamics.matrix_exponential.us_per_call": "us",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}


def program_env() -> dict[str, str]:
    """Environment for a child process that runs the library from source."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


@dataclass
class Op:
    """One benchmark operation: a timed call and a check of its output.

    ``run`` receives the tracer during traced passes (None otherwise);
    ``check`` returns None for a correct output, else what was wrong.
    """

    kind: str
    sample: Sample
    run: Callable[[Tracer | None], object]
    check: Callable[[object], str | None]


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    passes: int = 0

    def record(self, op: Op, seconds: float, error: str | None) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.kind}: {error}")


def run_pass(ops: list[Op], tally: Tally, tracer: Tracer | None = None,
             log: list[Op] | None = None) -> float:
    """Run every op once; return the summed op latency in seconds."""
    busy = 0
    for op in ops:
        if tracer is not None:
            tracer.op = len(log)
            log.append(op)
        error = None
        t0 = perf_counter_ns()
        try:
            if tracer is None:
                out = op.run(None)
            else:
                with tracer.span("op:" + op.kind):
                    out = op.run(tracer)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        dt = perf_counter_ns() - t0
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        tally.record(op, dt * 1e-9, error)
        busy += dt
    return busy * 1e-9


def measure(pass_ops: Callable[[int], list[Op]], seconds: float, min_samples: int, block: int,
            peak_rss: Callable[[], float],
            between: Callable[[float], None]) -> tuple[Tally, float]:
    """Untraced passes until `seconds` have passed, enough samples exist
    and the pass count is a multiple of `block`.

    Peak RSS is read after the first pass, when the program has done all
    its work once but the benchmark's latency list is still short.
    ``between(elapsed)`` runs after every pass, outside the timed ops.
    """
    tally = Tally()
    start = perf_counter()
    while True:
        run_pass(pass_ops(tally.passes), tally)
        tally.passes += 1
        if tally.passes == 1:
            rss = peak_rss()
        elapsed = perf_counter() - start
        between(elapsed)
        if elapsed >= seconds and len(tally.latencies) >= min_samples and tally.passes % block == 0:
            return tally, rss


#: Traced passes stop early once this many spans are held (~200 bytes each).
MAX_SPANS = 250_000


def measure_traced(pass_ops: Callable[[int], list[Op]],
                   seconds: float) -> tuple[Tally, Tracer, list[Op], float]:
    """Alternate untraced and traced passes; return the traced spans.

    The overhead is the traced passes' summed latency over the untraced
    passes' minus one, on the same operation slots.
    """
    tally = Tally()
    tracer = Tracer()
    log: list[Op] = []
    plain = traced = 0.0
    start = perf_counter()
    while (perf_counter() - start < seconds and len(tracer.spans) < MAX_SPANS) or traced == 0.0:
        plain += run_pass(pass_ops(tally.passes), tally)
        tracer.install()
        try:
            traced += run_pass(pass_ops(tally.passes + 1), tally, tracer, log)
        finally:
            tracer.uninstall()
        tally.passes += 2
    return tally, tracer, log, traced / plain - 1.0


# ---------------------------------------------------------------------------
# per-layer aggregation


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[list], log: list[Op]) -> dict[str, float]:
    """Per-layer metrics of traced spans; 0 where a layer was not called."""
    n_ops = len(log)
    selfs = self_times(spans)
    kids = children(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[NAME]].append(i)

    def dur(i: int) -> float:
        return (spans[i][T1] - spans[i][T0]) * 1e-9

    def mean_dur(name: str, scale: float) -> float:
        return _mean([dur(i) for i in by_name[name]]) * scale

    out: dict[str, float] = {}
    closed = by_name["amplification.rho_max_closed"]
    decomposes = by_name["core.decompose"]
    out["core.decompose.calls_per_op"] = len(decomposes) / n_ops
    out["amplification.decompose_per_closed"] = (
        sum(has_ancestor(spans, i, "amplification.rho_max_closed") for i in decomposes)
        / len(closed) if closed else 0.0
    )
    out["amplification.rho_max_closed.us_per_call"] = mean_dur("amplification.rho_max_closed", 1e6)
    for mod in ("core", "spectra", "forms", "synthesis"):
        total = sum(s for rec, s in zip(spans, selfs) if rec[NAME].startswith(mod + "."))
        out[f"{mod}.self_us_per_op"] = total * 1e-3 / n_ops

    numeric = by_name["amplification.rho_max_numeric"]
    for kind in _KINDS:
        calls = [dur(i) for i in numeric if _FAMILY[log[spans[i][OP]].sample.spectrum] == kind]
        out[f"amplification.rho_max_numeric.ms_per_call.{kind}"] = _mean(calls) * 1e3
    out["dynamics.sweep_rotation_rates.s_per_call"] = mean_dur("dynamics.sweep_rotation_rates", 1.0)
    for fn in ("integrate_linear", "integrate_polar", "integrate_nonaut"):
        out[f"dynamics.{fn}.ms_per_call"] = mean_dur(f"dynamics.{fn}", 1e3)
    out["dynamics.matrix_exponential.us_per_call"] = mean_dur("dynamics.matrix_exponential", 1e6)

    out.update(_cli_metrics(spans, selfs, by_name, log))

    roots = [i for i, rec in enumerate(spans) if rec[PARENT] is None and rec[NAME].startswith("op:")]
    total = sum(dur(i) for i in roots)
    bare = sum(
        spans[i][T1] - spans[i][T0]
        - covered(((spans[k][T0], spans[k][T1]) for k in kids.get(i, ())), spans[i][T0], spans[i][T1])
        for i in roots
    ) * 1e-9
    out["trace.uncovered_frac"] = bare / total if total else 0.0
    return out


def _cli_metrics(spans, selfs, by_name, log) -> dict[str, float]:
    """Metrics of cold CLI requests: ops whose spans include cli.main."""
    mains = by_name["cli.main"]
    out = {"cli.self_ms": _mean([selfs[i] * 1e-6 for i in mains])}
    first_closed: dict[int, list] = {}
    for i in by_name["amplification.rho_max_closed"]:
        first_closed.setdefault(spans[i][OP], spans[i])
    cli_ops = {spans[i][OP] for i in mains}
    amp_ops = [o for o in cli_ops if o in first_closed]
    out["cli.closed_hit_ratio"] = (
        sum(first_closed[o][EXC] is None for o in amp_ops) / len(amp_ops) if amp_ops else 0.0
    )
    oracle_by_op: dict[int, int] = defaultdict(int)
    oracles = [i for i in by_name["amplification.rho_max_numeric"] if spans[i][OP] in cli_ops]
    for i in oracles:
        oracle_by_op[spans[i][OP]] += 1
    for kind in ("real", "spiral", "repeated"):
        reqs = [o for o in amp_ops if _CLI_FAMILY[log[o].sample.spectrum] == kind]
        out[f"cli.oracle_calls_per_request.{kind}"] = _mean([oracle_by_op[o] for o in reqs])
    out["cli.oracle_useful_ratio"] = (
        sum(spans[i][VALUE] is True for i in oracles) / len(oracles) if oracles else 0.0
    )
    return out


# ---------------------------------------------------------------------------
# import layer


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of numpy and of the whole `import reactlin.cli`."""
    numpy_us = total_us = None
    for m in _IMPORTTIME.finditer(stderr):
        cumulative, name = int(m.group(2)), m.group(4)
        if name == "numpy" and numpy_us is None:
            numpy_us = cumulative
        if name == "reactlin.cli":
            total_us = cumulative
    if total_us is None:
        raise ValueError("no reactlin.cli line in -X importtime output")
    numpy_us = numpy_us or 0
    return {
        "import.numpy_s": numpy_us * 1e-6,
        "import.reactlin_s": (total_us - numpy_us) * 1e-6,
        "import.total_s": total_us * 1e-6,
    }


#: Child processes of each kind behind the import breakdown's medians.
IMPORT_REPEATS = 3


def import_breakdown() -> dict[str, float]:
    """Median of `python -c pass` wall time and of an importtime parse."""
    env = program_env()
    walls, parsed = [], []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        walls.append(perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import reactlin.cli"],
            env=env, capture_output=True, text=True, check=True,
        )
        parsed.append(parse_importtime(proc.stderr))
    out = {"import.interpreter_s": statistics.median(walls)}
    for key in parsed[0]:
        out[key] = statistics.median(p[key] for p in parsed)
    return out


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }
