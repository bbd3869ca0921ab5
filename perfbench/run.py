"""reactlin benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload {cli-cold,lib-warm,dyn-warm} \\
        --seed N --seconds S --trace {0,1}

    for w in cli-cold lib-warm dyn-warm; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 32 --trace 0
    done

Run from the root of a source checkout; the library is loaded from
``src/``.  The seed fixes the inputs; the library sees only the matrices.
A run repeats whole passes of the workload's operation list in a closed
loop with one client until S seconds have passed and the tail percentile
has at least 10 samples beyond it, and checks every output.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Lines
before the last describe the run for a reader, with the figures under
their per-workload names; the last line is one JSON object.

End-to-end metrics (op = one CLI request / one library op / one job):
    setup_s       median of 7 set-ups spread over the run: cold CLI =
                  build the request list and serve one warm-up request;
                  warm workloads = a fresh interpreter's `import reactlin`,
                  input construction and warm-up.  Excludes the
                  benchmark's reference computation.
    p50_ms        median op latency (cli_p50_s, lib_p50_us, dyn job median).
    tail_ms       p90 of requests (cli_p90_s), p99 of ops (lib_p99_us),
                  p90 of jobs (dyn-warm).
    per_s         ops per second of busy time (cli_per_s, lib_per_s, and
                  jobs/s on dyn-warm, which is 269 / dyn_wall_s).
    peak_rss_mib  peak resident set of the CLI children (cli-cold) or of
                  the measuring process after its first pass.

On the warm workloads a pass runs every op slot once, each pass on fresh
inputs of the same shapes.  A run of P passes, a multiple of BEST_OF and
at least MIN_BLOCKS times it, forms m = P / BEST_OF blocks, block k being
passes k, k + m, k + 2m, ...  A slot's latency is its best in each
block, as timeit reports, and the median over the blocks; the
percentiles run over slots.  Other tenants of a shared machine slow a
process by a third to a half for stretches of 25 seconds to several
minutes; the best of a few repeats spread over the run removes the
shorter stretches, while the longer ones slow whole runs.  The block size
is fixed, so a faster program that fits more passes into S seconds gets
more blocks, not a minimum over more repeats.  cli-cold repeats each
request about 5 times and reports every request as measured.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = {"cli-cold": ("cli_cold", "CliCold"),
             "lib-warm": ("lib_warm", "LibWarm"),
             "dyn-warm": ("dyn_warm", "DynWarm")}
SETUP_REPEATS = 7
#: Passes per block on a warm workload; each slot reports its best per block.
BEST_OF = 3
#: Fewest blocks in a warm run, so that even a slow run spaces a slot's
#: repeats at least two passes apart.
MIN_BLOCKS = 2


def load(workload: str):
    module, cls = WORKLOADS[workload]
    return getattr(importlib.import_module(module), cls)


def setup_once(workload: str, seed: int) -> float:
    """One set-up; a warm workload sets up in a fresh interpreter."""
    if workload == "cli-cold":
        return load(workload).setup_once(seed)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    return float(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.split()[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def op_latencies(w, tally) -> list[float]:
    """Per-slot samples on a warm workload (median over blocks of the
    block's best), else every request."""
    if not w.best_of:
        return tally.latencies
    n = len(w.ops)
    m = tally.passes // BEST_OF
    out = []
    for i in range(n):
        reps = tally.latencies[i::n]
        out.append(statistics.median(min(reps[k::m]) for k in range(m)))
    return out


def describe(workload: str, w, lat: list[float], tally) -> list[str]:
    """Figures under their per-workload names, with their sample counts."""
    from percentiles import percentile

    n = len(lat)
    of = f"n={n}" + (f", median over {tally.passes // BEST_OF} blocks of the best of {BEST_OF}"
                      if w.best_of else "")
    lines = []
    if workload == "cli-cold":
        lines += [f"cli_p50_s = {_fmt(percentile(lat, 50))} s ({of})",
                  f"cli_p90_s = {_fmt(percentile(lat, 90))} s ({of})",
                  f"cli_per_s = {_fmt(n / sum(lat))} 1/s ({of})"]
    elif workload == "lib-warm":
        lines += [f"lib_per_s = {_fmt(n / sum(lat))} 1/s ({of})",
                  f"lib_p50_us = {_fmt(percentile(lat, 50) * 1e6)} us ({of})",
                  f"lib_p99_us = {_fmt(percentile(lat, 99) * 1e6)} us ({of})"]
    else:
        by_kind: dict[str, list[float]] = {}
        by_loop: dict[str, float] = {}
        for op, dt in zip(w.ops, lat):
            by_kind.setdefault(op.kind.split("-")[0], []).append(dt)
            by_loop[op.kind] = by_loop.get(op.kind, 0.0) + dt
        lines.append(f"dyn_wall_s = {_fmt(sum(lat))} s (the {n} jobs, {of})")
        lines.append("loop share of dyn_wall_s: " + ", ".join(
            f"{loop} {by_loop[loop] / sum(lat):.3f}" for loop in sorted(by_loop)))
        for kind, name, scale, unit in (("oracle", "oracle_p50_ms", 1e3, "ms"),
                                        ("sweep", "sweep_p50_s", 1.0, "s"),
                                        ("traj", "traj_p50_ms", 1e3, "ms")):
            lines.append(f"{name} = {_fmt(statistics.median(by_kind[kind]) * scale)} {unit} "
                         f"(n={len(by_kind[kind])} jobs)")
    lines.append(f"fail_frac = {_fmt(tally.failed / tally.attempted)} (failed {tally.failed} "
                 f"of {tally.attempted})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "reactlin" / "cli.py").is_file():
        print(f"perfbench: no reactlin sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        t0 = perf_counter()
        load(args.workload)(args.seed).warm_up()
        print(perf_counter() - t0)
        return 0

    import harness
    import inputs
    from percentiles import min_samples, percentile

    env = harness.environment(args.seed)
    setups = [setup_once(args.workload, args.seed)]
    w = load(args.workload)(args.seed)
    w.warm_up()
    w.prepare()

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("environment " + json.dumps(env))
    samples = [op.sample for op in w.ops]
    print("inputs " + json.dumps({"ops_per_pass": len(w.ops), "share": inputs.shares(samples)}))

    if args.trace:
        tally, tracer, log, overhead = harness.measure_traced(w.pass_ops, args.seconds)
        metrics = harness.layer_metrics(tracer.spans, log)
        metrics["trace.overhead_frac"] = overhead
        metrics.update(harness.import_breakdown())
        units = harness.PER_LAYER
        print(f"traced {len(log)} ops, {len(tracer.spans)} spans")
        for name, unit in units.items():
            print(f"| {args.workload} | {name} | {_fmt(metrics[name])} {unit} |")
    else:
        need = len(w.ops) * BEST_OF * MIN_BLOCKS if w.best_of else min_samples(w.tail)
        def more_setups(elapsed: float) -> None:
            # Spread the set-ups over the run, so their median does not hang
            # on how busy the machine was in its first seconds.
            while len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
                setups.append(setup_once(args.workload, args.seed))

        tally, rss = harness.measure(w.pass_ops, args.seconds, need, BEST_OF if w.best_of else 1,
                                     w.peak_rss_mib, more_setups)
        more_setups(float("inf"))
        lat = op_latencies(w, tally)
        metrics = {
            "setup_s": statistics.median(setups),
            "p50_ms": percentile(lat, 50) * 1e3,
            "tail_ms": percentile(lat, w.tail) * 1e3,
            "per_s": len(lat) / sum(lat),
            "peak_rss_mib": rss,
        }
        units = harness.END_TO_END
        print(f"setup_s = {_fmt(metrics['setup_s'])} s (median of {len(setups)}: "
              + ", ".join(_fmt(s) for s in setups) + ")")
        print(f"peak_rss_mib = {_fmt(metrics['peak_rss_mib'])} MiB")
        for line in describe(args.workload, w, lat, tally):
            print(line)
    for err in tally.errors:
        print(f"FAILED {err}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
