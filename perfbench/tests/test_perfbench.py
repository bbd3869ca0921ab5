"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import math
from pathlib import Path

import pytest

import harness
import inputs
from percentiles import min_samples, percentile
from reference import RHO_RTOL, rho_error, rho_max_ref
from tracing import NAME, PARENT, T0, T1, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


def _span(name, parent, t0, t1):
    return [name, parent, t0, t1, 0, None, None]


def test_self_time_subtracts_children_on_a_nested_tree():
    spans = [
        _span("op", None, 0, 100),         # children cover 10-40 and 50-90
        _span("a", 0, 10, 40),             # child covers 20-30
        _span("a.1", 1, 20, 30),
        _span("b", 0, 50, 90),             # children overlap: 55-70 and 60-80
        _span("b.1", 3, 55, 70),
        _span("b.2", 3, 60, 80),
        _span("b.2.x", 5, 65, 66),
    ]
    assert self_times(spans) == [30, 20, 10, 15, 15, 19, 1]


def test_child_spans_past_the_parent_are_clipped():
    spans = [_span("op", None, 0, 10), _span("late", 0, 5, 15)]
    assert self_times(spans)[0] == 5


def test_tracer_wraps_every_module_binding_and_restores_them():
    import reactlin.amplification as amplification
    import reactlin.core as core

    original = core.decompose
    tracer = Tracer()
    tracer.install()
    try:
        assert amplification.decompose is core.decompose is not original
        with tracer.span("op:test"):
            amplification.rho_max_closed(core.Mat2(-1.0, -8.0, 0.0, -3.0))
    finally:
        tracer.uninstall()
    assert amplification.decompose is core.decompose is original
    names = [s[NAME] for s in tracer.spans]
    closed = names.index("amplification.rho_max_closed")
    nested = [s for s in tracer.spans if s[NAME] == "core.decompose"]
    assert nested and all(s[PARENT] is not None for s in nested)
    assert tracer.spans[closed][PARENT] == 0
    assert all(s[T1] >= s[T0] for s in tracer.spans)


@pytest.mark.parametrize("workload", ["cli-cold", "lib-warm", "dyn-warm"])
def test_seed_fixes_the_inputs(workload):
    import run

    cls = run.load(workload)

    def matrices(seed):
        return [op.sample.a for op in cls(seed).ops]

    assert matrices(7) == matrices(7)
    assert matrices(7) != matrices(8)


@pytest.mark.parametrize("workload", ["lib-warm", "dyn-warm"])
def test_every_pass_gets_inputs_of_its_own(workload):
    import run

    w = run.load(workload)(7)

    def matrices(ops):
        return {op.sample.a for op in ops if op.sample.a}

    first, second = matrices(w.pass_ops(0)), matrices(w.pass_ops(1))
    assert len(first) == len(second) > 0
    assert not first & second
    assert [op.kind for op in w.pass_ops(0)] == [op.kind for op in w.pass_ops(1)]


@pytest.mark.parametrize("gen", [inputs.reactive_real, inputs.reactive_edge,
                                 inputs.reactive_spiral, inputs.reactive_near_repeated])
def test_a_turned_copy_keeps_its_reference(gen):
    sample = gen(inputs.rng_for("test", 1))
    copy = inputs.renew(sample, inputs.rng_for("test", 2))
    assert copy.a != sample.a
    assert (copy.classification, copy.spectrum) == (sample.classification, sample.spectrum)
    assert rho_max_ref(*copy.a) == pytest.approx(rho_max_ref(*sample.a), rel=1e-12)


def test_with_transit_sets_the_arc_crossing_time():
    sample = inputs.with_transit(inputs.reactive_real(inputs.rng_for("test", 3)), 1.15)
    assert inputs.arc_transit(sample) == pytest.approx(1.15, rel=1e-12)
    # A midpoint sum of du / |T| over the arc agrees.
    m_r, m_t, p, _ = sample.rt
    half, n = math.acos(-m_r / p) / 2, 100_000
    h = 2 * half / n
    assert sum(h / abs(m_t - p * math.sin(2 * (-half + (i + 0.5) * h))) for i in range(n)) == pytest.approx(1.15, rel=1e-6)


def test_best_of_is_taken_per_block_of_passes():
    import run

    class Warm:
        best_of = True
        ops = [None, None]

    # Two slots, six passes: the blocks are passes 0, 2, 4 and 1, 3, 5.
    tally = harness.Tally(latencies=[5.0, 9.0, 4.0, 8.0, 6.0, 7.0,
                                     3.0, 9.0, 6.0, 1.0, 6.0, 9.0], passes=6)
    assert run.BEST_OF == 3
    assert run.op_latencies(Warm, tally) == [(5.0 + 3.0) / 2, (1.0 + 8.0) / 2]


def test_generators_cover_every_classification():
    import cli_cold

    got = inputs.shares([op.sample for op in cli_cold.CliCold(3).ops])["classification"]
    assert set(got) == {
        "reactive_attractor", "nonreactive_attractor", "attenuating_repeller",
        "nonattenuating_repeller", "saddle", "center", "circular_center", "degenerate",
    }


def test_percentile_refuses_a_tail_without_ten_samples_beyond():
    assert min_samples(90) == 100 and min_samples(99) == 1000 and min_samples(50) == 1
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(99)], 90)
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(999)], 99)
    assert percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)
    assert percentile([3.0], 50) == 3.0


def test_reference_check_flags_a_rho_max_off_by_one_in_a_million():
    import lib_warm
    from reactlin.core import Mat2

    sample = inputs.reactive_real(inputs.rng_for("test", 0))
    ref = rho_max_ref(*sample.a)
    out = lib_warm.analyse(Mat2(*sample.a))
    assert lib_warm.check_analyse(sample, ref, out) is None
    bound_ortho, bound_eigen, rho = out[-1]
    bad = out[:-1] + ((bound_ortho, bound_eigen, rho * (1 + 1e-6)),)
    assert "reference" in lib_warm.check_analyse(sample, ref, bad)
    assert rho_error(ref * (1 + 1e-6), ref) is not None
    assert rho_error(ref * (1 + RHO_RTOL / 2), ref) is None


def test_reference_matches_the_paper_example():
    # [[-1, -8], [0, -3]]: the closed form gives 1.66268...
    assert rho_max_ref(-1.0, -8.0, 0.0, -3.0) == pytest.approx(1.6626800963141628, rel=1e-14)


def test_importtime_parse():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       558 |      58234 |         numpy.lib\n"
        "import time:      4181 |     137971 |       numpy\n"
        "import time:      5613 |     152335 |     reactlin.core\n"
        "import time:      5633 |     191976 | reactlin.cli\n"
    )
    got = harness.parse_importtime(text)
    assert got["import.numpy_s"] == pytest.approx(0.137971)
    assert got["import.total_s"] == pytest.approx(0.191976)
    assert got["import.reactlin_s"] == pytest.approx(0.191976 - 0.137971)


def test_benchmark_json_names_the_metrics_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    import run

    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
