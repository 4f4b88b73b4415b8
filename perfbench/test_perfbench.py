"""Tests of the benchmark's own code: span arithmetic, the tail-percentile
rule, and metric extraction. Run with ``python3 -m pytest perfbench``."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import report  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [Span("root", 0.0, 10.0, None, 1),
             Span("a", 1.0, 4.0, 0, 1),
             Span("a.child", 2.0, 3.0, 1, 1),
             Span("b", 5.0, 9.0, 0, 1)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracer.self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_by_union():
    spans = [Span("root", 0.0, 10.0, None, 1),
             Span("x", 1.0, 6.0, 0, 1),
             Span("y", 4.0, 8.0, 0, 1)]
    assert tracer.self_times(spans)[0] == 3.0
    assert tracer.covered([(1, 2), (1.5, 3), (5, 6)]) == 3.0


def test_tracer_nests_spans_in_call_order():
    ticks = iter(range(100))
    trace = tracer.Tracer(iteration=7, clock=lambda: float(next(ticks)))
    inner = trace.wrap("inner", lambda: None)
    outer = trace.wrap("outer", lambda: inner(), counter=lambda a, k, r: {
        "n": 2})
    with trace.span("root"):
        outer()
        inner()
    names = [(s.name, s.parent, s.iteration) for s in trace.spans]
    assert names == [("root", None, 7), ("outer", 0, 7), ("inner", 1, 7),
                     ("inner", 0, 7)]
    summary = tracer.summarise(trace.spans)
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["n"] == 2
    root = trace.spans[0]
    assert sum(e["self_s"] for e in summary.values()) == root.end - root.start


def test_patched_replaces_every_binding_and_restores_them():
    import coreg
    import coreg.cfog
    import coreg.matcher

    original = coreg.cfog.build_cfog
    trace = tracer.Tracer()
    with trace.patched({"cfog.build_cfog": "coreg.cfog:build_cfog"}, {}):
        for namespace in (coreg, coreg.cfog, coreg.matcher):
            assert namespace.build_cfog.__wrapped__ is original
    for namespace in (coreg, coreg.cfog, coreg.matcher):
        assert namespace.build_cfog is original


def test_layer_values_attribute_model_evaluations():
    spans = [Span("bench.iteration", 0.0, 10.0, None, 1),
             Span("raster.warp", 1.0, 3.0, 0, 1),
             Span("geomodels.apply", 1.5, 2.5, 1, 1, {"points": 100}),
             Span("synthgen.invert_warp_grid", 4.0, 8.0, 0, 1),
             Span("geomodels.apply", 5.0, 6.0, 3, 1, {"points": 100}),
             Span("geomodels.apply", 6.0, 7.0, 3, 1, {"points": 100})]
    names = ["raster.warp", "geomodels.apply", "synthgen.invert_warp_grid",
             "cfog.build_cfog"]
    values = run.layer_values(spans, names, run.counters())
    assert values["geomodels.apply.calls"] == 3
    assert values["geomodels.apply.calls_outside_warp"] == 2
    assert values["synthgen.invert_warp_grid.apply_calls_per_call"] == 2.0
    assert values["geomodels.apply.ns_per_point"] == pytest.approx(1e7)
    assert values["cfog.build_cfog.calls"] == 0
    assert values["cfog.build_cfog.pixels"] == 0
    assert values["self_sum_s"] == values["trace.wall_s"] == 10.0


@pytest.mark.parametrize("n, expected", [
    (10, None), (15, None), (19, None), (20, (50, 9)), (37, (72, 26)),
    (100, (90, 89)), (1000, (99, 989))])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    values = [float(v) for v in reversed(range(n))]
    assert report.tail_percentile(values) == (
        None if expected is None else (expected[0], float(expected[1])))
    if expected is not None:
        assert sum(v > expected[1] for v in values) >= 10


def test_select_extracts_named_metrics_with_units():
    manifest = report.load_manifest(HERE.parent / "BENCHMARK.json")
    assert manifest["end_to_end"]["wall_s"] == "s"
    assert manifest["end_to_end"]["setup_s"] == "s"
    values = {"wall_s": 1.5, "setup_s": 2.0, "peak_rss_mb": 100.0,
              "extra": 3.0}
    picked = report.select(values, manifest["end_to_end"])
    assert picked == {"wall_s": {"value": 1.5, "unit": "s"},
                      "setup_s": {"value": 2.0, "unit": "s"},
                      "peak_rss_mb": {"value": 100.0, "unit": "MB"}}
    with pytest.raises(KeyError, match="peak_rss_mb"):
        report.select({"wall_s": 1.0, "setup_s": 1.0},
                      manifest["end_to_end"])
    line = json.loads(report.result_line(True, 3, 0, picked))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]


def test_manifest_lists_the_layer_table():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    table = [{"name": n, "unit": u, "better": b}
             for layer in layers["layers"] for n, u, b in layer["metrics"]]
    assert bench["per_layer"] == table
    metric_names = ({m["name"] for m in bench["end_to_end"]}
                    | {m["name"] for m in bench["per_layer"]})
    workloads = {w["name"] for w in bench["workloads"]}
    for layer in layers["layers"]:
        assert set(layer["moves"]) <= metric_names
        assert set(layer["most_work_in"]) <= workloads
    for spec in layers["spans"].values():
        tracer.resolve(spec["target"])
        assert set(spec["expect_calls"]) <= workloads
