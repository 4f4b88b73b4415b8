"""coreg benchmark: one closed-loop client drives the coreg CLI and library
in-process on seeded inputs and checks every output against planted truth.

    python3 perfbench/run.py --workload flat-scene --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src and
nothing else. ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_SAMPLES = 3
# one BLAS/OpenMP thread, like the pipeline's threads=1: the single-threaded
# baseline, and the least exposed to other load on a shared machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
PINNED_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "pipeline_threads": 1, "seed": seed}


def digest(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


SKIP_REASONS = ("template-window", "search-window", "flat", "unreliable-peak",
                "offset-bound")


def counters():
    """Per span name: the counts it reports, and a function taking them from
    a wrapped call's arguments and result (outside its span)."""
    import numpy as np

    def match_counts(args, kwargs, result):
        stats = result[1]
        counts = {"attempted": stats.attempted, "matched": stats.matched}
        for reason, n in stats.skipped.items():
            counts[f"skipped.{reason}"] = n
        return counts

    return {
        "keypoints.fast_score_map":
            (("mpix",), lambda a, k, r: {"mpix": np.size(a[0]) / 1e6}),
        "cfog.build_cfog":
            (("pixels",),
             lambda a, k, r: {"pixels": np.size(getattr(a[0], "data", a[0]))}),
        "matcher.phase_correlate_3d":
            (("voxels",), lambda a, k, r: {"voxels": a[1].values.size}),
        "matcher.match_all":
            (("attempted", "matched")
             + tuple(f"skipped.{reason}" for reason in SKIP_REASONS),
             match_counts),
        "robustfit.ransac_filter":
            (("inliers", "input"),
             lambda a, k, r: {"inliers": len(r[0]), "input": len(a[0])}),
        "geomodels.apply":
            (("points",), lambda a, k, r: {"points": np.size(a[1])}),
        "raster.sample_bilinear":
            (("samples",), lambda a, k, r: {"samples": np.size(r)}),
        "raster.load_raster":
            (("bytes",), lambda a, k, r: {"bytes": r.data.nbytes}),
        "raster.save_raster":
            (("bytes",), lambda a, k, r: {"bytes": a[0].data.nbytes}),
        "synthgen.invert_warp_grid":
            (("points",), lambda a, k, r: {"points": np.size(a[1])}),
    }


def layer_values(spans: list, span_names, span_counters: dict) -> dict:
    """Per-layer values of one traced iteration; ``spans[0]`` is its root."""
    import tracer

    summary = tracer.summarise(spans)
    values = {}
    for name in span_names:
        keys, _ = span_counters.get(name, ((), None))
        entry = {"calls": 0, "s": 0.0, "self_s": 0.0, **dict.fromkeys(keys, 0)}
        entry.update(summary.get(name, {}))
        for key, value in entry.items():
            values[f"{name}.{key}"] = value
    root = spans[0]
    values["bench.iteration.self_s"] = summary[root.name]["self_s"]
    values["trace.wall_s"] = root.end - root.start
    for reason in SKIP_REASONS:
        values[f"matcher.skipped.{reason}"] = values.pop(
            f"matcher.match_all.skipped.{reason}", 0)

    def ratio(num, den):
        return values.get(num, 0) / values[den] if values.get(den) else 0.0

    values["matcher.match_all.yield"] = ratio("matcher.match_all.matched",
                                              "matcher.match_all.attempted")
    values["robustfit.ransac_filter.inlier_ratio"] = ratio(
        "robustfit.ransac_filter.inliers", "robustfit.ransac_filter.input")
    values["geomodels.apply.ns_per_point"] = 1e9 * ratio(
        "geomodels.apply.self_s", "geomodels.apply.points")
    applies = [i for i, s in enumerate(spans) if s.name == "geomodels.apply"]
    values["geomodels.apply.calls_outside_warp"] = sum(
        not tracer.has_ancestor(spans, i, "raster.warp") for i in applies)
    values["synthgen.invert_warp_grid.apply_calls_per_call"] = sum(
        tracer.has_ancestor(spans, i, "synthgen.invert_warp_grid")
        for i in applies) / max(values["synthgen.invert_warp_grid.calls"], 1)
    values["self_sum_s"] = sum(tracer.self_times(spans))
    return values


def run(args, out_root: Path) -> tuple[bool, int, int, dict]:
    import report
    import tracer
    import workloads

    manifest = report.load_manifest(ROOT / "BENCHMARK.json")
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    print("machine " + json.dumps(machine(args.seed)), flush=True)

    workload = workloads.WORKLOADS[args.workload](args.seed,
                                                  out_root / "inputs")
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)

    targets = {name: spec["target"] for name, spec in layers["spans"].items()}
    span_counters = counters()
    count_fns = {name: fn for name, (_, fn) in span_counters.items()}
    problems = []
    attempted = failed = 0
    reference_digest = None
    walls, traced_walls, stages, per_layer, quality = [], [], {}, [], {}

    def iteration(number: int, traced: bool):
        nonlocal attempted, failed, reference_digest
        out = out_root / "out"
        shutil.rmtree(out, ignore_errors=True)
        attempted += 1
        trace = tracer.Tracer(iteration=number)
        try:
            if traced:
                with trace.patched(targets, count_fns):
                    with trace.span("bench.iteration") as root:
                        stage_s = workload.iterate(out)
                wall = root.end - root.start
            else:
                t0 = time.perf_counter()
                stage_s = workload.iterate(out)
                wall = time.perf_counter() - t0
            found, figures = workload.check(out)
            now = digest(out, workload.artifacts)
            reference_digest = reference_digest or now
            found += [f"{name} differs from the first iteration's"
                      for name in now if now[name] != reference_digest[name]]
        except Exception as exc:  # a failed operation is counted, not fatal
            found, figures, stage_s = [f"{type(exc).__name__}: {exc}"], {}, {}
        if found:
            failed += 1
            problems.extend(f"iteration {number}: {p}" for p in found)
            return
        quality.update(figures)
        if traced:
            values = layer_values(trace.spans, targets, span_counters)
            if abs(values["self_sum_s"] - wall) > 1e-6:
                problems.append(f"iteration {number}: self times sum to "
                                f"{values['self_sum_s']!r}, wall is {wall!r}")
            per_layer.append(values)
            traced_walls.append(wall)
        else:
            walls.append(wall)
            for stage, seconds in stage_s.items():
                stages.setdefault(stage, []).append(seconds)

    iteration(0, traced=False)   # warm-up: caches, first-call costs
    walls.clear()
    stages.clear()
    number = 1
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(walls) < MIN_SAMPLES
           or (args.trace and len(traced_walls) < MIN_SAMPLES)):
        iteration(number, traced=bool(args.trace and number % 2 == 0))
        number += 1
        if failed > attempted // 2:
            break

    values = {"wall_s": report.median(walls),
              "setup_s": report.median(setup_s),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    tail = report.tail_percentile(walls)
    print(f"wall_s median {values['wall_s']:.6f} s over {len(walls)} "
          f"iterations" + (f", p{tail[0]} {tail[1]:.6f} s" if tail else ""))
    print("wall_s samples " + " ".join(f"{w:.6f}" for w in walls))
    print("setup_s samples " + " ".join(f"{s:.6f}" for s in setup_s))
    for stage, seconds in sorted(stages.items()):
        print(f"{stage} median {report.median(seconds):.6f} s")
    for name, value in sorted(quality.items()):
        print(f"check.{name} {value!r}")

    if args.trace:
        for name in sorted(per_layer[0]) if per_layer else ():
            values[name] = report.median([v[name] for v in per_layer])
        for name, spec in layers["spans"].items():
            if (args.workload in spec["expect_calls"]
                    and not values.get(f"{name}.calls")):
                problems.append(f"layer {name} recorded no calls")
        values["trace.overhead_frac"] = (
            report.median(traced_walls) / values["wall_s"] - 1.0
            if values["wall_s"] else 0.0)
        values["cli.match.wall_s"] = report.median(stages.get("match_s", []))
        values["cli.register.wall_s"] = report.median(
            stages.get("register_s", []))
        for name in ("checkpoint_rmse_px", "shift_error_px",
                     "corr_within_1px_frac", "registered_mad",
                     "pullback_mad"):
            values[f"check.{name}"] = quality.get(name, 0.0)
        values["check.failed_frac"] = failed / attempted
        metrics = report.select(values, manifest["per_layer"])
    else:
        metrics = report.select(values, manifest["end_to_end"])
    for problem in problems:
        print(f"problem {problem}")
    return not problems, attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coreg" / "__init__.py").is_file():
        print(f"perfbench: no coreg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = PINNED_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import coreg
    if Path(coreg.__file__).resolve().parent != ROOT / "src" / "coreg":
        print(f"perfbench: imported coreg from {coreg.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2

    import report
    out_root = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        correct, attempted, failed, metrics = run(args, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:
            pass
    print(report.result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
