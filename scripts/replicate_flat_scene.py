"""Build a ground-truthed scene with a smooth cubic misregistration field and
push it through the full pipeline: match, measure, fit order-3, warp into
registration. Prints how close the measured statistics land to the planted
truth.

Usage:
    python3 scripts/replicate_flat_scene.py --out-dir /tmp/flat [--size 2048]
"""

import argparse
import time
from pathlib import Path

import numpy as np

from coreg.cli import main as coreg_main
from coreg.matcher import correspondences_from_csv
from coreg.raster import save_raster
from coreg.synthgen import SynthSpec, cubic_truth, generate


def truth_mean_ds(truth, xs, ys) -> float:
    tx, ty = truth.apply(xs, ys)
    return float(np.mean(np.hypot(tx - xs, ty - ys)))


def run(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    truth = cubic_truth(args.size)
    print(f"generating {args.size}x{args.size} scene "
          f"(gamma {args.gamma}, speckle {args.speckle_var}) ...")
    ref, sen, _, _ = generate(SynthSpec(
        size=args.size, warp=truth, radiometry="gamma", gamma=args.gamma,
        speckle_var=args.speckle_var, seed=args.seed))
    save_raster(ref, out / "ref.bin")
    save_raster(sen, out / "sen.bin")
    (out / "truth.model").write_text(truth.to_text())

    cfg = out / "pipeline.cfg"
    cfg.write_text("inlier_tol = 35\nsubpixel = true\nseed = 0\n")

    t0 = time.perf_counter()
    rc = coreg_main(["match", "--ref", str(out / "ref.bin"),
                     "--sensed", str(out / "sen.bin"), "--config", str(cfg),
                     "--out-dir", str(out / "run")])
    if rc:
        return rc
    rc = coreg_main(["register", "--ref", str(out / "ref.bin"),
                     "--sensed", str(out / "sen.bin"),
                     "--corr", str(out / "run" / "correspondences.csv"),
                     "--model", "poly3", "--config", str(cfg),
                     "--out-dir", str(out / "reg")])
    if rc:
        return rc
    wall = time.perf_counter() - t0

    rc = coreg_main(["measure",
                     "--corr", str(out / "run" / "correspondences.csv"),
                     "--out-dir", str(out / "run")])
    if rc:
        return rc

    report = {}
    for line in (out / "reg" / "register_report.txt").read_text().splitlines():
        key, value = line.split("=", 1)
        report.setdefault(key, value)
    corrs = correspondences_from_csv(
        (out / "run" / "correspondences.csv").read_text())
    xs = np.array([c.ref_x for c in corrs])
    ys = np.array([c.ref_y for c in corrs])
    planted = truth_mean_ds(truth, xs, ys)
    measured = float(report["input_mean_ds_px"])

    print()
    print(f"correspondences used      {len(corrs)}")
    print(f"planted mean shift        {planted:.3f} px")
    print(f"measured mean shift       {measured:.3f} px "
          f"(difference {abs(measured - planted):.3f})")
    print(f"poly3 checkpoint rmse     {float(report['checkpoint_rmse_px']):.3f} px "
          f"({report['checkpoints']} held-out points)")
    print(f"match+register wall time  {wall:.1f} s")
    print(f"registered raster         {out / 'reg' / 'registered.bin'}")
    return 0


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--size", type=int, default=2048)
    ap.add_argument("--seed", type=int, default=6)
    ap.add_argument("--gamma", type=float, default=0.8)
    ap.add_argument("--speckle-var", type=float, default=0.005)
    return ap.parse_args()


if __name__ == "__main__":
    raise SystemExit(run(parse_args()))
