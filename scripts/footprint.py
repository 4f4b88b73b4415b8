"""Per-process footprint of the pipeline: wall time and peak resident set of
`coreg synth`, `coreg match` and `coreg register --model poly3`, each run as
its own child process on a criterion-6 scene (cubic warp, gamma 0.8, speckle
0.005) of --size pixels a side.

    python3 scripts/footprint.py [--size 2048] [--out-dir DIR]

The children import coreg from the src/ of the checkout holding this script. Each
child's peak is the ru_maxrss that os.wait4 reports, in MiB. A child that
execs inherits its parent's peak as the starting value of ru_maxrss, so this
script imports nothing beyond the standard library and stays below every
child it measures. `import` is a child that only imports coreg.cli, the
baseline every subcommand pays; the last column is each step's peak above
it, per pixel of one raster.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = "inlier_tol = 35\nsubpixel = true\nseed = 0\n"
RECIPE = """
import sys
from coreg.synthgen import SynthSpec, cubic_truth, spec_to_manifest
size = int(sys.argv[1])
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    fh.write(spec_to_manifest(SynthSpec(size=size, warp=cubic_truth(size),
                                        radiometry="gamma", gamma=0.8,
                                        speckle_var=0.005, seed=6)))
"""


def child(argv: list, log: Path):
    """Run ``python3 argv`` with coreg on the path; its stdout and stderr go
    to ``log``. Returns (wall seconds, ru_maxrss in MiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    with open(log, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        tail = log.read_text(encoding="utf-8").splitlines()[-5:]
        sys.exit("\n".join([f"{' '.join(argv[:3])} failed:"] + tail))
    return wall, usage.ru_maxrss / 1024.0


def run(size: int, out: Path) -> None:
    s, m, r = out / "synth", out / "match", out / "register"
    (out / "pipeline.cfg").write_text(CONFIG, encoding="utf-8")
    child(["-c", RECIPE, str(size), str(out / "recipe.txt")],
          out / "recipe.log")
    pair = ["--ref", str(s / "reference.bin"),
            "--sensed", str(s / "sensed.bin")]
    cli = ["-m", "coreg.cli"]
    config = ["--config", str(out / "pipeline.cfg")]
    steps = [
        ("import", ["-c", "import coreg.cli"]),
        ("synth", [*cli, "synth", "--spec", str(out / "recipe.txt"),
                   "--out-dir", str(s)]),
        ("match", [*cli, "match", *pair, *config, "--out-dir", str(m)]),
        ("register", [*cli, "register", *pair, *config,
                      "--corr", str(m / "correspondences.csv"),
                      "--model", "poly3", "--out-dir", str(r)]),
    ]
    print(f"size={size} python={sys.version.split()[0]} nproc={os.cpu_count()}")
    print(f"{'step':<10}{'wall_s':>9}{'maxrss_mb':>11}{'B/px':>8}")
    base = None
    for name, argv in steps:
        wall, peak = child(argv, out / f"{name}.log")
        base = peak if base is None else base
        per_px = (peak - base) * 2 ** 20 / size ** 2
        print(f"{name:<10}{wall:>9.2f}{peak:>11.1f}{per_px:>8.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=2048)
    parser.add_argument("--out-dir", help="keep the scene and the outputs "
                                          "here (default: a temporary "
                                          "directory, removed at the end)")
    args = parser.parse_args()
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        run(args.size, out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run(args.size, Path(tmp))


if __name__ == "__main__":
    main()
