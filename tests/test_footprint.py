"""Per-process footprint: which subcommands load the matching stage's scipy
modules, and how far generate raises the peak resident set.

Both run in a child process: this test session has imported
scipy.ndimage already (conftest), and its peak resident set is whatever the
tests before set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coreg.matcher import Correspondence, correspondences_to_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def _child(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports coreg from this
    checkout; returns the JSON value its last stdout line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = """
import json, sys
from coreg.cli import main

def loaded():
    return [m for m in ("scipy.fft", "scipy.ndimage") if m in sys.modules]

seen = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, name
    seen[name] = loaded()
print(json.dumps(seen))
"""


def test_only_match_loads_scipy_fft_and_ndimage(tmp_path):
    (tmp_path / "recipe.txt").write_text("size=256\nseed=4\n")
    # planted correspondences: a 1.5 px shift on an 8 x 8 grid
    grid = np.linspace(40.0, 216.0, 8)
    corrs = [Correspondence(x, y, x + 1.5, y, x, y, x + 1.5, y, 1.0)
             for y in grid for x in grid]
    corr = tmp_path / "corr.csv"
    corr.write_text(correspondences_to_csv(corrs))
    s = tmp_path / "s"
    pair = ["--ref", str(s / "reference.bin"),
            "--sensed", str(s / "sensed.bin")]
    steps = [
        ("synth", ["synth", "--spec", str(tmp_path / "recipe.txt"),
                   "--out-dir", str(s)]),
        ("measure", ["measure", "--corr", str(corr),
                     "--out-dir", str(tmp_path / "e")]),
        ("fit", ["fit", "--corr", str(corr), "--model", "poly2",
                 "--out-dir", str(tmp_path / "f")]),
        ("sweep", ["sweep", "--corr", str(corr), "--models", "poly1,poly2",
                   "--cp-counts", "10,15", "--out-dir", str(tmp_path / "w")]),
        ("register", ["register", *pair, "--corr", str(corr),
                      "--model", "poly1", "--out-dir", str(tmp_path / "r")]),
        ("match", ["match", *pair, "--template-size", "48",
                   "--search-size", "96", "--blocks", "8",
                   "--out-dir", str(tmp_path / "m")]),
    ]
    seen = _child(_LOADED, json.dumps(steps))
    assert seen == {"import": [], "synth": [], "measure": [], "fit": [],
                    "sweep": [], "register": [],
                    "match": ["scipy.fft", "scipy.ndimage"]}


_GENERATE_GROWTH = """
import json
from coreg.synthgen import SynthSpec, cubic_truth, generate

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith(key + ":"))

def spec(n):
    return SynthSpec(size=n, warp=cubic_truth(2048), radiometry="gamma",
                     gamma=0.8, speckle_var=0.005, seed=2)

generate(spec(64))
before = status("VmRSS")
generate(spec(1024))
print(json.dumps((status("VmHWM") - before) * 1024 / 1024 ** 2))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the resident set from /proc")
def test_generate_raises_the_peak_rss_by_at_most_24_bytes_per_pixel():
    # the peak is VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts
    # at its parent's peak. The reference, the DEM and the sensed frame are
    # 12 B/px of float32; the float64 noise frame of the DEM, built while
    # the reference is held, adds the rest (a whole-frame sensed pass took
    # ~45 B/px)
    assert _child(_GENERATE_GROWTH) <= 24.0
