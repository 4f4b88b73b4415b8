"""Summary statistics and the result line the benchmark prints last."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

TAIL_BEYOND = 10


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """The highest whole percentile with at least ``beyond`` samples above
    it, as (percentile, nearest-rank value); None when that percentile would
    fall below the median."""
    n = len(values)
    if n <= beyond:
        return None
    pct = (100 * (n - beyond)) // n
    if pct < 50:
        return None
    rank = math.ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


def load_manifest(path: Path) -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    BENCHMARK.json."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in manifest[kind]}
            for kind in ("end_to_end", "per_layer")}


def select(values: dict, units: dict) -> dict:
    """Exactly the metrics named in ``units``, each with its unit."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"no value measured for {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def median(values):
    return statistics.median(values) if values else 0.0
