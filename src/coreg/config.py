"""Pipeline configuration: one flat record covering every stage, loadable
from ``key = value`` text files with command-line overrides on top."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .geomodels import all_model_specs, model_spec_from_name
from .keypoints import BlockGridParams
from .matcher import MatchParams
from .raster import parse_records
from .robustfit import RansacParams


@dataclass(frozen=True)
class PipelineConfig:
    """Defaults mirror the reference experiment protocol: a 20x20 detection
    grid with one point per block, 100 px templates inside 200 px search
    windows, 143 selected correspondences, 48 checkpoints, and control point
    counts from 25 to 95."""

    n_blocks: int = 20
    k_per_block: int = 1
    fast_threshold: float | None = None
    template_size: int = 100
    search_size: int = 200
    subpixel: bool = False
    descriptor: str = "cfog"
    inlier_tol: float = 3.0
    top_k: int = 143
    n_checkpoints: int = 48
    cp_counts: tuple = (25, 35, 45, 55, 65, 75, 85, 95)
    models: str = "all"
    seed: int = 0
    threads: int = 1

    def block_params(self) -> BlockGridParams:
        return BlockGridParams(n_blocks=self.n_blocks,
                               k_per_block=self.k_per_block,
                               fast_threshold=self.fast_threshold,
                               border=self.template_size // 2)

    def match_params(self) -> MatchParams:
        return MatchParams(template_size=self.template_size,
                           search_size=self.search_size,
                           subpixel=self.subpixel,
                           descriptor=self.descriptor)

    def ransac_params(self) -> RansacParams:
        return RansacParams(inlier_tol=self.inlier_tol, seed=self.seed)

    def model_specs(self) -> list:
        if self.models.strip() == "all":
            return all_model_specs()
        return [model_spec_from_name(name.strip())
                for name in self.models.split(",") if name.strip()]

    def validate(self) -> "PipelineConfig":
        """Re-run the cross-field checks of the underlying stage parameters;
        the match parameters come first, as the block border derives from
        template_size."""
        self.match_params()
        self.block_params()
        self.ransac_params()
        self.model_specs()
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.n_checkpoints < 1:
            raise ValueError(f"n_checkpoints must be >= 1, got {self.n_checkpoints}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not self.cp_counts:
            raise ValueError("cp_counts must not be empty")
        return self


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_optional_float(value: str):
    return None if value.lower() in ("none", "auto", "") else float(value)


def parse_cp_counts(value: str) -> tuple:
    counts = tuple(int(t) for t in value.split(",") if t.strip())
    if not counts:
        raise ValueError(f"no control point counts in {value!r}")
    return counts


# each field's parser, by the field's annotation
_TYPE_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str,
                 "float | None": _parse_optional_float,
                 "tuple": parse_cp_counts}
_FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type]
                  for f in fields(PipelineConfig)}


def load_config(path) -> PipelineConfig:
    """Read a flat ``key = value`` configuration file; unknown keys are
    errors so typos do not silently fall back to defaults. Every error
    message starts with the path."""
    try:
        overrides = parse_records(Path(path).read_text(encoding="utf-8"),
                                  _FIELD_PARSERS)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return replace(PipelineConfig(), **overrides).validate()
