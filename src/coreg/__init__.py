"""coreg registers a radiometrically dissimilar sensed raster to a reference
raster.

It detects evenly distributed correspondences with block-gridded corner
detection, dense oriented-gradient descriptors, and frequency-domain
similarity search, removes mismatches robustly, fits polynomial, extended
projective, and rational-function transformation models, and resamples the
sensed image into registration.
"""

from .cfog import DescriptorVolume, build_cfog
from .geomodels import (ControlPoint, ControlPointArrays, DegenerateFitError,
                        FittedModel, InsufficientControlPointsError,
                        ModelSpec, all_model_specs, fit, min_cp_count,
                        model_spec_from_name)
from .config import PipelineConfig
from .keypoints import InterestPoint, detect_block_fast
from .matcher import (Correspondence, MatchStats,
                      correspondences_from_csv, correspondences_to_csv,
                      match_all, phase_correlate_3d)
from .metrics import (CheckpointScore, MisregReport, SweepResult,
                      checkpoint_rmse, misregistration, split_checkpoints,
                      sweep, sweep_to_csv, to_control_points)
from .raster import (CrsMismatchError, GeoTransform, RasterFormatError,
                     RasterGrid, load_raster, sample_bilinear, save_raster,
                     warp)
from .robustfit import (RansacDegeneracyError, RansacParams, ransac_filter,
                        select_top_k)
from .synthgen import NonInvertibleWarpError, SynthSpec, generate

__all__ = [
    'CheckpointScore',
    'ControlPoint',
    'ControlPointArrays',
    'Correspondence',
    'CrsMismatchError',
    'DegenerateFitError',
    'DescriptorVolume',
    'FittedModel',
    'GeoTransform',
    'InsufficientControlPointsError',
    'InterestPoint',
    'MatchStats',
    'MisregReport',
    'ModelSpec',
    'NonInvertibleWarpError',
    'PipelineConfig',
    'RansacDegeneracyError',
    'RansacParams',
    'RasterFormatError',
    'RasterGrid',
    'SweepResult',
    'SynthSpec',
    'all_model_specs',
    'build_cfog',
    'checkpoint_rmse',
    'correspondences_from_csv',
    'correspondences_to_csv',
    'detect_block_fast',
    'fit',
    'generate',
    'load_raster',
    'match_all',
    'min_cp_count',
    'misregistration',
    'model_spec_from_name',
    'phase_correlate_3d',
    'ransac_filter',
    'sample_bilinear',
    'save_raster',
    'select_top_k',
    'split_checkpoints',
    'sweep',
    'sweep_to_csv',
    'to_control_points',
    'warp',
]
