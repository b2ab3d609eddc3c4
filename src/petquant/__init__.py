"""PET breast-lesion quantification toolkit.

Classical lesion segmentation, segmentation-loss numerics, mask agreement
metrics, SUV/MTV/TLG biomarkers with longitudinal deltas, two-step cohort
quality control with annotation-batch export, cohort statistics/reports,
and a synthetic phantom generator with analytic ground truth.
"""

from .biomarkers import BiomarkerSet, DeltaSet, delta, extract
from .cohort import (
    CohortEntry,
    analyse_cohort,
    export_annotation_batch,
    load_manifest,
    run_cohort,
)
from .errors import (
    DegenerateInputError,
    EmptyRegionError,
    GeometryMismatchError,
    IntensityUnitError,
    LesionSpecError,
    ManifestError,
    ParameterError,
    PetQuantError,
    VolumeDataError,
    VolumeFormatError,
)
from .losses import (
    LossParams,
    bce_loss,
    combined_loss,
    combined_loss_grad,
    focal_tversky_loss,
    gradient_check,
    tversky_index,
)
from .mask import (
    BinaryMask,
    Centroid,
    Quadrant,
    boundary_voxels,
    centroid,
    fill_holes,
    largest_component,
    quadrant_of,
    regrid_nearest,
)
from .metrics import dice, hausdorff_mm, iou, overlap_counts, sensitivity
from .nifti import read_mask, read_volume, write_mask, write_volume
from .phantom import LesionSpec, ResponseModel, generate, generate_cohort
from .qc import (
    QcRecord,
    QcThreshold,
    REFERENCE_RATIO_THRESHOLD,
    ThresholdDerivation,
    check_pair,
    derive_threshold,
    fixed_threshold,
    select_extreme_outliers,
)
from .segment import (
    ContrastResult,
    postprocess,
    threshold_contrast_iterative,
    threshold_pct_suvmax,
)
from .stats import (
    BoxplotSummary,
    RegressionLine,
    TTestResult,
    boxplot_summary,
    paired_ttest,
    pearson,
    regression_line,
    student_t_two_sided_p,
)
from .volume import AcquisitionInfo, IntensityUnit, Volume3D, to_suv

__version__ = "0.1.0"

__all__ = [
    "AcquisitionInfo",
    "BinaryMask",
    "BiomarkerSet",
    "BoxplotSummary",
    "Centroid",
    "CohortEntry",
    "ContrastResult",
    "DegenerateInputError",
    "DeltaSet",
    "EmptyRegionError",
    "GeometryMismatchError",
    "IntensityUnit",
    "IntensityUnitError",
    "LesionSpec",
    "LesionSpecError",
    "LossParams",
    "ManifestError",
    "ParameterError",
    "PetQuantError",
    "QcRecord",
    "QcThreshold",
    "Quadrant",
    "REFERENCE_RATIO_THRESHOLD",
    "RegressionLine",
    "ResponseModel",
    "TTestResult",
    "ThresholdDerivation",
    "Volume3D",
    "VolumeDataError",
    "VolumeFormatError",
    "analyse_cohort",
    "bce_loss",
    "boundary_voxels",
    "boxplot_summary",
    "centroid",
    "check_pair",
    "combined_loss",
    "combined_loss_grad",
    "delta",
    "derive_threshold",
    "dice",
    "export_annotation_batch",
    "extract",
    "fill_holes",
    "fixed_threshold",
    "focal_tversky_loss",
    "generate",
    "generate_cohort",
    "gradient_check",
    "hausdorff_mm",
    "iou",
    "largest_component",
    "load_manifest",
    "overlap_counts",
    "paired_ttest",
    "pearson",
    "postprocess",
    "quadrant_of",
    "read_mask",
    "read_volume",
    "regrid_nearest",
    "regression_line",
    "run_cohort",
    "select_extreme_outliers",
    "sensitivity",
    "student_t_two_sided_p",
    "threshold_contrast_iterative",
    "threshold_pct_suvmax",
    "to_suv",
    "tversky_index",
    "write_mask",
    "write_volume",
]
