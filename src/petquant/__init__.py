"""PET breast-lesion quantification toolkit.

Classical lesion segmentation, segmentation-loss numerics, mask agreement
metrics, SUV/MTV/TLG biomarkers with longitudinal deltas, two-step cohort
quality control with annotation-batch export, cohort statistics/reports,
and a synthetic phantom generator with analytic ground truth.
"""

from types import ModuleType as _ModuleType

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

# every public name the imports above bind, submodules aside
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))
