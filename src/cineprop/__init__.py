"""cineprop: label propagation and intensity harmonization for cardiac cine MRI.

Propagates segmentation labels from the two annotated timeframes of a cine
series (end-systole and end-diastole) to the unlabeled frames via three-stage
registration with warp-norm template selection, and harmonizes intensity
distributions across scanner vendors via histogram matching.
"""

from .errors import (
    CinepropError,
    DegenerateInputError,
    EmptyMaskError,
    FormatError,
    InvalidParameterError,
    InvalidTargetError,
    ManifestError,
    MissingVendorError,
    SeriesPropagationError,
)
from .metrics import CaseReport, ClassReport, dice, evaluate_case, hausdorff
from .phantom import PhantomCine, PhantomSpec, generate_cine, generate_frame
from .propagation import (
    PropagationResult,
    Template,
    field_norm,
    propagate_frame,
    propagate_series,
)
from .registration import (
    AffineTransform,
    DisplacementField,
    RegistrationParams,
    affine_to_field,
    register_affine,
    register_deformable,
    register_rigid,
    resample_affine,
    similarity,
    warp_image,
    warp_label,
)
from .style import (
    HistogramReport,
    MatchResult,
    ReferenceHistogram,
    build_reference,
    histogram_match,
    histogram_report,
    ks_statistic,
    vendor_transfer,
)
from .volume import (
    BACKGROUND,
    LV,
    MYO,
    RV,
    CineSeries,
    LabelMap,
    ScalarVolume,
    downsample2x,
    gaussian_smooth,
    trilinear_sample,
)

__version__ = "0.1.0"
