"""cineprop: label propagation and intensity harmonization for cardiac cine MRI.

Propagates segmentation labels from the two annotated timeframes of a cine
series (end-systole and end-diastole) to the unlabeled frames via three-stage
registration with warp-norm template selection, and harmonizes intensity
distributions across scanner vendors via histogram matching.
"""

from .errors import (
    CinepropError,
    DegenerateInputError,
    FormatError,
    InvalidParameterError,
    SeriesPropagationError,
)
from .metrics import evaluate_case
from .phantom import PhantomSpec, generate_cine
from .propagation import propagate_series
from .registration import AffineTransform, DisplacementField, RegistrationParams
from .volume import CineSeries, LabelMap, ScalarVolume

__version__ = "0.1.0"
