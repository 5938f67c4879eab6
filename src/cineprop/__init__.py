"""cineprop: label propagation and intensity harmonization for cardiac cine MRI.

Propagates segmentation labels from the two annotated timeframes of a cine
series (end-systole and end-diastole) to the unlabeled frames via three-stage
registration with warp-norm template selection, and harmonizes intensity
distributions across scanner vendors via histogram matching.

Apart from the error classes, each name below and each submodule is imported
on first access (PEP 562), so ``import cineprop`` and ``import cineprop.cli``
load no numpy.
"""

import importlib

from .errors import (
    CinepropError,
    DegenerateInputError,
    FormatError,
    InvalidParameterError,
    SeriesPropagationError,
)

__version__ = "0.1.0"

_EXPORTS = {
    "evaluate_case": "metrics",
    "PhantomSpec": "phantom",
    "generate_cine": "phantom",
    "propagate_series": "propagation",
    "AffineTransform": "registration",
    "DisplacementField": "registration",
    "RegistrationParams": "registration",
    "CineSeries": "volume",
    "LabelMap": "volume",
    "ScalarVolume": "volume",
}
_SUBMODULES = ("cli", "io", "metrics", "phantom", "propagation", "registration", "style", "volume")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
