"""Exception types shared across the package."""


class CinepropError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(CinepropError, ValueError):
    """A parameter or constructed object violates a documented precondition."""


class DegenerateInputError(CinepropError):
    """Input carries no usable signal (e.g. a constant image fed to registration)."""


class FormatError(CinepropError):
    """A file violates its on-disk format contract.

    ``field`` names the offending header field or payload property.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):  # pickled from worker processes: rebuild from the constructor's arguments
        return type(self), (self.field, self.message)


class ManifestError(FormatError):
    """A cine manifest is malformed or references missing files."""


class InvalidTargetError(CinepropError, ValueError):
    """Propagation was requested for a frame that already has a manual label."""


class EmptyMaskError(CinepropError):
    """A metric that requires non-empty masks was given an empty one."""


class MissingVendorError(CinepropError):
    """A vendor tag was requested that is absent from the dataset."""


class SeriesPropagationError(CinepropError):
    """One or more frames of a series failed to propagate.

    ``failures`` is a list of ``(frame_index, exception)`` pairs.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        parts = ", ".join(f"frame {i}: {e}" for i, e in self.failures)
        super().__init__(f"propagation failed for {len(self.failures)} frame(s): {parts}")

    def __reduce__(self):
        return type(self), (self.failures,)
