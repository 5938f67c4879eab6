"""Exception types shared across the package: one class per CLI exit code, and the series error."""


class CinepropError(Exception):
    """Base class for all errors raised by this package (CLI exit code 3 unless a subclass below says otherwise)."""


class InvalidParameterError(CinepropError, ValueError):
    """A parameter, flag or constructed object violates a documented precondition (exit code 2)."""


class DegenerateInputError(CinepropError):
    """Input carries no usable signal (exit code 4): a constant image fed to registration, an empty mask."""


class FormatError(CinepropError):
    """A file violates its on-disk format contract (exit code 3); a malformed manifest is one.

    ``field`` names the offending header field, manifest key or payload property.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):  # pickled from worker processes: rebuild from the constructor's arguments
        return type(self), (self.field, self.message)


class SeriesPropagationError(CinepropError):
    """One or more frames of a series failed to propagate.

    ``failures`` is a list of ``(frame_index, exception)`` pairs and
    ``results`` the propagation results of the frames that succeeded.  The
    CLI exits 4 when every failure is a ``DegenerateInputError``, else 3.
    """

    def __init__(self, failures, results=()):
        self.failures = list(failures)
        self.results = list(results)
        parts = ", ".join(f"frame {i}: {e}" for i, e in self.failures)
        super().__init__(f"propagation failed for {len(self.failures)} frame(s): {parts}")

    def __reduce__(self):
        return type(self), (self.failures, self.results)
