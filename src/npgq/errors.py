"""Exception types shared across the package."""


class NpgqError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NpgqError):
    """Invalid or malformed input: bad arguments, data that is empty, non-finite
    or overflows the float range, and parse errors."""


class DegenerateDataError(NpgqError):
    """Data carries too little variation for the requested operation."""


class NotPositiveDefiniteError(NpgqError):
    """The measure has fewer support points than the nodes requested.

    Raised when Lanczos on data breaks down before N steps: its next
    off-diagonal entry is rounding noise.  ``pivot``, one more than the
    steps completed, is ``i`` when the data has fewer than ``i`` effective
    support points, so ``i - 1`` nodes is the usual remedy.
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class InfeasibleError(NpgqError):
    """Moment targets are unattainable on the given support."""


class UnboundedError(NpgqError):
    """Optimization problem has no finite optimum."""


class NumericalError(NpgqError):
    """An iterative routine failed to converge within its cap."""
