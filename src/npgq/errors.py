"""Exception types shared across the package."""


class NpgqError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NpgqError):
    """Invalid or malformed input: bad arguments, data that is empty, non-finite
    or overflows the float range, and parse errors."""


class DegenerateDataError(NpgqError):
    """The data supports too few nodes: fewer than requested, or just one.

    ``support`` is the most nodes the data supports, as the message says:
    1 for zero variance, the count of distinct values for N past the data
    size, and k for a Lanczos breakdown at step k.
    """

    def __init__(self, message: str, support: int):
        super().__init__(message)
        self.support = support

    def __reduce__(self):  # so the error crosses a worker boundary whole
        return type(self), (*self.args, self.support)


class InfeasibleError(NpgqError):
    """Moment targets are unattainable on the given support."""


class UnboundedError(NpgqError):
    """Optimization problem has no finite optimum."""


class NumericalError(NpgqError):
    """A numerical routine failed: an iteration hit its cap or its line
    search stalled, a rule's weight underflows to 0, LAPACK reported a
    failure, or a first-order condition overflows at the optimum."""
