"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedExpressionError(ValueError):
    """Requested expression id is not in the closed-form catalog."""


class ConvergenceError(RuntimeError):
    """Adaptive routine exhausted its budget before reaching tolerance.

    Carries the best available partial result in ``value`` / ``err_estimate``.
    """

    def __init__(self, message, value=None, err_estimate=None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


class NoSignChangeError(ValueError):
    """Root bracket does not straddle a sign change."""


class NotPermissibleError(RuntimeError):
    """Circulant embedding stays indefinite: model is not usable at this resolution."""


class DegenerateFitError(RuntimeError):
    """Slope fit had no usable spread in its inputs."""


class NumericOverflowError(OverflowError):
    """A model value leaves the float range: it overflows, or divides by an underflowed power."""
