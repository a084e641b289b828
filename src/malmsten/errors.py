"""Exception types shared across the package."""


class MalmstenError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MalmstenError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ZeroAngleError(DomainError):
    """A route that divides by sin(phi) was called at a ZERO-classified angle.

    Callers must use ``closed_form.zero_limit`` instead; the generic formulas
    lose accuracy to cancellation in sin(phi) below the zero threshold.
    """


class InternalInconsistencyError(MalmstenError):
    """Two expressions that must agree analytically disagreed numerically."""


class NonConvergenceError(MalmstenError):
    """A series or quadrature failed to reach the requested tolerance.

    Carries the best available estimate so callers can still report it.
    """

    def __init__(self, message, best_estimate, est_error):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.est_error = est_error
