"""Exception types shared across the package."""


class QCircleError(Exception):
    """Base class for all library-specific errors."""


class NonConvergent(QCircleError):
    """(a; q)_inf needs more than qpochhammer_inf's cap of 1,000,000
    factors to meet its fixed truncation tolerance."""


class PoleInDenominator(QCircleError):
    """A term recurrence divided by (numerically) zero."""


class UnbalancedParameters(QCircleError):
    """Parameters fail the balance condition required by a transformation."""


class DegenerateParameters(QCircleError):
    """Parameter products hit a zero of a denominator q-shifted factorial."""


class WeightUnderflow(QCircleError):
    """A weight function evaluated below the underflow floor; dividing by it
    would produce garbage rather than an identity residual."""


class EigenpairInvalid(QCircleError):
    """A claimed eigenpair failed certification, or two eigenvalues are too
    close to test orthogonality."""
