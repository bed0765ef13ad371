"""Exception hierarchy shared across the package."""


class ChangePlaneError(Exception):
    """Base class for all errors raised by this package."""


class DataError(ChangePlaneError):
    """Malformed input data: missing columns, unparsable cells, too few rows."""


class ValidationError(ChangePlaneError):
    """Dataset violates a family-specific response constraint."""


class ParameterError(ChangePlaneError):
    """Invalid weight / model / grid parameters."""


class SingularDesignError(ChangePlaneError):
    """Design matrix is rank-deficient or an information matrix is singular."""


class DegenerateVectorError(DataError):
    """A grouping row has zero norm under the weight covariance."""


class NumericalError(ChangePlaneError):
    """A computation failed numerically (non-convergence past tolerance, etc.)."""
