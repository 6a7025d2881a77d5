"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or schema.

    Messages carry the offending field path when the input came from a file,
    e.g. ``"noise.sigma_nu: must be >= 0"``.
    """


class ConditioningError(RuntimeError):
    """Raised when a computation is numerically unreliable.

    Examples: matrix powers overflowing the magnitude guard, a singular
    effective covariance where an inverse is required, or a privacy
    certificate eta whose residual ||O_ob eta|| is too large for the rank
    cutoff.
    """
