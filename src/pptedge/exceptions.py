"""Exception types shared across the package."""


class InvalidStateError(ValueError):
    """An operator does not satisfy the density-matrix requirements (Hermitian, unit trace, PSD)."""


class NotApplicableError(ValueError):
    """A construction's precondition fails for the given input (e.g. no kernel, no realignment violation)."""


class MatrixFileError(ValueError):
    """A matrix file is malformed or inconsistent with its declared dimensions."""
