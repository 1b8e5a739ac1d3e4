"""Exception types used across the package."""

__all__ = ["KreinRelError", "DimensionMismatchError", "ValidationError",
           "PreconditionError", "GenerationError"]


class KreinRelError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(KreinRelError):
    """Operands live in incompatible spaces."""


class ValidationError(KreinRelError):
    """An input fails a structural invariant (non-finite entries,
    non-involutive symmetry, violated block conditions, ...)."""


class PreconditionError(KreinRelError):
    """A mathematical precondition of an operation does not hold for the
    given arguments (e.g. a real spectral parameter where a nonreal one
    is required, or a transform hypothesis bundle that fails)."""


class GenerationError(KreinRelError):
    """A random generator exhausted its retry budget."""
