"""Exception types shared across the package."""


class CapafError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CapafError, ValueError):
    """An argument violates an operation's precondition."""


class InvalidConfigError(CapafError, ValueError):
    """A configuration value is out of its admissible range.

    ``errors`` collects every problem found, not just the first one.
    """

    def __init__(self, message, errors=None):
        super().__init__(message)
        self.errors = list(errors) if errors is not None else [message]


class ModelInvalidError(CapafError):
    """A norm model fails strict convexity (A_F not positive definite)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NumericError(CapafError):
    """A numerical invariant missed its bound: a mesh's frames'
    G-orthonormality, or the positive definiteness of the Legendre matrix
    that G inverts; the message names the defect."""


class MeshConstructionError(CapafError):
    """Cap mesh construction failed (empty region, root finding, walk)."""


class ConvexityViolationError(CapafError):
    """A curvature-radii matrix is not positive definite."""


class GenerationError(CapafError):
    """Random body generation exhausted its backtracking budget."""
