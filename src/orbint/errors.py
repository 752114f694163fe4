"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """Malformed input data: bad Cartan matrix, non-dominant weight, broken config."""


class SingularPointError(ValueError):
    """Evaluation requested at a torus point where a Weyl-denominator factor vanishes.

    Carries the offending root (a Weight) in ``root``.
    """

    def __init__(self, message: str, root=None):
        super().__init__(message)
        self.root = root


class ConsistencyError(ArithmeticError):
    """Two independently computed routes to the same value disagree beyond
    their tolerance (the dual-path and packet/stable guards)."""


class LimitPathError(RuntimeError):
    """A near-identity limit path hit the singular locus; try another direction."""


class ReconstructionError(RuntimeError):
    """A reconstruction step could not resolve the data it was given."""
