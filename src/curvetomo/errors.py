"""Exception hierarchy shared across the package."""


class CurveTomoError(Exception):
    """Base class for all curvetomo errors."""


class DomainError(CurveTomoError):
    """A point lies outside the extended domain of a phase function."""


class BranchError(CurveTomoError):
    """arg theta that no shift by 2 pi places near the phase's t_range
    (``homogeneous_extension``)."""


class SeedProjectionError(CurveTomoError):
    """Newton projection of a seed onto a level curve failed to converge."""


class StallError(CurveTomoError):
    """Level-curve corrector diverged while marching."""


class DegenerateSymbolError(CurveTomoError):
    """Principal-symbol denominator vanished (local Bolker failure)."""


class CoverageError(CurveTomoError):
    """A cutoff atlas leaves part of the target region uncovered."""

    def __init__(self, message, uncovered=None):
        super().__init__(message)
        self.uncovered = uncovered if uncovered is not None else []


class DivergenceError(CurveTomoError):
    """Iterative solver residual increased repeatedly."""


class OutOfRangeError(CurveTomoError):
    """Requested samples fall outside the acquired data range."""


class NumericBudgetError(CurveTomoError):
    """Per-run NaN/failure budget exceeded."""


class ConfigError(CurveTomoError):
    """Malformed or inconsistent configuration."""
