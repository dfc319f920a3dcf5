"""Exception types shared across the package."""


class DunklKGError(Exception):
    """Base class for all library errors."""


class DomainError(DunklKGError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateError(DunklKGError):
    """Flat-space degenerate configuration (E^2 = m^2) where a scale factor vanishes."""


class GridError(DunklKGError):
    """Grid does not satisfy the structural requirements of a grid operator."""


class NormalizationError(DunklKGError):
    """Density normalization impossible (vanishing or non-finite integral)."""
