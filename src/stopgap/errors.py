"""Exception types raised across the package, and the checks that raise
ConfigError for a bad setting."""

import math
import numbers


class StopgapError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(StopgapError, ValueError):
    """Array shapes are inconsistent with the bound problem."""


class DegenerateProblemError(StopgapError, ValueError):
    """Problem data is degenerate (zero operator, empty spectrum, ...)."""


class ConvergenceError(StopgapError, RuntimeError):
    """An iterative subroutine exhausted its budget before certifying."""


class ConfigError(StopgapError, ValueError):
    """Invalid experiment or solver configuration."""


def check_count(name, value, least=1):
    """Raise a ConfigError naming ``name`` unless ``value`` is an integer, not
    a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")


def check_positive(name, value):
    """Raise a ConfigError naming ``name`` unless ``value`` is a real number,
    not a bool, in (0, inf)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
