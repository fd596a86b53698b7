"""Exception types shared across the package, and the input checks.

``finite`` checks one number a config or a library caller gives,
``finite_array`` an array of them, entry by entry through ``finite``, and
``integer`` a count or an index.
"""

import math

import numpy as np


class NashseekError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(NashseekError):
    """A configuration value or combination of values is unusable."""


_REAL = (float, int, np.floating, np.integer)  # bool is an int and is rejected apart


def finite(value, key: str, positive: bool = False) -> float:
    """value as a float; ConfigInvalid naming key: "must be a number" for a
    bool or a non-number, "must be finite" for NaN, +-inf, or (when
    positive) a value <= 0."""
    if not isinstance(value, _REAL) or isinstance(value, bool):
        raise ConfigInvalid(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if math.isfinite(number) and (number > 0 or not positive):
        return number
    raise ConfigInvalid(f"{key} must be finite{' and positive' if positive else ''}, got {value!r}")


def finite_array(values, key: str) -> np.ndarray:
    """values as a float array; ConfigInvalid naming key ("must be finite
    numbers") unless it is a regular nest whose every entry passes ``finite``."""
    try:
        entries = np.asarray(values, dtype=object)
        return np.array([finite(v, key) for v in entries.flat], dtype=float).reshape(entries.shape)
    except (ConfigInvalid, ValueError):  # ValueError: a nest numpy cannot make an array of
        raise ConfigInvalid(f"{key} must be finite numbers, got {values!r}") from None


def integer(value, key: str, least: int) -> int:
    """value as an int; ConfigInvalid naming key unless it is an int or a float without a
    fraction (no bool), at least least.  No float() of an int, which 10**400 would overflow."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and value.is_integer())):
        raise ConfigInvalid(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ConfigInvalid(f"{key} must be at least {least}, got {value!r}")
    return int(value)


class DimensionMismatch(ConfigInvalid):
    """An array argument has the wrong shape for the operation (a configuration fault)."""


class NotStronglyConnected(ConfigInvalid):
    """The communication digraph is not strongly connected (a configuration fault)."""


class SingularLyapunov(NashseekError):
    """The vectorized Lyapunov system is numerically singular."""


class NotHurwitz(NashseekError):
    """A matrix expected to be Hurwitz is not (Lyapunov solve failed)."""


class EmptyGains(NashseekError):
    """A companion matrix was requested for an empty gain vector."""


class NoConvergence(NashseekError):
    """An iterative solver exhausted its iteration budget."""


class Diverged(NashseekError):
    """A simulated state became non-finite or exceeded the magnitude guard.

    A Diverged from ``sim.run`` or ``sim.run_lanes`` carries the ``sim.Stepping``
    of the batch its lane stepped in as ``stepping``.
    """

    stepping = None


class SingularSystem(NashseekError):
    """A linear system that should be regular is singular."""


class EmptyWindow(NashseekError):
    """A time window selects no trajectory samples."""


class NonPositiveError(NashseekError):
    """Log-domain fitting requested on non-positive error samples."""
