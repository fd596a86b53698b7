"""Exception types shared across the package."""


class NashseekError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(NashseekError):
    """A configuration value or combination of values is unusable."""


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
    """A simulated state became non-finite or exceeded the magnitude guard."""


class SingularSystem(NashseekError):
    """A linear system that should be regular is singular."""


class EmptyWindow(NashseekError):
    """A time window selects no trajectory samples."""


class NonPositiveError(NashseekError):
    """Log-domain fitting requested on non-positive error samples."""
