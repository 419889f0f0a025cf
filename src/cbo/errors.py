"""Exception taxonomy shared by all modules.

Three umbrella classes map onto the CLI exit codes: ConfigError -> 2,
SimulationError -> 3, TheoryPreconditionError -> 4.
"""


class CboError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CboError):
    """Invalid configuration, dimensions, or operation inputs."""


class InvalidDimensionError(ConfigError):
    """Dimension is zero, negative, or inconsistent with a companion vector."""


class InvalidInputError(ConfigError):
    """An operation precondition on its data arguments is violated."""


class SimulationError(CboError):
    """A particle run left the numerically valid domain; ``step`` and
    ``particle`` locate the failure where known, ``seed`` names the failing
    replication of a batched run, ``partial_series`` holds the metrics
    recorded before it."""

    def __init__(self, message, step=None, particle=None, partial_series=None, seed=None):
        super().__init__(message)
        self.step = step
        self.particle = particle
        self.seed = seed
        self.partial_series = partial_series


class NumericDomainError(SimulationError):
    """Objective evaluated to a non-finite value in state ``step``."""


class DivergenceError(SimulationError):
    """The step from state ``step`` produced non-finite coordinates."""


class WorkerLostError(SimulationError):
    """A worker process died; ``lost`` holds the items of a map from the
    first result that did not come back."""

    def __init__(self, message, lost=()):
        super().__init__(message)
        self.lost = lost


class TheoryPreconditionError(CboError):
    """A closed-form quantity is undefined for the supplied parameters."""


class NonContractiveError(TheoryPreconditionError):
    """Requires 2*lambda > d*sigma^2."""


class InvalidAccuracyError(TheoryPreconditionError):
    """Target accuracy must satisfy 0 < eps <= v0."""


class InfiniteRateError(TheoryPreconditionError):
    """sigma = 0 makes the mass-decay rate infinite."""


class EmptyBallError(TheoryPreconditionError):
    """No probability mass inside the ball; the bound is vacuous."""


class UnsupportedInitializationError(TheoryPreconditionError):
    """Initial measure puts zero mass where the estimate needs it."""
