"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Dimension or layout mismatch between arrays/networks."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class CondenseError(RuntimeError):
    """Graph condensation reached an undefined or unsupported configuration."""


class NonFiniteGradientError(RuntimeError):
    """A Stein update produced a NaN/Inf gradient component."""


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, corrupt, or has an unknown format tag."""


class StaleBlockError(RuntimeError):
    """A particle block's score was asked for after its pass was dropped."""
