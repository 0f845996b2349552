"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An operation was called with invalid arguments or incompatible shapes."""


class ConfigError(ValueError):
    """A model or experiment configuration is internally inconsistent."""


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, truncated, or does not match the model."""


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss or gradient."""
