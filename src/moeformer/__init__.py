"""Sparsely-gated mixture-of-experts Conformer encoders.

Top-2 expert routing with a load-balancing auxiliary loss, streaming
causal/non-causal Conformer stacks, closed-form parameter and FLOP
accounting, and a synthetic multi-language training harness.
"""

from .errors import CheckpointError, ConfigError, ParameterError, TrainingDiverged
from .tensor import Tensor, count_macs

__all__ = [
    "CheckpointError",
    "ConfigError",
    "ParameterError",
    "TrainingDiverged",
    "Tensor",
    "count_macs",
]
