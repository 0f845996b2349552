"""Reference kernels that the end-to-end times are scaled by.

The benchmark runs on shared virtual machines whose host cores change
speed by up to 1.8 times within minutes as neighbours come and go: one set
of ten runs measured a median ``stream_long`` set-up of 10 ms, the next set
17 ms, of the same code. Every wall time moves with the host. So right
after each timed set-up or iteration the benchmark also times a fixed
kernel of its own, and reports end-to-end times scaled to a host on which
that kernel takes its reference time:

    scaled time = wall time × reference time / time of the kernel run right after it

Medians and sums are then taken over the scaled times.

The kernels never call the program, so a change to the program moves the
scaled times as much as the wall times, while a slower host slows the
kernel and the program alike. Each kernel does the kind of work it scales:
drawing and casting random parameters for set-up, small numpy operations
issued from Python for the training, evaluation and streaming iterations.
The reference times are the kernels' medians on an unloaded 2-vCPU
Xeon virtual machine, so there scaled and wall times agree.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SETUP_REFERENCE_S = 1.25e-3
ITERATION_REFERENCE_S = 1.40e-3

_ACTIVATIONS = np.random.default_rng(0).standard_normal((12, 14, 256)).astype(np.float32)


def draw_parameters() -> None:
    """Draw and cast 300k uniform weights, as building a model does."""
    np.random.default_rng(1).uniform(-1.0, 1.0, size=300_000).astype(np.float32)


def layer_ops() -> None:
    """Twenty rounds of small elementwise and reduction ops on a desk-sized
    activation (batch 12, 14 frames, width 256), as a layer's forward issues."""
    x = _ACTIVATIONS
    for _ in range(20):
        y = np.maximum(x, 0) * 0.5 + x
        x = y - y.mean(axis=-1, keepdims=True)


class Reference:
    """Times one kernel between measured operations and gives the run's scale."""

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def scaled(self, seconds: list[float]) -> list[float]:
        """Each measured time scaled by the kernel time taken right after it."""
        return [s * self.reference_s / k for s, k in zip(seconds, self.samples)]

    def scale(self) -> float:
        """Typical factor from this run's wall time to reference time."""
        return self.reference_s / statistics.median(self.samples)


def for_setup() -> Reference:
    return Reference(draw_parameters, SETUP_REFERENCE_S)


def for_iterations() -> Reference:
    return Reference(layer_ops, ITERATION_REFERENCE_S)
