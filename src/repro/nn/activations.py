"""Activation layers, including the paper's trainable-threshold ReLU.

:class:`ThresholdReLU` implements Eq. (1) of the paper:

    Y = clip(W X, 0, mu)

with ``mu`` a *trainable* scalar clipping threshold learned by gradient
descent alongside the weights (following TCL, Ho & Chang 2021).  After
DNN training, ``mu`` is the quantity the conversion algorithm scales by
``alpha`` to obtain the SNN firing threshold ``V^th = alpha * mu``.

A :class:`~repro.nn.module.tap` feeding the layer's pre-activation
inputs into an :class:`ActivationRecorder` is how the percentile
statistics for Algorithm 1 and the analytical error model (Eqs. 6-7)
are gathered.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..tensor import Tensor, relu, threshold_relu
from .module import Module, Parameter


class ReLU(Module):
    """Plain rectifier ``max(x, 0)``."""

    def forward(self, x: Tensor) -> Tensor:
        return relu(x)


class ActivationRecorder:
    """Accumulates flattened pre-activation samples from a layer.

    A tap on an activation layer feeds it the layer's raw
    pre-activation values on every forward pass.  ``values()`` concatenates everything recorded so far.  An
    optional ``max_samples`` reservoir bound keeps memory in check on
    large sweeps (the subsample is deterministic: a fixed stride).
    """

    def __init__(self, max_samples: Optional[int] = None) -> None:
        self.max_samples = max_samples
        self._chunks: List[np.ndarray] = []
        self._count = 0

    def record(self, values: np.ndarray) -> None:
        if self.max_samples is not None and self._count >= self.max_samples:
            return
        # C-order flattening copies a non-contiguous input (a conv output
        # is a transposed view); that copy is already private.
        flat = np.asarray(values, dtype=np.float64).reshape(-1)
        private = not np.may_share_memory(flat, values)
        if self.max_samples is not None:
            remaining = self.max_samples - self._count
            if flat.size > remaining:
                stride = max(1, flat.size // remaining)
                flat = flat[::stride][:remaining]
                # A view would keep the whole batch alive: copy the kept part.
                private = False
        self._chunks.append(flat if private else flat.copy())
        self._count += flat.size

    def values(self) -> np.ndarray:
        if not self._chunks:
            return np.empty(0)
        return np.concatenate(self._chunks)

    def clear(self) -> None:
        self._chunks = []
        self._count = 0

    def __len__(self) -> int:
        return self._count


class ThresholdReLU(Module):
    """Trainable-threshold clipping activation (paper Eq. 1).

    Parameters
    ----------
    init_threshold:
        Initial value of the trainable threshold ``mu``.
    trainable:
        If False, ``mu`` is frozen (used to emulate the *non-trainable*
        ``d_max`` threshold of Deng et al. [15] in the Fig. 2 baseline).
    """

    def __init__(self, init_threshold: float = 1.0, trainable: bool = True) -> None:
        super().__init__()
        if init_threshold <= 0:
            raise ValueError("threshold must be positive")
        self.mu = Parameter(np.array([float(init_threshold)]))
        self.trainable = trainable
        if not trainable:
            self.mu.requires_grad = False

    @property
    def threshold(self) -> float:
        """Current scalar value of ``mu``."""
        return float(self.mu.data[0])

    def set_threshold(self, value: float) -> None:
        if value <= 0:
            raise ValueError("threshold must be positive")
        self.mu.data[0] = float(value)

    def forward(self, x: Tensor) -> Tensor:
        return threshold_relu(x, self.mu)

    def extra_repr(self) -> str:
        return f"mu={self.threshold:.4f}, trainable={self.trainable}"
