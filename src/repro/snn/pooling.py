"""Spiking max pooling with rate-based gating (Rueckauer et al. 2017).

Naive per-step max pooling over binary spike trains badly overestimates
the pooled firing rate: for a 2x2 window of independent spike trains of
rate ``r`` the per-step max fires at ``1 - (1 - r)^4 ~ 4r``, not ``r``.
The converted network then sees up to 4x inflated activations after
every pooling stage and the conversion error never vanishes, however
large T is.

The standard fix — used by SNN-Toolbox and the conversion literature
this paper builds on — is a *gating* pool: each window tracks the
accumulated spike count of its inputs and, at every step, transmits
only the spikes of the input with the highest running rate.  The output
stays binary (the paper's requirement for AC-only hidden layers) and
its average converges to the maximum of the input averages, matching
the DNN's max pooling.

It is :func:`~repro.tensor.max_pool2d`'s window kernel scored by running
counts: the gradient goes to the selected window element alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor
from ..tensor.conv_ops import (
    _check_pool_args,
    pool_windows,
    route_to_winners,
    window_argmax,
)
from .network import SpikingModule


class SpikingMaxPool(SpikingModule):
    """Rate-gated max pooling over non-overlapping windows."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self._counts: Optional[np.ndarray] = None

    def reset_state(self) -> None:
        self._counts = None
        super().reset_state()

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        """Scan the rate-gating dynamics over a time-folded batch.

        The running window counts are summed step after step, starting
        from the counts the previous call left (``None`` after
        :meth:`reset_state`), so splitting the steps over several calls
        picks the same winners as one call over all of them.
        """
        total, c, h, w = x.data.shape
        if timesteps <= 0 or total % timesteps:
            raise ValueError(
                f"time-folded batch of {total} rows is not divisible by "
                f"timesteps={timesteps}"
            )
        k = self.kernel_size
        _check_pool_args(x, k, k)
        # (T, N, C, H/k, W/k, k*k) window rows, time-major.
        frames = pool_windows(x.data.reshape(timesteps, -1, c, h, w), k)
        counts = frames.copy()
        if self._counts is not None and self._counts.shape == counts.shape[1:]:
            counts[0] += self._counts
        for t in range(1, timesteps):
            counts[t] += counts[t - 1]
        out, winners = window_argmax(frames, counts)
        self._counts = counts[-1].copy()

        def bwd(g):
            g = g.reshape(timesteps, -1, *g.shape[1:])
            return (route_to_winners(g, winners, k).reshape(total, c, h, w),)

        return Tensor.from_op(
            out.reshape(total, c, h // k, w // k), (x,), bwd, "spiking_max_pool_fused"
        )

    def extra_repr(self) -> str:
        return f"kernel_size={self.kernel_size}"
