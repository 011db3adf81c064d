"""Spike-activity regularisation for SGL fine-tuning.

The paper's energy model (Section VI) prices every hidden-layer spike
as one accumulate, so the spike count *is* the energy knob.  Related
work the paper compares against (Spike-Thrift / attention-guided
compression, Kundu et al.) explicitly penalises spiking activity during
training.  :class:`SpikeRateRegularizer` implements the simple version:
an L1 penalty on the expected spike rate of every hidden layer, added
to the task loss during SGL, trading accuracy against energy.

The penalty is differentiable through the same surrogate gradient as
the task loss (spike tensors already carry the boxcar window), so
thresholds learn to rise exactly where spikes are cheap to remove.
"""

from __future__ import annotations

from typing import List, Optional

from ..nn import tap
from ..snn import SpikingNetwork, SpikingNeuron
from ..tensor import GradMode, Tensor


class SpikeRateRegularizer:
    """Accumulates an L1 spike-rate penalty over one forward window.

    Attach with :meth:`attach` before the forward pass; a tap on each
    neuron collects its spike output on grad-enabled training forwards
    only, so evaluation passes leave nothing behind.  ``penalty``
    returns ``weight * mean(sum_t spikes / (beta V^th))`` — the mean
    *rate* so the scale is architecture-independent.  Call
    :meth:`detach` to remove the tap.
    """

    def __init__(self, weight: float = 1e-3) -> None:
        if weight < 0:
            raise ValueError("weight must be non-negative")
        self.weight = weight
        self._collected: List[Tensor] = []
        self._tap: Optional[tap] = None

    # ------------------------------------------------------------------
    def attach(self, snn: SpikingNetwork) -> "SpikeRateRegularizer":
        if self._tap is not None:
            raise RuntimeError("regularizer already attached")
        self._tap = tap(snn.spiking_neurons(), self._record)
        self._tap.__enter__()
        return self

    def _record(self, neuron: SpikingNeuron, _current, spikes: Tensor) -> None:
        if neuron.training and GradMode.is_enabled():
            # Normalise to unit-amplitude rate so the penalty is
            # comparable across layers with different beta V^th.
            amplitude = neuron.beta * neuron.threshold
            self._collected.append(spikes * (1.0 / max(amplitude, 1e-12)))

    def detach(self) -> None:
        if self._tap is not None:
            self._tap.__exit__(None, None, None)
            self._tap = None
        self._collected = []

    def __enter__(self) -> "SpikeRateRegularizer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop spikes collected by previous forward windows."""
        self._collected = []

    def penalty(self) -> Optional[Tensor]:
        """The accumulated penalty term (None if nothing recorded)."""
        if not self._collected:
            return None
        total = None
        count = 0
        for spikes in self._collected:
            term = spikes.mean()
            total = term if total is None else total + term
            count += 1
        return total * (self.weight / count)
