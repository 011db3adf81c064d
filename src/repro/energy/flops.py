"""FLOP accounting for DNNs and converted SNNs (paper Section VI-B).

Conventions (matching the paper and the DIET-SNN line of work):

- A DNN layer's FLOP count is its MAC count: for a convolution
  ``out_h * out_w * C_out * C_in * K * K``, for a linear layer
  ``out_features * in_features`` (all per input image).
- A converted SNN's hidden layer performs one *accumulate* per incoming
  spike per outgoing connection, so its FLOP count is the DNN MAC count
  scaled by the input layer's average spike count per neuron per
  inference (summed over the T steps).
- With direct encoding the first weight layer sees the analog image at
  every step, so its count is ``T x`` the DNN MACs — and those are MACs
  (multiplies), not ACs; the energy model prices them accordingly.

Layer shapes are obtained by tracing a dummy forward pass, so the
accounting works for any topology built from this library's layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..nn import Conv2d, Linear, Module, tap
from ..snn import (
    SpikingModule,
    SpikingNetwork,
    SpikingNeuron,
    SpikingResidualBlock,
    SpikingSequential,
    StepWrapper,
    TemporalDropout,
    apply_fused,
)
from ..tensor import Tensor, no_grad


@dataclass
class LayerFlops:
    """MAC / accumulate counts for one weight layer (per input image).

    ``macs`` is the dense DNN count; ``snn_ops`` the spike-scaled SNN
    count (populated by :func:`snn_layer_flops`); ``is_mac`` marks
    layers whose SNN operations are true MACs (the direct-encoded first
    layer) rather than ACs.
    """

    name: str
    kind: str
    macs: float
    snn_ops: float = 0.0
    is_mac: bool = False


def _layer_macs(layer: Module, input_shape: Tuple[int, ...], output_shape: Tuple[int, ...]) -> float:
    if isinstance(layer, Conv2d):
        _n, out_c, out_h, out_w = output_shape
        return float(
            out_h * out_w * out_c * layer.in_channels
            * layer.kernel_size * layer.kernel_size
        )
    if isinstance(layer, Linear):
        return float(layer.in_features * layer.out_features)
    raise TypeError(f"not a weight layer: {type(layer).__name__}")


@no_grad()
def trace_weight_layers(
    model: Module, input_shape: Tuple[int, ...]
) -> List[LayerFlops]:
    """Trace a forward pass and return MAC counts per weight layer.

    ``input_shape`` excludes the batch dimension, e.g. ``(3, 32, 32)``.
    A spiking body is traced over one time step.
    """
    records: List[LayerFlops] = []
    layers = [m for m in model.modules() if isinstance(m, (Conv2d, Linear))]
    if not layers:
        raise ValueError("model has no Conv2d/Linear layers")

    def trace(layer, x, out):
        kind = "conv" if isinstance(layer, Conv2d) else "linear"
        records.append(
            LayerFlops(
                name=f"{kind}{len(records)}",
                kind=kind,
                macs=_layer_macs(layer, x.data.shape, out.data.shape),
            )
        )

    was_training = model.training
    model.eval()
    try:
        x = Tensor(np.zeros((1,) + tuple(input_shape)))
        with tap(layers, trace):
            if isinstance(model, SpikingModule):
                apply_fused(model, x, 1)
            else:
                model(x)
    finally:
        model.train(was_training)
    return records


def dnn_total_flops(model: Module, input_shape: Tuple[int, ...]) -> float:
    """Total dense MAC count of a DNN per input image."""
    return sum(rec.macs for rec in trace_weight_layers(model, input_shape))


# ----------------------------------------------------------------------
# SNN accounting
# ----------------------------------------------------------------------
def _walk_spiking(module: Module, out: List) -> None:
    """Flatten the spiking pipeline into (kind, payload) events.

    Events: ("weight", StepWrapper), ("neuron", SpikingNeuron),
    ("block", SpikingResidualBlock).  Pool / flatten / dropout nodes are
    transparent for rate propagation and skipped.
    """
    if isinstance(module, SpikingSequential):
        for child in module:
            _walk_spiking(child, out)
    elif isinstance(module, SpikingResidualBlock):
        out.append(("block", module))
    elif isinstance(module, StepWrapper):
        if isinstance(module.inner, (Conv2d, Linear)):
            out.append(("weight", module.inner))
    elif isinstance(module, SpikingNeuron):
        out.append(("neuron", module))
    elif isinstance(module, TemporalDropout):
        pass  # transparent for rate propagation
    elif type(module).__name__ == "SpikingMaxPool":
        pass  # binary in, binary out: rate-transparent (selects inputs)
    else:
        for child in module.children():
            _walk_spiking(child, out)


def snn_layer_flops(
    snn: SpikingNetwork,
    input_shape: Tuple[int, ...],
    rates: dict,
) -> List[LayerFlops]:
    """Spike-scaled operation counts for every weight layer of an SNN.

    Parameters
    ----------
    snn:
        The converted network.
    input_shape:
        Input image shape excluding batch, e.g. ``(3, 32, 32)``.
    rates:
        Mapping ``id(neuron) -> average spikes per neuron per inference``
        (from :func:`repro.energy.spikes.measure_spiking_activity`).

    The first weight layer is direct-encoded: its count is ``T x`` its
    dense MACs and is flagged ``is_mac``.  Every other weight layer is
    scaled by its input neuron layer's spike rate.
    """
    dense = trace_weight_layers(snn.body, input_shape)
    events: List = []
    _walk_spiking(snn.body, events)

    # Expand residual blocks into their constituent events, tracking the
    # rate feeding each weight layer.
    results: List[LayerFlops] = []
    dense_iter = iter(dense)
    current_rate = float(snn.timesteps)  # direct encoding: analog input every step
    first = True

    def consume(weight_layer: Module, rate: float, is_first: bool) -> None:
        record = next(dense_iter)
        record.snn_ops = record.macs * (snn.timesteps if is_first else rate)
        record.is_mac = is_first
        results.append(record)

    for kind, payload in events:
        if kind == "weight":
            consume(payload, current_rate, first)
            first = False
        elif kind == "neuron":
            current_rate = rates.get(id(payload), 0.0)
        elif kind == "block":
            block: SpikingResidualBlock = payload
            block_input_rate = current_rate
            # conv1 consumes the block input spikes.
            consume(block.conv1.inner, block_input_rate, first)
            first = False
            rate1 = rates.get(id(block.neuron1), 0.0)
            # NOTE: trace order must match forward order: conv1, conv2,
            # then shortcut (BasicBlock.forward evaluates the branch
            # before the shortcut).
            consume(block.conv2.inner, rate1, False)
            if isinstance(block.shortcut.inner, (Conv2d, Linear)):
                consume(block.shortcut.inner, block_input_rate, False)
            current_rate = rates.get(id(block.neuron2), 0.0)
    remaining = list(dense_iter)
    if remaining:
        raise RuntimeError(
            f"{len(remaining)} traced weight layers were not matched to "
            "pipeline events"
        )
    return results


def snn_total_flops(records: List[LayerFlops]) -> float:
    """Total SNN operation count (ACs + first-layer MACs)."""
    return sum(rec.snn_ops for rec in records)
