"""Post-conversion layer-wise SNN calibration (Li et al. [16] style).

"A free lunch from ANN" calibrates a converted SNN by walking the
layers in order and correcting each one so its *actual* average spiking
output (under the real, already-perturbed upstream inputs) matches the
source DNN's activation.  This compensates the layer-to-layer error
compounding that per-layer conversion rules ignore.

The bias-free variant implemented here fits, for each spiking layer, a
single least-squares output gain

    gamma_l = <target_l, output_l> / <output_l, output_l>

between the DNN's post-activation target and the SNN's time-averaged
output on calibration data, and absorbs it into the layer's ``beta``
(so spikes remain single-amplitude events and the AC-only property is
preserved).  Layers are processed front-to-back; each correction is in
place before the next layer is measured, exactly as in sequential
calibration schemes.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from ..nn import Module, tap
from ..snn import SpikingNetwork, SpikingNeuron
from ..tensor import Tensor, no_grad
from .activation_stats import activation_layers


def _dnn_layer_outputs(model: Module, images: np.ndarray) -> List[np.ndarray]:
    """Post-activation outputs of every activation layer, forward order."""
    outputs: List[np.ndarray] = []

    def record(_layer, _x, out):
        outputs.append(out.data.copy())

    was_training = model.training
    model.eval()
    try:
        with tap(activation_layers(model), record), no_grad():
            model(Tensor(images))
    finally:
        model.train(was_training)
    return outputs


def _snn_average_outputs(snn: SpikingNetwork, images: np.ndarray) -> List[np.ndarray]:
    """Time-averaged spiking outputs of every neuron layer."""
    neurons = snn.spiking_neurons()
    index = {id(neuron): i for i, neuron in enumerate(neurons)}
    sums: List[np.ndarray] = [None] * len(neurons)

    def accumulate(neuron, _current, out):
        i = index[id(neuron)]
        if sums[i] is None:
            sums[i] = out.data.copy()
        else:
            sums[i] += out.data

    was_training = snn.training
    snn.eval()
    try:
        with tap(neurons, accumulate), no_grad():
            snn(images)
    finally:
        snn.train(was_training)
    return [
        (total / snn.timesteps if total is not None else None) for total in sums
    ]


def calibrate_snn(
    snn: SpikingNetwork,
    model: Module,
    batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    max_batches: int = 1,
    gain_range: Tuple[float, float] = (0.25, 4.0),
) -> List[float]:
    """Sequentially fit an output gain per spiking layer.

    Parameters
    ----------
    snn:
        The converted network (modified in place: ``beta`` values).
    model:
        The source DNN providing the per-layer activation targets.
    batches:
        Calibration batches; only the first ``max_batches`` are used
        (concatenated).
    gain_range:
        Clamp for the fitted gains — a near-silent layer would
        otherwise produce an unbounded correction.

    Returns the list of applied gains (1.0 where a layer was silent).
    """
    images = []
    for index, (batch, _labels) in enumerate(batches):
        if index >= max_batches:
            break
        images.append(np.asarray(batch))
    if not images:
        raise ValueError("no calibration batches provided")
    images = np.concatenate(images, axis=0)

    targets = _dnn_layer_outputs(model, images)
    neurons = snn.spiking_neurons()
    if len(targets) != len(neurons):
        raise ValueError(
            f"DNN has {len(targets)} activation layers but the SNN has "
            f"{len(neurons)} spiking layers"
        )

    gains: List[float] = []
    low, high = gain_range
    for index, neuron in enumerate(neurons):
        outputs = _snn_average_outputs(snn, images)
        actual = outputs[index]
        target = targets[index]
        if actual is None or not np.any(actual):
            gains.append(1.0)
            continue
        denom = float((actual * actual).sum())
        gain = float((target * actual).sum()) / denom
        gain = float(np.clip(gain, low, high))
        neuron.beta *= gain
        gains.append(gain)
    return gains
