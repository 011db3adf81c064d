"""Data-driven layer-sequential weight rescaling (LSUV-style).

The paper trains deep BN-free VGG nets; without BatchNorm, deep plain
stacks of clipped activations are notoriously hard to start (the signal
variance collapses or explodes with depth).  LSUV (Mishkin & Matas
2016) fixes this by rescaling each weight layer so its *output* has
unit variance on real data — a per-layer multiplicative factor that,
like BN folding, is absorbed into the weights and therefore fully
compatible with the bias-free SNN conversion.

``lsuv_init`` walks the weight layers in forward order; for each it
runs a forward pass, measures the layer's output standard deviation on
a calibration batch and divides the weights by it (a few iterations
until the std is within tolerance).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nn import Conv2d, Linear, Module, tap
from ..tensor import Tensor, no_grad


def scale_residual_branches(model: Module, factor: float = 0.1) -> int:
    """Fixup-style damping of residual branches (BN-free ResNets).

    Multiplies the second convolution of every
    :class:`~repro.models.resnet.BasicBlock` by ``factor`` so each block
    starts close to identity.  Without BatchNorm the variance of a deep
    residual stack otherwise grows with depth and training stalls.
    Like LSUV, this is a purely multiplicative change absorbed into the
    weights, so it is fully compatible with the SNN conversion.

    Returns the number of blocks scaled (0 for non-residual models).
    """
    from ..models.resnet import BasicBlock

    scaled = 0
    for module in model.modules():
        if isinstance(module, BasicBlock):
            module.conv2.weight.data *= factor
            scaled += 1
    return scaled


@no_grad()
def lsuv_init(
    model: Module,
    images: np.ndarray,
    target_std: float = 1.0,
    tolerance: float = 0.05,
    max_iterations: int = 4,
    min_std: float = 1e-8,
) -> List[float]:
    """Rescale every Conv2d/Linear so its output std hits ``target_std``.

    Parameters
    ----------
    model:
        The freshly-initialised network (modified in place).
    images:
        A representative (normalised) input batch.
    target_std:
        Desired per-layer output standard deviation.
    tolerance:
        Relative deviation at which a layer is considered converged.
    max_iterations:
        Forward/rescale rounds per layer.

    Returns the final output std of each weight layer (forward order).
    """
    weight_layers = [
        m for m in model.modules() if isinstance(m, (Conv2d, Linear))
    ]
    if not weight_layers:
        raise ValueError("model has no weight layers")
    batch = Tensor(np.asarray(images))
    was_training = model.training
    model.eval()

    captured: dict = {}

    def capture(layer, _x, out):
        captured[id(layer)] = float(out.data.std())

    final_stds: List[float] = []
    try:
        with tap(weight_layers, capture):
            for layer in weight_layers:
                for _ in range(max_iterations):
                    captured.clear()
                    model(batch)
                    std = captured[id(layer)]
                    if std < min_std:
                        break  # dead layer; leave weights untouched
                    if abs(std - target_std) <= tolerance * target_std:
                        break
                    layer.weight.data /= std / target_std
                captured.clear()
                model(batch)
                final_stds.append(captured[id(layer)])
    finally:
        model.train(was_training)
    return final_stds
