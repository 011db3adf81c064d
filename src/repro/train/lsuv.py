"""Data-driven layer-sequential weight rescaling (LSUV-style).

The paper trains deep BN-free VGG nets; without BatchNorm, deep plain
stacks of clipped activations are notoriously hard to start (the signal
variance collapses or explodes with depth).  LSUV (Mishkin & Matas
2016) fixes this by rescaling each weight layer so its *output* has
unit variance on real data — a per-layer multiplicative factor that,
like BN folding, is absorbed into the weights and therefore fully
compatible with the bias-free SNN conversion.

``lsuv_init`` rescales the layers in execution order inside one tapped
forward of a calibration batch: a few rounds per layer, until its output
std is within tolerance, each round re-running only that layer.
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

    One forward of ``images`` under a replacing tap rescales the layers
    in execution order, each once everything upstream of it is final.

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
        Rescale rounds per layer; each re-runs only that layer.

    Returns the final output std of each weight layer (``modules()``
    order); raises ``ValueError`` if the forward never calls one.
    """
    weight_layers = {name: m for name, m in model.named_modules()
                     if isinstance(m, (Conv2d, Linear))}
    if not weight_layers:
        raise ValueError("model has no weight layers")
    final_stds: dict = {}

    def rescale(layer, x, out):
        if id(layer) in final_stds:
            return None  # a reused layer is rescaled at its first call only
        std = float(out.data.std())
        for _ in range(max_iterations):
            if std < min_std or abs(std - target_std) <= tolerance * target_std:
                break  # dead (weights left untouched) or converged
            layer.weight.data /= std / target_std
            out = layer.forward(x)
            std = float(out.data.std())
        final_stds[id(layer)] = std
        return out

    was_training = model.training
    model.eval()
    try:
        with tap(weight_layers.values(), rescale):
            model(Tensor(np.asarray(images)))
    finally:
        model.train(was_training)
    unreached = [name for name, m in weight_layers.items() if id(m) not in final_stds]
    if unreached:
        raise ValueError(f"forward never called weight layers: {', '.join(unreached)}")
    return [final_stds[id(m)] for m in weight_layers.values()]
