"""Weight quantization for neuromorphic deployment.

The paper's energy constants assume 32-bit arithmetic, but neuromorphic
crossbars store low-precision weights (TrueNorth: effectively a few
bits per synapse).  This module provides symmetric per-layer uniform
quantization of a converted SNN's weights and an accuracy-vs-precision
sweep, quantifying how many bits the ultra-low-latency models actually
need.

Quantization is post-training: each weight layer's values are snapped
to ``round(w / Δ) · Δ`` with ``Δ = max|w| / (2^{bits-1} - 1)``.  Per-
layer scaling means the shared exponent lives outside the crossbar, as
on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..nn import Conv2d, Linear, Module
from ..snn import SpikingNetwork


def quantize_array(values: np.ndarray, bits: int) -> np.ndarray:
    """Symmetric uniform quantization to ``bits`` (>= 2) bits.

    The dequantized output keeps the input's floating dtype (the
    float32 fast path must not silently upcast snapped weights to
    float64 — ``repro.tensor`` rejects mixed-precision graphs).
    """
    if bits < 2:
        raise ValueError("need at least 2 bits (sign + one magnitude)")
    levels = 2 ** (bits - 1) - 1
    max_abs = np.abs(values).max()
    delta = max_abs / levels
    if delta == 0:
        # All zero, or so subnormal that the step underflows: no grid
        # finer than the float spacing exists, so the values stand.
        return values.copy()
    snapped = np.clip(np.round(values / delta), -levels, levels) * delta
    return snapped.astype(values.dtype, copy=False)


@dataclass
class QuantizedWeights:
    """Integer weight storage with its shared per-layer scale.

    ``q`` holds the signed integer codes (int8 for ``bits <= 8``);
    ``dequantize()`` reproduces exactly the grid :func:`quantize_array`
    snaps to (``q * scale`` in the source dtype), so an int-accumulating
    kernel and a float kernel over pre-quantized weights agree.
    """

    q: np.ndarray
    scale: float
    bits: int
    source_dtype: np.dtype

    def dequantize(self) -> np.ndarray:
        out = self.q.astype(self.source_dtype) * self.source_dtype.type(
            self.scale
        )
        return out.astype(self.source_dtype, copy=False)


def quantize_int8(values: np.ndarray, bits: int = 8) -> QuantizedWeights:
    """Pack weights as int8 codes plus a per-layer dequantization scale.

    Same symmetric grid as :func:`quantize_array` — ``Δ = max|w| /
    (2^{bits-1} - 1)`` with the shared exponent outside the crossbar —
    but keeping the integer codes, which is what the sparse gather
    kernels accumulate before applying ``Δ`` once.
    """
    if not 2 <= bits <= 8:
        raise ValueError("int8 packing supports 2..8 bits")
    levels = 2 ** (bits - 1) - 1
    max_abs = np.abs(values).max()
    if max_abs == 0:
        return QuantizedWeights(
            q=np.zeros(values.shape, dtype=np.int8),
            scale=1.0,
            bits=bits,
            source_dtype=values.dtype,
        )
    delta = max_abs / levels
    q = np.clip(np.round(values / delta), -levels, levels).astype(np.int8)
    return QuantizedWeights(
        q=q, scale=float(delta), bits=bits, source_dtype=values.dtype
    )


def quantize_weights(model: Module, bits: int) -> Dict[str, float]:
    """Quantize every Conv2d/Linear weight in place.

    Returns the per-layer quantization SNR (dB) for reporting —
    ``10 log10(signal power / error power)``.
    """
    report: Dict[str, float] = {}
    index = 0
    for module in model.modules():
        if not isinstance(module, (Conv2d, Linear)):
            continue
        original = module.weight.data.copy()
        quantized = quantize_array(original, bits)
        module.weight.data[...] = quantized
        error_power = float(((original - quantized) ** 2).mean())
        signal_power = float((original ** 2).mean())
        snr = (
            float("inf")
            if error_power == 0
            else 10.0 * np.log10(signal_power / error_power)
        )
        report[f"{type(module).__name__.lower()}{index}"] = snr
        index += 1
    if not report:
        raise ValueError("model has no weight layers to quantize")
    return report


def precision_sweep(
    make_snn,
    evaluate,
    bit_widths: Iterable[int] = (2, 3, 4, 6, 8),
) -> List[Tuple[int, float]]:
    """Accuracy at each weight precision.

    Parameters
    ----------
    make_snn:
        Zero-argument callable returning a *fresh* converted
        :class:`SpikingNetwork` (quantization is destructive).
    evaluate:
        Callable mapping a network to an accuracy in [0, 1].
    bit_widths:
        Precisions to test.

    Returns ``[(bits, accuracy), ...]`` sorted by bits ascending.
    """
    results: List[Tuple[int, float]] = []
    for bits in sorted(set(int(b) for b in bit_widths)):
        snn = make_snn()
        quantize_weights(snn, bits)
        results.append((bits, float(evaluate(snn))))
    return results
