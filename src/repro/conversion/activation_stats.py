"""Collection of per-layer pre-activation statistics from a trained DNN.

Algorithm 1 and the analytical error model both consume the empirical
distribution of each activation layer's inputs.  This module taps every
activation layer with an :class:`~repro.nn.activations.ActivationRecorder`,
drives calibration batches through the network, and
summarises each layer into a :class:`LayerActivationStats` (percentiles,
trained threshold ``mu``, observed maximum ``d_max``).

For plain-ReLU networks (the max-pre-activation conversion baseline of
Fig. 2) there is no trained ``mu``; ``mu`` is reported as ``d_max``.

The statistics depend only on the model and the calibration images, not
on ``T`` or the conversion strategy, so a sweep over either calibrates
an unchanged model once: each live model keeps its last statistics
under a digest of its module tree, parameters, the consumed batches,
the sample bound and the default dtype, and a call with the same digest
returns copies of them without running the model.  A weight changed in place (training,
LSUV, fault injection) changes the digest, so the result is always
bitwise that of a fresh calibration.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..nn import ActivationRecorder, Module, ReLU, ThresholdReLU, tap
from ..tensor import Tensor, get_default_dtype, no_grad


@dataclass
class LayerActivationStats:
    """Summary of one activation layer's pre-activation distribution.

    Attributes
    ----------
    percentiles:
        101 values: the 0th..100th percentile of the recorded samples.
    mu:
        The layer's trained clipping threshold (``d_max`` for ReLU).
    d_max:
        Maximum observed pre-activation (the outlier the paper warns
        about: >99% of mass typically lies below ``d_max / 3``).
    mean, count:
        Sample mean and number of recorded values.
    """

    percentiles: np.ndarray
    mu: float
    d_max: float
    mean: float
    count: int

    def percentile(self, q: float) -> float:
        """Interpolated percentile ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        grid = np.arange(101.0)
        return float(np.interp(q, grid, self.percentiles))

    @property
    def positive_fraction_below(self) -> float:
        """Fraction of the [0, d_max] range below mu — a skew indicator."""
        if self.d_max <= 0:
            return 1.0
        return min(1.0, self.mu / self.d_max)


def activation_layers(model: Module) -> List[Module]:
    """All activation layers of ``model`` in forward (definition) order."""
    return [m for m in model.modules() if isinstance(m, (ThresholdReLU, ReLU))]


# Each live model's last calibration: model -> (digest of its inputs, stats).
_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def collect_activation_stats(
    model: Module,
    batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    max_batches: Optional[int] = None,
    max_samples_per_layer: int = 200_000,
) -> List[LayerActivationStats]:
    """Run calibration batches and summarise every activation layer.

    Parameters
    ----------
    model:
        A trained DNN built from this library's layers.
    batches:
        Iterable of ``(images, labels)`` numpy batches (labels unused).
    max_batches:
        Stop after this many batches (None = exhaust the iterable).
    max_samples_per_layer:
        Per-layer sample bound to cap memory (a deterministic stride,
        see :class:`~repro.nn.ActivationRecorder`).

    Returns statistics in the same order as :func:`activation_layers`.
    ``mean`` and ``d_max`` are read from the samples in recording order;
    each layer's samples are then sorted once and the percentiles read
    from the sorted copy by :func:`_sorted_percentiles`, which gives
    ``np.percentile`` of the recording-order samples (percentiles depend
    on order statistics only) without its selection pass.

    The batches are always consumed (up to ``max_batches``).  If the
    model's last call saw the same module tree, parameter bytes, fed
    batches, ``max_samples_per_layer`` and default dtype, the stats are
    copies of that call's and the model does not run.  A model carrying
    a tap on any module is always calibrated afresh and not remembered.
    """
    return _calibrate(model, batches, max_batches, max_samples_per_layer)[0]


def _calibrate(
    model: Module,
    batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    max_batches: Optional[int],
    max_samples_per_layer: int,
) -> Tuple[List[LayerActivationStats], bool]:
    """:func:`collect_activation_stats`, plus whether the stats were
    reused from the model's previous call."""
    layers = activation_layers(model)
    if not layers:
        raise ValueError("model has no activation layers to calibrate")
    inputs = _fed_batches(batches, max_batches)
    # A tap may change what later layers see, so a tapped model's stats
    # are neither served nor stored.
    remember = not any(module._taps for module in model.modules())
    if remember:
        key = _calibration_key(model, inputs, max_samples_per_layer)
        entry = _MEMO.get(model)
        if entry is not None and entry[0] == key:
            return _copied(entry[1]), True
    stats = _run_calibration(model, layers, inputs, max_samples_per_layer)
    if remember:
        _MEMO[model] = (key, _copied(stats))
    return stats, False


def _fed_batches(
    batches: Iterable[Tuple[np.ndarray, np.ndarray]], max_batches: Optional[int]
) -> List[np.ndarray]:
    """The images of each consumed batch, exactly as ``Tensor`` feeds
    them to the model; one the iterable still holds is copied, since it
    may refill that buffer for its next batch."""
    inputs = []
    for index, (images, _labels) in enumerate(batches):
        if max_batches is not None and index >= max_batches:
            break
        source = np.asarray(images)
        fed = np.asarray(source, dtype=get_default_dtype())
        if np.may_share_memory(fed, source):
            fed = fed.copy(order="K")
        inputs.append(fed)
    return inputs


def _calibration_key(
    model: Module, inputs: List[np.ndarray], max_samples_per_layer: int
) -> bytes:
    """sha256 over everything a calibration's stats depend on.

    Every field is length-prefixed and every record starts with its
    kind, so two different input sets never feed the same byte stream.
    """
    digest = hashlib.sha256()

    def feed(*fields) -> None:
        for value in fields:
            data = str(value).encode()
            digest.update(len(data).to_bytes(8, "little"))
            digest.update(data)

    def feed_array(kind: str, name: str, array: np.ndarray) -> None:
        # dtype and shape fix the byte count that follows.
        feed(kind, name, array.dtype.str, array.shape)
        digest.update(np.ascontiguousarray(array))

    feed("config", np.dtype(get_default_dtype()).str, max_samples_per_layer)
    for name, module in model.named_modules():
        kind = type(module)
        feed("module", name, f"{kind.__module__}.{kind.__qualname__}", module.extra_repr())
    for name, param in model.named_parameters():
        feed_array("param", name, param.data)
    for fed in inputs:
        feed_array("batch", "", fed)
    return digest.digest()


def _copied(stats: List[LayerActivationStats]) -> List[LayerActivationStats]:
    return [replace(s, percentiles=s.percentiles.copy()) for s in stats]


def _run_calibration(
    model: Module,
    layers: List[Module],
    inputs: List[np.ndarray],
    max_samples_per_layer: int,
) -> List[LayerActivationStats]:
    """Drive ``inputs`` through ``model`` and summarise each layer."""
    recorders = [
        ActivationRecorder(max_samples=max_samples_per_layer) for _ in layers
    ]
    by_layer = {id(layer): rec for layer, rec in zip(layers, recorders)}

    def record(layer, x, _out):
        by_layer[id(layer)].record(x.data)

    was_training = model.training
    model.eval()
    try:
        with tap(layers, record), no_grad():
            for fed in inputs:
                model(Tensor(fed))
    finally:
        model.train(was_training)

    stats: List[LayerActivationStats] = []
    for layer, recorder in zip(layers, recorders):
        values = recorder.values()
        if values.size == 0:
            raise RuntimeError("calibration produced no activation samples")
        # Pairwise summation, and which of tied +-0.0 max() returns,
        # depend on sample order: read both before sorting.
        mean = float(values.mean())
        d_max = float(values.max())
        values.sort()
        percentiles = _sorted_percentiles(values)
        if isinstance(layer, ThresholdReLU):
            mu = layer.threshold
        else:
            mu = d_max
        stats.append(
            LayerActivationStats(
                percentiles=percentiles,
                mu=mu,
                d_max=d_max,
                mean=mean,
                count=values.size,
            )
        )
        recorder.clear()
    return stats


def _sorted_percentiles(values: np.ndarray) -> np.ndarray:
    """The 0th..100th percentiles of the ascending ``values``: those of
    ``np.percentile(values, np.arange(101.0))``.

    Reads the order statistics by index instead of re-partitioning the
    sorted array, with numpy's own ``linear``-method arithmetic: virtual
    index ``(n - 1) q``, lower index ``floor`` of it (``-1``, the last
    sample, from ``n - 1`` on), and its lerp, which interpolates down
    from the upper sample once the weight reaches 0.5.  Every bit agrees
    except the sign of a zero percentile among tied ``+-0.0`` samples,
    which depends on where the ties sit, as it does in ``np.percentile``.
    """
    n = values.size
    virtual = (n - 1) * (np.arange(101.0) / 100)
    prev = np.floor(virtual).astype(np.intp)
    prev[virtual >= n - 1] = -1
    nxt = np.where(prev == -1, -1, prev + 1)
    gamma = virtual - prev
    lo, hi = values[prev], values[nxt]
    diff = hi - lo
    out = np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma)
    if np.isnan(values[-1]):  # NaN sorts last; np.percentile is then all NaN
        out[:] = np.nan
    return out
