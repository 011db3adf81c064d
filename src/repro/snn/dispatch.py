"""Activity-adaptive dense <-> sparse dispatch for weight layers.

The dense engine pays full GEMM cost regardless of how few units fire;
the sparse gather kernels (:mod:`repro.tensor.sparse`) win only below a
per-layer-shape break-even density.  :class:`SparseDispatch` measures
each weight layer's input spike density per forward and routes the call
to whichever path is cheaper, using thresholds from a calibrated
crossover artefact (``python -m repro.snn.crossover``) with
conservative per-kind defaults as fallback.

Wiring: :class:`~repro.snn.network.SpikingNetwork` installs its
dispatcher into a module-global context for the duration of an eligible
forward pass (eval mode, gradients disabled), and every
``StepWrapper`` consults :func:`active_dispatch` before running its
inner module.  Spiking neurons *offer* their freshly produced spike
tensors to the active dispatcher (array identity plus exact event count
and uniform amplitude), so the dispatcher can decide and pack without
re-scanning the dense frame; a sparse-routed frame without events skips
the packing and the gather and outputs the bias.  Training and autograd-enabled passes
never see a context and keep the dense autograd path bit-for-bit.

The dispatcher is also the one exact-accumulate counter (Section VI of
the paper).  With ``count_ops=True`` a hidden weight layer pays one
accumulate per input spike per reachable output connection
(:func:`conv_fanout_map`), and the layer that receives the encoder's
frames pays for every input element at every step, whichever path
computed the values.  :func:`repro.obs.instruments.record_energy_profile`
and :func:`repro.hw.map_network` read the counts per image through
:meth:`LayerDispatchStats.per_image`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..tensor import Tensor, conv2d_output_shape
from ..tensor.sparse import (
    pack_conv_weight,
    pack_spikes,
    sparse_conv2d_gather,
    sparse_linear_gather,
)

#: Schema tag of the persisted crossover artefact.
CROSSOVER_SCHEMA = "repro.bench.crossover/v1"

#: Conservative break-even densities when no calibration entry exists.
#: Measured on the reference host the gather kernels only beat BLAS
#: well below 10% activity; these defaults err toward the dense path.
DEFAULT_THRESHOLDS = {"conv": 0.01, "linear": 0.05}


def conv_fanout_map(
    in_shape: Tuple[int, int, int], layer: Conv2d
) -> np.ndarray:
    """Per-input-position fan-out of a convolution.

    Returns an ``(C, H, W)`` integer array: the number of *output*
    connections each input element feeds (``out_channels x`` the number
    of kernel placements covering that position).  Border positions
    have smaller fan-out — exactly the count a spike event from that
    position triggers.
    """
    _, height, width = in_shape
    k, s, p = layer.kernel_size, layer.stride, layer.padding

    def coverage(length: int) -> np.ndarray:
        """Kernel placements covering each position along one axis."""
        starts = np.arange((length + 2 * p - k) // s + 1) * s - p
        taps = (starts[:, None] + np.arange(k)).ravel()
        return np.bincount(taps[(taps >= 0) & (taps < length)], minlength=length)

    per_position = np.outer(coverage(height), coverage(width)) * layer.out_channels
    return np.broadcast_to(per_position, tuple(in_shape)).copy()


def layer_signature(layer, unit_shape) -> str:
    """Stable shape key for crossover lookup.

    Linear layers cross over on (in, out) alone; convolutions also on
    their spatial geometry, which fixes the event-to-output fan-out.
    """
    if isinstance(layer, Linear):
        return f"linear:in={layer.in_features},out={layer.out_features}"
    if isinstance(layer, Conv2d):
        h, w = unit_shape[-2], unit_shape[-1]
        return (
            f"conv:cin={layer.in_channels},cout={layer.out_channels},"
            f"k={layer.kernel_size},s={layer.stride},p={layer.padding},"
            f"h={h},w={w}"
        )
    raise TypeError(f"no sparse dispatch for {type(layer).__name__}")


class CrossoverTable:
    """Per-layer-shape break-even densities with per-kind defaults."""

    def __init__(
        self,
        entries: Optional[Dict[str, float]] = None,
        defaults: Optional[Dict[str, float]] = None,
        meta: Optional[dict] = None,
    ) -> None:
        self.entries = dict(entries or {})
        self.defaults = dict(DEFAULT_THRESHOLDS)
        if defaults:
            self.defaults.update(defaults)
        self.meta = dict(meta or {})

    def threshold(self, signature: str) -> float:
        if signature in self.entries:
            return float(self.entries[signature])
        kind = signature.split(":", 1)[0]
        return float(self.defaults.get(kind, 0.0))

    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, payload: dict) -> "CrossoverTable":
        schema = payload.get("schema")
        if schema != CROSSOVER_SCHEMA:
            raise ValueError(
                f"unsupported crossover artefact schema {schema!r} "
                f"(expected {CROSSOVER_SCHEMA!r})"
            )
        entries = {
            e["signature"]: float(e["crossover_density"])
            for e in payload.get("entries", [])
        }
        defaults = payload.get("defaults") or {}
        meta = {
            k: payload.get(k)
            for k in ("environment", "seed", "densities", "batch", "repeats")
            if k in payload
        }
        return cls(entries=entries, defaults=defaults, meta=meta)

    @classmethod
    def load(cls, path) -> "CrossoverTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_artifact(json.load(fh))


@dataclass
class LayerDispatchStats:
    """Per-layer dispatch telemetry (exact event accounting included).

    ``events`` are input events: the nonzero inputs of a hidden layer,
    every input element of the layer that receives the encoder's
    frames.  ``accumulates`` (kept only with ``count_ops``) are the
    synaptic operations those events trigger.  Both are summed over the
    calls the simulator made; :meth:`per_image` turns either into a
    per-inference figure.
    """

    signature: str
    kind: str
    threshold: float
    dense_runs: int = 0
    sparse_runs: int = 0
    events: float = 0.0
    accumulates: float = 0.0
    #: Summed input batch sizes over all calls.  Distinguishes a layer
    #: the fused engine ran once on the (T*N)-folded batch from one the
    #: direct-encoding prefix ran once on N analog frames — both have
    #: ``calls == 1`` but the hardware pays T presentations either way,
    #: so :meth:`per_image` rescales by ``timesteps / batch_sum``.
    batch_sum: float = 0.0
    last_density: float = 0.0
    density_sum: float = 0.0
    unit_shape: tuple = ()

    @property
    def calls(self) -> int:
        return self.dense_runs + self.sparse_runs

    @property
    def mean_density(self) -> float:
        return self.density_sum / self.calls if self.calls else 0.0

    @property
    def sparse_fraction(self) -> float:
        return self.sparse_runs / self.calls if self.calls else 0.0

    def per_image(self, count: float, timesteps: int) -> float:
        """``count`` (``events`` or ``accumulates``) per inference.

        The hardware pays ``timesteps`` presentations per image, and the
        layer saw ``batch_sum`` frames in total, however the engine
        folded them.
        """
        return count * timesteps / self.batch_sum

    def as_dict(self) -> dict:
        return {
            "signature": self.signature,
            "kind": self.kind,
            "threshold": self.threshold,
            "dense_runs": self.dense_runs,
            "sparse_runs": self.sparse_runs,
            "events": self.events,
            "accumulates": self.accumulates,
            "last_density": self.last_density,
            "mean_density": self.mean_density,
            "sparse_fraction": self.sparse_fraction,
        }


class _PackedLayer:
    """Cached kernel-ready weights for one layer (float and/or int8)."""

    __slots__ = ("packed", "qdata", "qscale", "fanout", "fanout_sum")

    def __init__(self) -> None:
        self.packed = None
        self.qdata = None
        self.qscale = None
        self.fanout: Dict[tuple, np.ndarray] = {}
        self.fanout_sum: Dict[tuple, float] = {}


class SparseDispatch:
    """Routes eligible weight layers between dense GEMM and sparse gather.

    Parameters
    ----------
    crossover:
        ``None`` (defaults only), a path to a crossover artefact, or a
        :class:`CrossoverTable`.
    int8:
        Quantize weights to int8 per layer (symmetric, scale outside the
        crossbar) and accumulate sparse gathers in int32.
    count_ops:
        Keep exact accumulate counts on *every* forward — also on dense
        runs, where the event-driven op count is what the hardware would
        pay regardless of which simulator path computed the values.
        Off by default: counting costs a few vectorised passes per layer
        per step, so it is opt-in for energy-profiling and mapping runs
        (:func:`repro.obs.instruments.record_energy_profile`,
        :func:`repro.hw.map_network`).
    """

    def __init__(
        self,
        crossover=None,
        int8: bool = False,
        count_ops: bool = False,
    ) -> None:
        if crossover is None:
            crossover = CrossoverTable()
        elif not isinstance(crossover, CrossoverTable):
            crossover = CrossoverTable.load(crossover)
        self.table = crossover
        self.int8 = bool(int8)
        self.count_ops = bool(count_ops)
        self.stats: Dict[int, LayerDispatchStats] = {}
        self._order: List[int] = []
        self._packed: Dict[int, _PackedLayer] = {}
        # Latest spike tensor offered by a neuron: (id, ref, nnz, amp).
        self._offer = None
        # id of the weight layer that receives the encoder's frames:
        # _PENDING until the first weight layer of a network forward
        # claims it, None outside network forwards.
        self._input_layer = None

    # ------------------------------------------------------------------
    # Neuron-side spike emission
    # ------------------------------------------------------------------
    def offer_spikes(self, data, nnz=None, amplitude=None) -> None:
        """Register a freshly emitted spike tensor's metadata.

        Keyed by array identity: the very next weight layer that
        receives this exact array can reuse the event count and uniform
        amplitude without re-scanning it.  Holding the reference keeps
        the id stable until the next offer replaces it.
        """
        self._offer = (id(data), data, nnz, amplitude)

    def _claim(self, data):
        offer = self._offer
        if offer is not None and offer[0] == id(data) and offer[1] is data:
            return offer[2], offer[3]
        return None

    # ------------------------------------------------------------------
    # Weight / fanout caches
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop packed weights (call after in-place weight mutation)."""
        self._packed.clear()

    def reset_stats(self) -> None:
        for key in self._order:
            st = self.stats[key]
            st.dense_runs = st.sparse_runs = 0
            st.events = st.accumulates = st.batch_sum = 0.0
            st.last_density = st.density_sum = 0.0

    def layer_stats(self) -> List[LayerDispatchStats]:
        """Stats in first-use (execution) order."""
        return [self.stats[key] for key in self._order]

    def _packed_for(self, layer) -> _PackedLayer:
        key = id(layer)
        pl = self._packed.get(key)
        if pl is None:
            pl = _PackedLayer()
            weight = layer.weight.data
            if self.int8:
                from ..hw.quantization import quantize_int8

                qw = quantize_int8(weight)
                if isinstance(layer, Conv2d):
                    pl.qdata = pack_conv_weight(qw.q)
                else:
                    pl.qdata = np.ascontiguousarray(qw.q)
                pl.qscale = qw.scale
            if isinstance(layer, Conv2d):
                pl.packed = pack_conv_weight(weight)
            self._packed[key] = pl
        return pl

    def _fanout_for(self, pl: _PackedLayer, layer: Conv2d, unit_shape):
        key = tuple(unit_shape)
        fanout = pl.fanout.get(key)
        if fanout is None:
            fanout = conv_fanout_map(key, layer).reshape(-1)
            pl.fanout[key] = fanout
            pl.fanout_sum[key] = float(fanout.sum())
        return fanout, pl.fanout_sum[key]

    # ------------------------------------------------------------------
    def _stats_for(self, layer, kind, unit_shape) -> LayerDispatchStats:
        key = id(layer)
        st = self.stats.get(key)
        if st is None or st.unit_shape != tuple(unit_shape):
            signature = layer_signature(layer, unit_shape)
            st = LayerDispatchStats(
                signature=signature,
                kind=kind,
                threshold=self.table.threshold(signature),
                unit_shape=tuple(unit_shape),
            )
            if key not in self.stats:
                self._order.append(key)
            self.stats[key] = st
        return st

    def maybe_run(self, layer, x):
        """Sparse-path the layer if profitable; ``None`` keeps it dense.

        Either way the forward is recorded (density, path, exact
        accumulates) in this layer's :class:`LayerDispatchStats`.
        """
        if isinstance(layer, Linear):
            kind = "linear"
        elif isinstance(layer, Conv2d):
            kind = "conv"
        else:
            return None
        data = x.data
        if kind == "conv" and data.ndim != 4:
            return None
        if self._input_layer is _PENDING:
            self._input_layer = id(layer)
        st = self._stats_for(layer, kind, data.shape[1:])
        claimed = self._claim(data)
        if claimed is not None:
            nnz, amplitude = claimed
        else:
            nnz = amplitude = None
        counts = None  # per-unit event counts, shared by nnz + op count
        if nnz is None:
            if self.count_ops and kind == "conv":
                counts = np.count_nonzero(
                    data.reshape(data.shape[0], -1), axis=0
                )
                nnz = int(counts.sum())
            else:
                nnz = int(np.count_nonzero(data))
        density = nnz / data.size if data.size else 0.0
        st.last_density = density
        st.density_sum += density
        # The encoder's frames reach the hardware as analog input: every
        # element is an event at every step, whatever its value.
        events = data.size if id(layer) == self._input_layer else nnz
        st.events += events
        st.batch_sum += data.shape[0]
        sparse = density <= st.threshold
        pl = self._packed_for(layer) if (sparse or self.count_ops) else None
        if self.count_ops:
            st.accumulates += self._exact_accumulates(
                layer, kind, data, events, amplitude, counts, pl
            )
        if not sparse:
            st.dense_runs += 1
            return None
        st.sparse_runs += 1
        bias = layer.bias.data if layer.bias is not None else None
        if nnz == 0:
            # A silent frame reaches no synapse: the output is the bias.
            shape = (data.shape[0], layer.weight.data.shape[0])
            if kind == "conv":
                shape += conv2d_output_shape(
                    *data.shape[2:], layer.kernel_size, layer.stride, layer.padding
                )
            out = np.zeros(shape, dtype=layer.weight.data.dtype)
            if bias is not None:
                out += bias.reshape(-1, *(1,) * (out.ndim - 2))
            return Tensor(out)
        sp = pack_spikes(data, amplitude=amplitude)
        if kind == "linear":
            out = sparse_linear_gather(
                sp,
                weight=layer.weight.data,
                bias=bias,
                qweight=pl.qdata,
                qscale=pl.qscale,
            )
        else:
            out = sparse_conv2d_gather(
                sp,
                weight=layer.weight.data,
                stride=layer.stride,
                padding=layer.padding,
                bias=bias,
                packed=pl.packed,
                qpacked=pl.qdata,
                qscale=pl.qscale,
            )
        return Tensor(out)

    def _exact_accumulates(self, layer, kind, data, nnz, amplitude, counts, pl):
        """Event-driven op count for this forward (path-independent).

        Conv counts use a column-count dot: ``sum_e fanout[col(e)]`` ==
        (per-unit event counts) . fanout — exactly the event-extraction
        result, but fully vectorised so the dense path stays cheap.
        """
        if kind == "linear":
            return float(nnz) * layer.out_features
        fanout, fanout_sum = self._fanout_for(pl, layer, data.shape[1:])
        if nnz == data.size:
            # Every unit is an event — no scan needed.
            return fanout_sum * data.shape[0]
        if nnz == 0:
            return 0.0
        if counts is None:
            flat = data.reshape(data.shape[0], -1)
            if amplitude:
                # Claimed uniform-amplitude spike frame: the column sum
                # over {0, amp} values IS amp * per-unit event counts.
                # The true count is integral — rint removes the division
                # round-off so counts stay exact.
                return float(
                    np.rint(flat.sum(axis=0).dot(fanout) / amplitude)
                )
            counts = np.count_nonzero(flat, axis=0)
        return float(counts.dot(fanout))


# ----------------------------------------------------------------------
# Module-global dispatch context
# ----------------------------------------------------------------------
#: The active dispatcher, installed by SpikingNetwork.forward for the
#: duration of an eligible inference pass.  A plain module global (same
#: pattern as the layer probe): neurons and StepWrappers read it on
#: every call, and ``None`` keeps them on the dense fast path.
_ACTIVE_DISPATCH: Optional[SparseDispatch] = None

#: Marks a dispatcher whose next weight layer receives the encoder's
#: frames (see :func:`dispatch_context`).
_PENDING = object()


def active_dispatch() -> Optional[SparseDispatch]:
    return _ACTIVE_DISPATCH


@contextmanager
def dispatch_context(dispatch: Optional[SparseDispatch]):
    """Install ``dispatch`` as the active dispatcher for one network
    forward within the block; the first weight layer it then sees is
    the one that receives the encoder's frames."""
    global _ACTIVE_DISPATCH
    previous = _ACTIVE_DISPATCH
    _ACTIVE_DISPATCH = dispatch
    if dispatch is not None:
        dispatch._input_layer = _PENDING
    try:
        yield dispatch
    finally:
        _ACTIVE_DISPATCH = previous
