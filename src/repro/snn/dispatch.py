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
re-scanning the dense frame.  Training and autograd-enabled passes
never see a context and keep the dense autograd path bit-for-bit.

The dispatcher also keeps exact accumulate accounting (one accumulate
per spike event per reachable output connection — the same semantics
:mod:`repro.snn.event_driven` validates), which :func:`repro.obs.
instruments.record_energy_profile` consumes to replace rate-based
energy estimates with measured counts.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..nn.conv import Conv2d
from ..nn.linear import Linear
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
    """Per-layer dispatch telemetry (exact event accounting included)."""

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
    #: so energy accounting rescales by ``timesteps * N / batch_sum``.
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
        per step, so it is opt-in for energy-profiling runs
        (:func:`repro.obs.instruments.record_energy_profile`).
    """

    def __init__(
        self,
        crossover=None,
        int8: bool = False,
        count_ops: bool = False,
        defaults: Optional[Dict[str, float]] = None,
    ) -> None:
        if crossover is None:
            table = CrossoverTable(defaults=defaults)
        elif isinstance(crossover, CrossoverTable):
            table = crossover
            if defaults:
                table.defaults.update(defaults)
        else:
            table = CrossoverTable.load(crossover)
            if defaults:
                table.defaults.update(defaults)
        self.table = table
        self.int8 = bool(int8)
        self.count_ops = bool(count_ops)
        self.stats: Dict[int, LayerDispatchStats] = {}
        self._order: List[int] = []
        self._packed: Dict[int, _PackedLayer] = {}
        # Latest spike tensor offered by a neuron: (id, ref, nnz, amp).
        self._offer = None

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
            from .event_driven import conv_fanout_map

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
        st.events += nnz
        st.batch_sum += data.shape[0]
        sparse = density <= st.threshold
        pl = self._packed_for(layer) if (sparse or self.count_ops) else None
        if self.count_ops:
            st.accumulates += self._exact_accumulates(
                layer, kind, data, nnz, amplitude, counts, pl
            )
        if not sparse:
            st.dense_runs += 1
            return None
        st.sparse_runs += 1
        sp = pack_spikes(data, amplitude=amplitude)
        bias = layer.bias.data if layer.bias is not None else None
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
        from ..tensor import Tensor

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
            # Dense (analog) input: every unit fires — no scan needed.
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


def active_dispatch() -> Optional[SparseDispatch]:
    return _ACTIVE_DISPATCH


@contextmanager
def dispatch_context(dispatch: Optional[SparseDispatch]):
    """Install ``dispatch`` as the active dispatcher within the block."""
    global _ACTIVE_DISPATCH
    previous = _ACTIVE_DISPATCH
    _ACTIVE_DISPATCH = dispatch
    try:
        yield dispatch
    finally:
        _ACTIVE_DISPATCH = previous
