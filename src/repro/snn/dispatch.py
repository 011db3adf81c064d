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

The dispatcher only routes.  Exact accumulate counts (Section VI of the
paper) come from :func:`repro.snn.analysis.count_accumulates`, a tap
that counts the same frames whichever path computed them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

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
    """Per-layer routing telemetry: paths taken and input densities."""

    signature: str
    kind: str
    threshold: float
    dense_runs: int = 0
    sparse_runs: int = 0
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


class SparseDispatch:
    """Routes eligible weight layers between dense GEMM and sparse gather.

    ``crossover`` is ``None`` (defaults only), a path to a crossover
    artefact, or a :class:`CrossoverTable`.
    """

    def __init__(self, crossover=None) -> None:
        if crossover is None:
            crossover = CrossoverTable()
        elif not isinstance(crossover, CrossoverTable):
            crossover = CrossoverTable.load(crossover)
        self.table = crossover
        self.stats: Dict[int, LayerDispatchStats] = {}
        self._order: List[int] = []
        # Packed conv weights, keyed by layer id.
        self._packed: Dict[int, np.ndarray] = {}
        # Latest spike tensor offered by a neuron: (id, ref, nnz, amp).
        self._offer = None

    # ------------------------------------------------------------------
    # Neuron-side spike emission
    # ------------------------------------------------------------------
    def offer_spikes(self, data, nnz=None, amplitude=None) -> None:
        """Register a freshly emitted spike tensor's metadata.

        Keyed by array identity: the very next weight layer that
        receives this exact array can reuse the event count (its
        density) and uniform amplitude (its packing) without re-scanning
        it.  Holding the reference keeps the id stable until the next
        offer replaces it.
        """
        self._offer = (id(data), data, nnz, amplitude)

    def _claim(self, data):
        offer = self._offer
        if offer is not None and offer[0] == id(data) and offer[1] is data:
            return offer[2], offer[3]
        return None

    # ------------------------------------------------------------------
    # Weight cache
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop packed weights (call after in-place weight mutation)."""
        self._packed.clear()

    def reset_stats(self) -> None:
        for key in self._order:
            st = self.stats[key]
            st.dense_runs = st.sparse_runs = 0
            st.last_density = st.density_sum = 0.0

    def layer_stats(self) -> List[LayerDispatchStats]:
        """Stats in first-use (execution) order."""
        return [self.stats[key] for key in self._order]

    def _packed_for(self, layer: Conv2d) -> np.ndarray:
        packed = self._packed.get(id(layer))
        if packed is None:
            packed = self._packed[id(layer)] = pack_conv_weight(layer.weight.data)
        return packed

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

        Either way the forward's density and path are recorded in this
        layer's :class:`LayerDispatchStats`.
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
        nnz, amplitude = self._claim(data) or (None, None)
        if nnz is None:
            nnz = int(np.count_nonzero(data))
        density = nnz / data.size if data.size else 0.0
        st.last_density = density
        st.density_sum += density
        if density > st.threshold:
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
            )
        else:
            out = sparse_conv2d_gather(
                sp,
                weight=layer.weight.data,
                stride=layer.stride,
                padding=layer.padding,
                bias=bias,
                packed=self._packed_for(layer),
            )
        return Tensor(out)


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
    """Install ``dispatch`` as the active dispatcher for one network
    forward within the block."""
    global _ACTIVE_DISPATCH
    previous = _ACTIVE_DISPATCH
    _ACTIVE_DISPATCH = dispatch
    try:
        yield dispatch
    finally:
        _ACTIVE_DISPATCH = previous
