"""Temporal execution of converted spiking networks.

The spiking network is a *twin* of the source DNN: every weight layer
(conv/linear/pool/flatten) is applied at every time step, and every
DNN activation is replaced by a stateful :class:`SpikingNeuron`.  The
network presents the (direct-encoded) input for ``timesteps`` steps and
accumulates the final linear layer's outputs — the output layer does
not spike, following standard practice for low-latency SNNs (the class
decision is the accumulated logit).

Execution is layer-major and time-folded: the T input frames are packed
along the batch axis (``(T*N, C, H, W)``, time-major blocks) so each
stateless layer runs **one** GEMM over the folded batch instead of T
small ones, and each stateful module (:class:`SpikingNeuron`,
:class:`~repro.snn.pooling.SpikingMaxPool`, :class:`TemporalDropout`)
consumes the folded tensor with a vectorised scan over the time blocks.
Valid because the body is feed-forward: reordering (step, layer) loops
preserves every data dependency.  Every spiking module implements
``forward_fused(x, timesteps)``; the tests compare the engine's spikes,
logits and BPTT gradients with a step-major reference loop
(``tests/snn_oracle.py``, ``stepwise_reference``).

Layer probes (:class:`repro.nn.tap`) keep a tapped module on its
vectorised path: the engine fires the tap once per time block, in time
order, on row-block views of the folded input and output; a replacement
output is folded back.  Spike counts come from such a tap
(:func:`repro.snn.analysis.count_spikes`), so observing a network never
changes how it runs.

Structure classes:

- :class:`StepWrapper` — applies a stateless DNN module at every step;
- :class:`TemporalDropout` — dropout with a mask held fixed across the
  time steps of one forward pass (as in DIET-SNN's SNN-domain training);
- :class:`SpikingSequential` — ordered chain of spiking modules;
- :class:`SpikingResidualBlock` — spiking twin of a ResNet basic block
  (branch and shortcut currents sum before the output neuron);
- :class:`SpikingNetwork` — body + temporal loop (direct input, mean
  output).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from ..nn.containers import Flatten, Identity
from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..nn.module import Module
from ..tensor import GradMode, Tensor, concatenate
from .dispatch import SparseDispatch, active_dispatch, dispatch_context
from .neurons import SpikingNeuron


# ----------------------------------------------------------------------
# Layer-attribution probe (repro.obs.profile)
# ----------------------------------------------------------------------
#: Installed by the op profiler so the engine can label which layer
#: each primitive op belongs to.  A plain module global rather than an
#: import: repro.obs imports repro.snn, so this module must never import
#: the observability stack at top level.  The probe is a
#: ``callable(label) -> context manager``; ``None`` keeps every loop on
#: its fast path.
_LAYER_PROBE = None


def set_layer_probe(probe) -> None:
    """Install (or clear, with ``None``) the per-layer profiling probe."""
    global _LAYER_PROBE
    _LAYER_PROBE = probe


def layer_label(index: int, layer: Module) -> str:
    """Stable attribution label: position plus innermost module type."""
    inner = layer.inner if isinstance(layer, StepWrapper) else layer
    return f"L{index}:{type(inner).__name__}"


# ----------------------------------------------------------------------
# Time folding: frames <-> (T*N, ...) batches, time-major blocks
# ----------------------------------------------------------------------
def fold_time(frames: List[Tensor]) -> Tensor:
    """Pack per-step frames into one time-major folded batch."""
    return concatenate(frames, axis=0)


def unfold_time(fused: Tensor, timesteps: int) -> List[Tensor]:
    """Differentiable inverse of :func:`fold_time` (T row-block slices)."""
    total = fused.data.shape[0]
    if timesteps <= 0 or total % timesteps:
        raise ValueError(
            f"time-folded batch of {total} rows is not divisible by "
            f"timesteps={timesteps}"
        )
    n = total // timesteps
    return [fused[t * n:(t + 1) * n] for t in range(timesteps)]


class TiledFrames(Tensor):
    """A time-folded batch whose T blocks all equal ``frame``.

    Direct encoding presents one frame at every step; a foldable
    :class:`StepWrapper` fed a tiled batch computes on the frame once
    and re-tiles, so the leading conv never recomputes per step.
    """

    __slots__ = ("frame",)


def tile_time(frame: Tensor, timesteps: int) -> TiledFrames:
    """Repeat one frame T times along the batch axis (direct encoding).

    Backward sums the per-step gradient blocks — exactly the gradient a
    step-major loop accumulates when the same tensor is presented at
    every step.
    """
    data = frame.data
    out = np.broadcast_to(data, (timesteps,) + data.shape).reshape(
        (timesteps * data.shape[0],) + data.shape[1:]
    )

    def bwd(g):
        return (g.reshape((timesteps,) + data.shape).sum(axis=0),)

    folded = Tensor.from_op(out, (frame,), bwd, "tile_time")
    tiled = TiledFrames(folded.data, folded.requires_grad)
    tiled._node = folded._node
    tiled.frame = frame
    return tiled


def _tap_time_blocks(module: Module, x: Tensor, out: Tensor, timesteps: int) -> Tensor:
    """Fire ``module``'s taps once per time block of a folded call.

    Taps see row-block views of the folded input and output in time
    order — the calls a step-major loop would make — and a replacement
    from any tap is folded back into the output.
    """
    if not module._taps:
        return out
    blocks = unfold_time(out, timesteps)
    tapped = [
        module.run_taps(step_in, step_out)
        for step_in, step_out in zip(unfold_time(x, timesteps), blocks)
    ]
    if all(new is old for new, old in zip(tapped, blocks)):
        return out
    return fold_time(tapped)


def apply_fused(module: Module, x: Tensor, timesteps: int) -> Tensor:
    """Run ``module`` over a time-folded batch, then fire its taps once
    per time block.  Every module of a spiking body must implement
    ``forward_fused(x, timesteps)``."""
    fused_fn = getattr(module, "forward_fused", None)
    if fused_fn is None:
        raise TypeError(
            f"{type(module).__name__} has no forward_fused(x, timesteps): "
            "wrap a stateless layer in StepWrapper or implement forward_fused"
        )
    return _tap_time_blocks(module, x, fused_fn(x, timesteps), timesteps)


class SpikingModule(Module):
    """Base class: ``forward_fused(x, timesteps)`` runs all T steps of a
    time-folded batch."""

    def reset_state(self) -> None:
        """Clear temporal state (membranes, dropout masks) recursively."""
        for child in self.children():
            if isinstance(child, (SpikingModule, SpikingNeuron)):
                child.reset_state()


#: The stateless DNN layers a :class:`StepWrapper` may carry.  Each is
#: deterministic and acts row-wise on the batch axis, so one call on a
#: time-folded batch equals T per-step calls.
STATELESS_LAYERS = (
    Conv2d, Linear, MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten, Identity,
)


class StepWrapper(SpikingModule):
    """Applies a stateless DNN module (conv / linear / pool / flatten)
    at every time step, sharing its weights across steps."""

    def __init__(self, inner: Module) -> None:
        super().__init__()
        if not isinstance(inner, STATELESS_LAYERS):
            raise TypeError(
                f"StepWrapper cannot carry {type(inner).__name__}: only "
                "the stateless layers of STATELESS_LAYERS fold over time"
            )
        self.inner = inner

    def _run_inner(self, x: Tensor) -> Tensor:
        """The inner module's output, without firing its taps."""
        dispatch = active_dispatch()
        if dispatch is not None:
            out = dispatch.maybe_run(self.inner, x)
            if out is not None:
                return out
        return self.inner.forward(x)

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        if isinstance(x, TiledFrames):
            out = tile_time(self._run_inner(x.frame), timesteps)
        else:
            out = self._run_inner(x)
        return _tap_time_blocks(self.inner, x, out, timesteps)

    def extra_repr(self) -> str:
        return type(self.inner).__name__


class TemporalDropout(SpikingModule):
    """Dropout whose mask is sampled once per input and shared by all
    time steps, so the set of silenced units is consistent through the
    temporal unroll."""

    def __init__(self, p: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()
        self._mask: Optional[np.ndarray] = None

    def reset_state(self) -> None:
        self._mask = None
        super().reset_state()

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        total = x.data.shape[0]
        frame_shape = (total // timesteps,) + x.data.shape[1:]
        if self._mask is None or self._mask.shape != frame_shape:
            # One mask per frame, shared by all T time blocks.
            keep = (self.rng.random(frame_shape) >= self.p).astype(x.data.dtype)
            self._mask = keep / (1.0 - self.p)
        mask = self._mask
        blocks = (timesteps,) + frame_shape

        def masked(a):
            # The frame mask broadcast over a (T, N, ...) view of the batch.
            return (a.reshape(blocks) * mask).reshape(a.shape)

        def bwd(g):
            return (masked(g),)

        return Tensor.from_op(masked(x.data), (x,), bwd, "temporal_dropout")

    def extra_repr(self) -> str:
        return f"p={self.p}"


class SpikingSequential(SpikingModule):
    """Ordered chain of spiking modules."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layer_list: List[Module] = []
        for layer in layers:
            self.append(layer)

    def append(self, layer: Module) -> "SpikingSequential":
        index = len(self._layer_list)
        self._layer_list.append(layer)
        self.add_module(str(index), layer)
        return self

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        probe = _LAYER_PROBE
        if probe is None:
            for layer in self._layer_list:
                x = apply_fused(layer, x, timesteps)
            return x
        for index, layer in enumerate(self._layer_list):
            with probe(layer_label(index, layer)):
                x = apply_fused(layer, x, timesteps)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layer_list)

    def __getitem__(self, index) -> Module:
        return self._layer_list[index]

    def __len__(self) -> int:
        return len(self._layer_list)


class SpikingResidualBlock(SpikingModule):
    """Spiking twin of :class:`repro.models.resnet.BasicBlock`.

    The main-branch current (conv2 of the spikes of neuron1) and the
    shortcut current sum at the membrane of the output neuron, the
    standard treatment of skip connections in converted spiking ResNets.
    """

    def __init__(
        self,
        conv1: Module,
        neuron1: SpikingNeuron,
        conv2: Module,
        shortcut: Module,
        neuron2: SpikingNeuron,
    ) -> None:
        super().__init__()
        self.conv1 = conv1
        self.neuron1 = neuron1
        self.conv2 = conv2
        self.shortcut = shortcut
        self.neuron2 = neuron2

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        branch = apply_fused(
            self.conv2,
            apply_fused(
                self.neuron1, apply_fused(self.conv1, x, timesteps), timesteps
            ),
            timesteps,
        )
        shortcut = apply_fused(self.shortcut, x, timesteps)
        return apply_fused(self.neuron2, branch + shortcut, timesteps)


class SpikingNetwork(SpikingModule):
    """A converted SNN: the spiking body and the temporal loop.

    Parameters
    ----------
    body:
        Spiking pipeline mapping one input frame to one output-logit
        contribution (its last stage is the non-spiking output layer).
    timesteps:
        Number of time steps ``T`` (the paper's ultra-low-latency regime
        is T in {2, 3}).

    The input is direct-encoded, as in the paper: the analog image is
    presented to the first layer at every step.  ``forward`` accepts a
    numpy batch or Tensor and returns the output layer's logits
    averaged over the T steps; differentiable end-to-end through the
    unroll (BPTT) for SGL fine-tuning.  The T frames are folded into the
    batch axis, so each stateless layer runs one GEMM and neurons scan
    their membranes over the time blocks.
    """

    def __init__(self, body: SpikingModule, timesteps: int) -> None:
        super().__init__()
        if timesteps <= 0:
            raise ValueError("timesteps must be positive")
        self.body = body
        self.timesteps = timesteps
        # Activity-adaptive sparse dispatch (repro.snn.dispatch); None
        # keeps every weight layer on the dense path.  Installed into
        # the module-global dispatch context only for eligible passes
        # (eval mode, gradients disabled), so training and autograd
        # probes never leave the dense autograd path.
        self._dispatch: Optional[SparseDispatch] = None

    def inject_faults(self, spec):
        """Context manager realising a :class:`repro.faults.FaultSpec`
        on this network (see :func:`repro.faults.inject_faults`).

        Transmission faults tap the affected neurons, and the engine
        fires those taps per time block.  On exit the network is
        restored bit-for-bit.
        """
        from ..faults import inject_faults as _inject

        return _inject(self, spec)

    # ------------------------------------------------------------------
    # Sparse dispatch plumbing
    # ------------------------------------------------------------------
    def enable_sparse_dispatch(self, crossover=None) -> SparseDispatch:
        """Route weight layers through the activity-adaptive dispatcher.

        ``crossover`` is ``None`` (conservative per-kind defaults), a
        path to a ``python -m repro.snn.crossover`` artefact, or a
        :class:`~repro.snn.dispatch.CrossoverTable`.  The dispatcher
        tracks densities and routing only; exact accumulate counts come
        from :func:`repro.snn.analysis.count_accumulates`.  Only no-grad
        eval passes are affected; training keeps the dense autograd
        path.  Returns the installed :class:`SparseDispatch`.
        """
        self._dispatch = SparseDispatch(crossover=crossover)
        return self._dispatch

    def disable_sparse_dispatch(self) -> None:
        self._dispatch = None

    @property
    def sparse_dispatch(self) -> Optional[SparseDispatch]:
        return self._dispatch

    @sparse_dispatch.setter
    def sparse_dispatch(self, dispatch: Optional[SparseDispatch]) -> None:
        self._dispatch = dispatch

    def _dispatch_eligible(self) -> bool:
        return (
            self._dispatch is not None
            and not self.training
            and not GradMode.is_enabled()
        )

    def forward(self, images) -> Tensor:
        self.reset_state()
        if self._dispatch_eligible():
            with dispatch_context(self._dispatch):
                return self._run(images)
        return self._run(images)

    def _encode_input(self, images) -> Tensor:
        """The one frame presented at every step (direct encoding).

        An input that requires grad stays in the autograd graph, so
        gradients w.r.t. the input are available (FGSM probes); any
        other input becomes a new Tensor, which casts it to the default
        dtype, so the float32 path carries through the whole unroll.
        """
        if isinstance(images, Tensor) and images.requires_grad:
            return images
        return Tensor(images)

    def _run(self, images) -> Tensor:
        timesteps = self.timesteps
        # Every step sees the same frame: a tiled batch lets the leading
        # stateless layers run once on (N, ...).
        fused = tile_time(self._encode_input(images), timesteps)
        probe = _LAYER_PROBE
        if probe is None:
            return self._decode_output(apply_fused(self.body, fused, timesteps))
        for index, layer in enumerate(self._flat_layers()):
            with probe(layer_label(index, layer)):
                fused = apply_fused(layer, fused, timesteps)
        return self._decode_output(fused)

    def _flat_layers(self) -> List[Module]:
        """The body as one positional layer list (profiler labels).

        Nested :class:`SpikingSequential` containers are inlined —
        chaining their layers over the folded batch equals running the
        container — unless a tap observes the container itself.
        """

        def flatten(module: Module) -> List[Module]:
            if isinstance(module, SpikingSequential) and not module._taps:
                return [leaf for layer in module for leaf in flatten(layer)]
            return [module]

        return flatten(self.body)

    def _decode_output(self, fused: Tensor) -> Tensor:
        """Average the time-folded output blocks over the T steps."""
        timesteps = self.timesteps
        per_step = fused.reshape(
            (timesteps, fused.data.shape[0] // timesteps) + fused.data.shape[1:]
        )
        return per_step.mean(axis=0)

    def spiking_neurons(self) -> List[SpikingNeuron]:
        """Spiking layers in module order (the layer index of every
        per-layer statistic)."""
        return [m for m in self.modules() if isinstance(m, SpikingNeuron)]

    def extra_repr(self) -> str:
        return f"timesteps={self.timesteps}"
