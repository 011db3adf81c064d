"""Temporal execution of converted spiking networks.

The spiking network is a *twin* of the source DNN: every weight layer
(conv/linear/pool/flatten) is applied once per time step, and every
DNN activation is replaced by a stateful :class:`SpikingNeuron`.  The
network presents the (direct-encoded) input for ``timesteps`` steps and
accumulates the final linear layer's outputs — the output layer does
not spike, following standard practice for low-latency SNNs (the class
decision is the accumulated logit).

Two execution modes compute the identical unroll:

- ``"stepwise"`` — the classic step-major loop: T outer steps, each
  pushing one frame through every layer.
- ``"fused"`` (default) — layer-major, time-folded execution: the T
  input frames are packed along the batch axis (``(T*N, C, H, W)``,
  time-major blocks) so each stateless layer runs **one** GEMM over the
  folded batch instead of T small ones, and each stateful module
  (:class:`SpikingNeuron`, :class:`~repro.snn.pooling.SpikingMaxPool`,
  :class:`TemporalDropout`) consumes the folded tensor with a vectorised
  scan over the time blocks.  Valid because the body is feed-forward:
  reordering (step, layer) loops preserves every data dependency.  The
  fused path produces the same spikes, logits and BPTT gradients as the
  step-major loop (see ``tests/test_fused_equivalence.py``).

Layer probes (:class:`repro.nn.tap`) run in both engines.  The fused
engine keeps a tapped module on its vectorised path and fires the tap
once per time block, in time order, on row-block views of the folded
input and output; a replacement output is folded back.  Only a
network-level step monitor, which reads whole-network state at step
boundaries, forces the forward back to stepwise.

Structure classes:

- :class:`StepWrapper` — applies a stateless DNN module each step;
- :class:`TemporalDropout` — dropout with a mask held fixed across the
  time steps of one forward pass (as in DIET-SNN's SNN-domain training);
- :class:`SpikingSequential` — ordered chain of spiking modules;
- :class:`SpikingResidualBlock` — spiking twin of a ResNet basic block
  (branch and shortcut currents sum before the output neuron);
- :class:`SpikingNetwork` — encoder + body + temporal loop.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..nn.batchnorm import BatchNorm2d
from ..nn.containers import Flatten, Identity
from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..nn.module import Module
from ..tensor import GradMode, Tensor, concatenate
from .dispatch import SparseDispatch, active_dispatch, dispatch_context
from .encoding import DirectEncoder, Encoder
from .neurons import SpikingNeuron


# ----------------------------------------------------------------------
# Layer-attribution probe (repro.obs.profile)
# ----------------------------------------------------------------------
#: Installed by the op profiler so temporal loops can label which layer
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
    """Run ``module`` over a time-folded batch, preserving semantics.

    Dispatches to the module's ``forward_fused`` when it has one, then
    fires its taps per time block; otherwise unfolds the batch and
    calls the module step by step (correct for any stateful module).
    """
    fused_fn = getattr(module, "forward_fused", None)
    if fused_fn is None:
        return fold_time([module(f) for f in unfold_time(x, timesteps)])
    return _tap_time_blocks(module, x, fused_fn(x, timesteps), timesteps)


class SpikingModule(Module):
    """Base class: one ``forward`` call advances one time step."""

    def reset_state(self) -> None:
        """Clear temporal state (membranes, dropout masks) recursively."""
        for child in self.children():
            if isinstance(child, (SpikingModule, SpikingNeuron)):
                child.reset_state()


class StepWrapper(SpikingModule):
    """Applies a stateless DNN module (conv / linear / pool / flatten)
    at every time step, sharing its weights across steps."""

    # Inners that are deterministic and act row-wise on the batch axis,
    # so a time-folded batch through one call equals T per-step calls.
    _FOLDABLE = (
        Conv2d, Linear, MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten,
        Identity,
    )

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.inner = inner

    def forward(self, x: Tensor) -> Tensor:
        return self.inner.run_taps(x, self._run_inner(x))

    def _run_inner(self, x: Tensor) -> Tensor:
        """The inner module's output, without firing its taps."""
        dispatch = active_dispatch()
        if dispatch is not None:
            out = dispatch.maybe_run(self.inner, x)
            if out is not None:
                return out
        return self.inner.forward(x)

    def _folds(self) -> bool:
        """Whether one call on a folded batch matches T per-step calls."""
        if isinstance(self.inner, self._FOLDABLE):
            return True
        # Eval-mode BatchNorm is a fixed per-row affine map; in training
        # it computes batch statistics, which a folded batch would pool
        # across time steps — run those per step instead.
        if isinstance(self.inner, BatchNorm2d):
            return not self.inner.training
        return False

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        if not self._folds():
            return fold_time(
                [self.forward(f) for f in unfold_time(x, timesteps)]
            )
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

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        if self._mask is None or self._mask.shape != x.data.shape:
            keep = (self.rng.random(x.data.shape) >= self.p).astype(x.data.dtype)
            self._mask = keep / (1.0 - self.p)
        mask = self._mask

        def bwd(g):
            return (g * mask,)

        return Tensor.from_op(x.data * mask, (x,), bwd, "temporal_dropout")

    def forward_fused(self, x: Tensor, timesteps: int) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        total = x.data.shape[0]
        frame_shape = (total // timesteps,) + x.data.shape[1:]
        if self._mask is None or self._mask.shape != frame_shape:
            # Same RNG draw as the first step-major step: one mask per
            # frame, shared by all T time blocks.
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
    """Ordered chain of spiking modules (one time step per call)."""

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

    def forward(self, x: Tensor) -> Tensor:
        probe = _LAYER_PROBE
        if probe is None:
            for layer in self._layer_list:
                x = layer(x)
            return x
        for index, layer in enumerate(self._layer_list):
            with probe(layer_label(index, layer)):
                x = layer(x)
        return x

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

    def forward(self, x: Tensor) -> Tensor:
        branch = self.conv2(self.neuron1(self.conv1(x)))
        return self.neuron2(branch + self.shortcut(x))

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
    """A converted SNN: encoder, spiking body, and the temporal loop.

    Parameters
    ----------
    body:
        Spiking pipeline mapping one input frame to one output-logit
        contribution (its last stage is the non-spiking output layer).
    timesteps:
        Number of time steps ``T`` (the paper's ultra-low-latency regime
        is T in {2, 3}).
    encoder:
        Input encoder; defaults to direct encoding.

    ``forward`` accepts a numpy batch or Tensor and returns the
    time-averaged logits; differentiable end-to-end through the unroll
    (BPTT) for SGL fine-tuning.

    ``mode`` selects the execution engine: ``"fused"`` (default) folds
    the T frames into the batch axis so each stateless layer runs one
    GEMM and neurons scan their membranes over the time blocks;
    ``"stepwise"`` is the classic step-major loop.  Both produce
    equivalent logits, spike counts and BPTT gradients.  A fused network
    falls back to stepwise automatically while a step monitor is
    attached (the per-step hook observes whole-network state at step
    boundaries, which layer-major execution never materialises).
    """

    OUTPUT_MODES = ("mean", "max", "last")
    MODES = ("fused", "stepwise")

    def __init__(
        self,
        body: SpikingModule,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        output_mode: str = "mean",
        mode: str = "fused",
    ) -> None:
        super().__init__()
        if timesteps <= 0:
            raise ValueError("timesteps must be positive")
        if output_mode not in self.OUTPUT_MODES:
            raise ValueError(
                f"output_mode must be one of {self.OUTPUT_MODES}, got "
                f"'{output_mode}'"
            )
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got '{mode}'"
            )
        self.body = body
        self.timesteps = timesteps
        self.encoder = encoder if encoder is not None else DirectEncoder()
        # Output decoding: "mean" accumulates the output layer over all
        # steps (the paper's choice); "max" takes the elementwise max
        # over steps; "last" reads only the final step.
        self.output_mode = output_mode
        self.mode = mode
        # Per-timestep observer (repro.obs.instruments.StepMonitor);
        # None keeps the temporal loop on its fast path.
        self._step_monitor = None
        # Activity-adaptive sparse dispatch (repro.snn.dispatch); None
        # keeps every weight layer on the dense path.  Installed into
        # the module-global dispatch context only for eligible passes
        # (eval mode, gradients disabled), so training and autograd
        # probes never leave the dense autograd path.
        self._dispatch: Optional[SparseDispatch] = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_monitor(self, monitor) -> None:
        """Install an object whose ``on_step(step, network)`` is called
        after every simulated time step (see ``repro.obs.monitored``).

        While a monitor is attached, forward passes run stepwise even in
        fused mode, so the hook sees true step-boundary state."""
        self._step_monitor = monitor

    def detach_monitor(self) -> None:
        self._step_monitor = None

    def inject_faults(self, spec):
        """Context manager realising a :class:`repro.faults.FaultSpec`
        on this network (see :func:`repro.faults.inject_faults`).

        Every fault domain keeps the fused engine: transmission faults
        tap the affected neurons, and the fused path fires those taps
        per time block.  On exit the network is restored bit-for-bit.
        """
        from ..faults import inject_faults as _inject

        return _inject(self, spec)

    # ------------------------------------------------------------------
    # Execution-mode plumbing
    # ------------------------------------------------------------------
    def resolved_mode(self) -> str:
        """The engine the next forward pass will actually use."""
        if self.mode == "stepwise" or self._step_monitor is not None:
            return "stepwise"
        return "fused"

    @contextmanager
    def using_mode(self, mode: str):
        """Pin the execution mode within a block (a step monitor still
        forces stepwise; taps run in either mode)."""
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got '{mode}'")
        previous = self.mode
        self.mode = mode
        try:
            yield self
        finally:
            self.mode = previous

    # ------------------------------------------------------------------
    # Sparse dispatch plumbing
    # ------------------------------------------------------------------
    def enable_sparse_dispatch(
        self, crossover=None, count_ops: bool = False
    ) -> SparseDispatch:
        """Route weight layers through the activity-adaptive dispatcher.

        ``crossover`` is ``None`` (conservative per-kind defaults), a
        path to a ``python -m repro.snn.crossover`` artefact, or a
        :class:`~repro.snn.dispatch.CrossoverTable`.  ``count_ops=True``
        keeps exact per-layer accumulate counts on every forward (what
        ``record_energy_profile`` consumes for measured energy) at a small
        per-layer bookkeeping cost; the default tracks densities and
        routing only.  Only no-grad eval passes are affected;
        training keeps the dense autograd path.  Returns the installed
        :class:`SparseDispatch`.
        """
        self._dispatch = SparseDispatch(crossover=crossover, count_ops=count_ops)
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
                return self._run_engine(images)
        return self._run_engine(images)

    def _run_engine(self, images) -> Tensor:
        if self.resolved_mode() == "fused":
            return self._forward_fused(images)
        return self._forward_stepwise(images)

    def _encode_input(self, images) -> Tuple[Optional[Tensor], List[Tensor]]:
        """Returns ``(direct_frame, frames)``: a single in-graph frame
        under direct encoding (presented every step), or the encoded
        per-step frame list otherwise."""
        if isinstance(self.encoder, DirectEncoder):
            if isinstance(images, Tensor) and images.requires_grad:
                # Keep the input in the autograd graph (direct encoding
                # presents the same tensor every step), so gradients
                # w.r.t. the input are available — used by FGSM probes.
                return images, []
            data = images.data if isinstance(images, Tensor) else np.asarray(images)
            return Tensor(self.encoder(data, self.timesteps)[0]), []
        data = images.data if isinstance(images, Tensor) else np.asarray(images)
        return None, [Tensor(f) for f in self.encoder(data, self.timesteps)]

    def _forward_stepwise(self, images) -> Tensor:
        direct_frame, frames = self._encode_input(images)
        if direct_frame is not None:
            frames = [direct_frame] * self.timesteps
        from ..tensor import maximum

        total: Optional[Tensor] = None
        for step, frame in enumerate(frames):
            out = self.body(frame)
            if self._step_monitor is not None:
                self._step_monitor.on_step(step, self)
            if self.output_mode == "mean":
                total = out if total is None else total + out
            elif self.output_mode == "max":
                total = out if total is None else maximum(total, out)
            else:  # "last"
                total = out
        if self.output_mode == "mean":
            return total * (1.0 / self.timesteps)
        return total

    def _forward_fused(self, images) -> Tensor:
        timesteps = self.timesteps
        direct_frame, frames = self._encode_input(images)
        if direct_frame is not None:
            # Direct encoding presents identical frames: a tiled batch
            # lets the leading stateless layers run once on (N, ...).
            fused = tile_time(direct_frame, timesteps)
        else:
            fused = fold_time(frames)
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
        """Reduce the time-folded output blocks per ``output_mode``."""
        timesteps = self.timesteps
        per_step = fused.reshape(
            (timesteps, fused.data.shape[0] // timesteps) + fused.data.shape[1:]
        )
        if self.output_mode == "mean":
            return per_step.mean(axis=0)
        if self.output_mode == "max":
            from ..tensor import maximum

            # Fold pairwise in step order — the same tie-handling as the
            # stepwise loop's running maximum.
            total = per_step[0]
            for t in range(1, timesteps):
                total = maximum(total, per_step[t])
            return total
        return per_step[timesteps - 1]

    # ------------------------------------------------------------------
    # Spiking statistics
    # ------------------------------------------------------------------
    def spiking_neurons(self) -> List[SpikingNeuron]:
        return [m for m in self.modules() if isinstance(m, SpikingNeuron)]

    def set_recording(self, enabled: bool) -> None:
        for neuron in self.spiking_neurons():
            neuron.recording = enabled

    def reset_spike_stats(self) -> None:
        for neuron in self.spiking_neurons():
            neuron.reset_spike_stats()

    def total_spikes(self) -> float:
        return sum(neuron.spike_count for neuron in self.spiking_neurons())

    def extra_repr(self) -> str:
        return (
            f"timesteps={self.timesteps}, "
            f"encoder={type(self.encoder).__name__}, mode={self.mode}"
        )
