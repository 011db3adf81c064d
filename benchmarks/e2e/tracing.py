"""In-memory span tracer for the end-to-end benchmark.

A span records one call into a layer: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it started
(its parent) and the run it belongs to (``setup0``.. for set-ups, the
request index for measured requests).  Spans stay in memory until the
benchmark writes them out with :meth:`Tracer.dump`.

Spans come from two places:

- the workloads open them around each call they make into a
  layer (``tracer.span("conversion.proposed")``);
- :func:`instrument` wraps a few methods *at class level* for the
  duration of a traced request or set-up: the top-level DNN and SNN ``forward``,
  ``Tensor.backward``, the optimizers' ``step``, ``DataLoader.__iter__``,
  the synthetic dataset constructor, ``ParallelExecutor.map`` and
  ``ModelStore.publish``.  Inner modules are never wrapped: the SNN's
  fused engine treats an instance-level ``forward`` on an inner module
  as a per-step probe and falls back to stepwise execution, which would
  change what is measured.

Worker processes forked by the executor inherit the wrappers, but the
spans they record stay in the worker; the executor is measured from the
parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "images")

    def __init__(self, id, name, parent, run, start, end=None, images=0):
        self.id = id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = start
        self.end = end
        self.images = images

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans, named samples and executor stats for one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.samples: Dict[str, List[float]] = {}
        self.exec_stats: List[dict] = []
        self.run = None
        self._stack: List[Span] = []

    def open(self, name: str, images: int = 0) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run, _clock(), images=images)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span '{span.name}' closed out of order")

    @contextmanager
    def span(self, name: str, images: int = 0):
        span = self.open(name, images)
        try:
            yield span
        finally:
            self.close(span)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        return any(span.name == name for span in self._stack)

    def dump(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        spans = []
        for span in self.spans:
            record = span.as_dict()
            record["start"] -= origin
            record["end"] -= origin
            spans.append(record)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes; records nothing."""

    def span(self, name: str, images: int = 0):
        return nullcontext()


NULL_TRACER = NullTracer()


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of its
    interval that its direct children cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


# ----------------------------------------------------------------------
# Class-level instrumentation
# ----------------------------------------------------------------------
def _wrap_call(tracer: Tracer, original, name: str):
    def wrapper(self, *args, **kwargs):
        span = tracer.open(name)
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a method wrapped as
    :func:`instrument` wraps one, against the bare method (best of
    ``repeats`` loops of ``calls`` calls each)."""

    class Probe:
        def call(self):
            return None

    tracer = Tracer()
    probe = Probe()
    wrapped = _wrap_call(tracer, Probe.call, "probe").__get__(probe)

    def best(method) -> float:
        times = []
        for _ in range(repeats):
            tracer.spans = []
            started = _clock()
            for _ in range(calls):
                method()
            times.append(_clock() - started)
        return min(times)

    return max(best(wrapped) - best(probe.call), 0.0) / calls


def _wrap_forward(tracer: Tracer, original, family: str):
    train_name, eval_name = f"{family}.train_forward", f"{family}.eval_forward"

    def wrapper(self, x, *args, **kwargs):
        span = tracer.open(train_name if self.training else eval_name, x.shape[0])
        try:
            return original(self, x, *args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _wrap_loader_iter(tracer: Tracer, original):
    """Times each batch the loader produces (``data.wait``) and, for
    shuffled (training) loaders inside a fit, the gap until the consumer
    asks for the next batch — one training step."""

    def wrapper(self):
        batches = original(self)
        step_sample = None
        if self.shuffle:
            if tracer.inside("train.dnn_fit"):
                step_sample = "train.dnn_step_s"
            elif tracer.inside("train.sgl_fit"):
                step_sample = "train.sgl_step_s"
        while True:
            span = tracer.open("data.wait")
            try:
                batch = next(batches)
                span.images = len(batch[1])
            except StopIteration:
                return
            finally:
                tracer.close(span)
            handed_over = _clock()
            yield batch
            if step_sample is not None:
                tracer.sample(step_sample, _clock() - handed_over)

    return wrapper


def _wrap_map(tracer: Tracer, original):
    def wrapper(self, *args, **kwargs):
        span = tracer.open("exec.map")
        try:
            outcome = original(self, *args, **kwargs)
        finally:
            tracer.close(span)
        tracer.exec_stats.append(outcome.stats.as_dict())
        return outcome

    return wrapper


@contextmanager
def instrument(tracer: Optional[Tracer]):
    """Install the class-level wrappers for the block (no-op without a
    tracer), restoring the original methods on exit."""
    if tracer is None:
        yield
        return
    from repro.data import DataLoader, SyntheticImageDataset
    from repro.exec import ModelStore, ParallelExecutor
    from repro.models import VGG, ResNet
    from repro.optim import SGD, Adam
    from repro.snn import SpikingNetwork
    from repro.tensor import Tensor

    targets = [
        (VGG, "forward", lambda f: _wrap_forward(tracer, f, "nn")),
        (ResNet, "forward", lambda f: _wrap_forward(tracer, f, "nn")),
        (SpikingNetwork, "forward", lambda f: _wrap_forward(tracer, f, "snn")),
        (Tensor, "backward", lambda f: _wrap_call(tracer, f, "tensor.backward")),
        (SGD, "step", lambda f: _wrap_call(tracer, f, "optim.step")),
        (Adam, "step", lambda f: _wrap_call(tracer, f, "optim.step")),
        (DataLoader, "__iter__", lambda f: _wrap_loader_iter(tracer, f)),
        (SyntheticImageDataset, "__init__", lambda f: _wrap_call(tracer, f, "data.synth")),
        (ParallelExecutor, "map", lambda f: _wrap_map(tracer, f)),
        (ModelStore, "publish", lambda f: _wrap_call(tracer, f, "exec.publish")),
    ]
    originals = []
    try:
        for cls, attr, make in targets:
            original = cls.__dict__[attr]
            originals.append((cls, attr, original))
            setattr(cls, attr, make(original))
        yield
    finally:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)
