"""`Module` / `Parameter` base classes for the layer library.

`Module` provides parameter & submodule registration through attribute
assignment, train/eval mode propagation, recursive parameter iteration,
and a flat ``state_dict`` for checkpointing — the minimum surface the
rest of the library (optimizers, converters, trainers) relies on.

:class:`tap` is the one way to observe a layer as it runs: a scoped
``fn(module, input, output)`` that fires after every call of the tapped
modules and may return a replacement output.  Activation percentiles,
calibration, LSUV, FLOP tracing, spike rasters, event counting,
spike-rate regularisation and transmission faults all read layers
through it instead of rewriting ``forward``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor: always created with ``requires_grad=True``."""

    def __init__(self, data, dtype: Optional[np.dtype] = None) -> None:
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Base class for all layers and models."""

    #: Callables installed by :class:`tap`; empty keeps ``__call__`` on
    #: its fast path.
    _taps: Tuple[Callable, ...] = ()

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        setattr(self, name, param)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # ------------------------------------------------------------------
    # Mode & grads
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            if name not in own:
                continue
            if own[name].data.shape != np.asarray(values).shape:
                raise ValueError(
                    f"shape mismatch for '{name}': "
                    f"{own[name].data.shape} vs {np.asarray(values).shape}"
                )
            own[name].data[...] = values

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        if self._taps:
            return self.run_taps(args[0] if len(args) == 1 else args, out)
        return out

    def run_taps(self, x, out):
        """Fire this module's taps on one call's input and output, in
        install order; a tap's replacement becomes the output the next
        tap (and the caller) sees."""
        for fn in self._taps:
            replacement = fn(self, x, out)
            if replacement is not None:
                out = replacement
        return out

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        if len(lines) == 1:
            return lines[0] + ")"
        return "\n".join(lines) + "\n)"


class tap:
    """Scoped layer observer: ``with tap(modules, fn): ...``.

    Inside the block every call of each tapped module runs
    ``fn(module, input, output)`` after ``forward``; ``fn`` returns
    ``None`` to observe, or a tensor that replaces the output.  The tap
    is removed on exit, exception or not.  Taps stack: several may
    observe one module, firing in install order.

    The SNN engine (:mod:`repro.snn.network`) keeps a tapped module on
    its time-folded path and fires the tap once per time block, in
    time order, on row-block views of the folded input and output — so
    a tap sees the per-step calls a step-major loop would make.
    """

    def __init__(self, modules: Union[Module, Iterable[Module]], fn: Callable) -> None:
        self.modules = [modules] if isinstance(modules, Module) else list(modules)
        self.fn = fn

    def __enter__(self) -> "tap":
        for module in self.modules:
            module._taps = module._taps + (self.fn,)
        return self

    def __exit__(self, *exc_info) -> None:
        for module in self.modules:
            taps = list(module._taps)
            taps.remove(self.fn)
            if taps:
                module._taps = tuple(taps)
            else:
                del module._taps
