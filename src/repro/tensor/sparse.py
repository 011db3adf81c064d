"""Compact spike representation and gather-based sparse kernels.

Converted SNNs at ultra-low latency (T in {1..5}) fire only a small
fraction of their units per step, yet the dense engine multiplies every
zero through full GEMMs.  This module provides the event-driven
alternative: a CSR-style packing of each layer's binary spike output
(:class:`SparseSpikes`) and vectorised gather/segment-sum kernels for
Linear and Conv2d propagation (:func:`sparse_linear_gather`,
:func:`sparse_conv2d_gather`) that touch only the firing units.

Design notes (measured on the reference host):

- ``np.add.at`` is unbuffered and loses to every alternative; segment
  sums use ``np.add.reduceat`` over event runs that are *already
  sorted* by output row, so no scatter is ever needed.
- For Linear the gather runs transposed — ``W.take(cols, axis=1)``
  followed by ``reduceat(axis=1)`` — because reduceat along the last
  axis of a C-contiguous array is several times faster than along the
  first.
- For Conv2d events are sorted once by ``(batch, y, x)``; each kernel
  offset ``(ky, kx)`` then maps them to nondecreasing output rows, so a
  single boundary scan + ``reduceat`` accumulates each offset's
  contribution, and per-offset output rows are unique (plain fancy
  ``+=`` is safe).
- Spike trains are uniform-amplitude (``beta * V^th``); kernels exploit
  this by accumulating unscaled and applying the amplitude once at the
  end.  Non-uniform values (e.g. after average pooling) take a per-event
  scaling path.
- int8 weights (``qweight``/``qpacked`` + ``qscale``) accumulate in
  int32 and dequantize once — the integer-friendly form a neuromorphic
  core would use.  The int path requires uniform amplitudes; per-event
  values fall back to the float weights.

These kernels are inference-only: they return plain ndarrays and
record no autograd graph.  Training keeps the dense path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "SparseSpikes",
    "pack_spikes",
    "pack_conv_weight",
    "sparse_linear_gather",
    "sparse_conv2d_gather",
]


@dataclass
class SparseSpikes:
    """CSR packing of a batch of spike frames.

    ``indices`` holds, per sample, the flat (C-order) positions of the
    active units within that sample; ``indptr`` (length ``N + 1``)
    delimits each sample's run.  A uniform spike train stores only its
    ``amplitude``; non-uniform trains carry per-event ``values``.
    """

    shape: Tuple[int, ...]
    indices: np.ndarray
    indptr: np.ndarray
    values: Optional[np.ndarray] = None
    amplitude: Optional[float] = None

    @property
    def batch(self) -> int:
        return int(self.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def density(self) -> float:
        size = int(np.prod(self.shape))
        return self.nnz / size if size else 0.0

    @property
    def unit_shape(self) -> Tuple[int, ...]:
        return tuple(self.shape[1:])

    def event_values(self) -> np.ndarray:
        if self.values is not None:
            return self.values
        amp = 1.0 if self.amplitude is None else self.amplitude
        return np.full(self.nnz, amp)

    def to_dense(self, dtype=None) -> np.ndarray:
        dtype = np.float64 if dtype is None else dtype
        flat = np.zeros((self.batch, int(np.prod(self.shape[1:]))), dtype=dtype)
        if self.nnz:
            rows = np.repeat(
                np.arange(self.batch), np.diff(self.indptr)
            )
            flat[rows, self.indices] = self.event_values().astype(dtype)
        return flat.reshape(self.shape)


def pack_spikes(
    data: np.ndarray,
    amplitude: Optional[float] = None,
    detect_uniform: bool = True,
) -> SparseSpikes:
    """Pack a dense spike frame batch into :class:`SparseSpikes`.

    ``amplitude`` asserts a known uniform spike height (the emitting
    neuron's ``beta * V^th``) and skips the value gather entirely;
    otherwise values are gathered and collapsed to an amplitude when
    they turn out uniform (``detect_uniform``).
    """
    data = np.asarray(data)
    n = data.shape[0]
    flat = data.reshape(n, -1)
    rows, cols = np.nonzero(flat)
    counts = np.bincount(rows, minlength=n)
    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    if amplitude is not None:
        return SparseSpikes(data.shape, cols, indptr, amplitude=float(amplitude))
    values = flat[rows, cols]
    if detect_uniform and values.size:
        lo, hi = values.min(), values.max()
        if lo == hi:
            return SparseSpikes(data.shape, cols, indptr, amplitude=float(lo))
    if values.size == 0:
        return SparseSpikes(data.shape, cols, indptr, amplitude=1.0)
    return SparseSpikes(data.shape, cols, indptr, values=values)


def pack_conv_weight(weight: np.ndarray) -> np.ndarray:
    """Repack ``(C_out, C_in, k, k)`` as contiguous ``(k, k, C_in, C_out)``.

    The sparse conv kernel gathers per-offset weight rows by input
    channel; this layout makes each ``[ky, kx]`` slab a contiguous
    ``(C_in, C_out)`` matrix so the gather is a plain row fetch.
    """
    return np.ascontiguousarray(np.transpose(weight, (2, 3, 1, 0)))


def _resolve_dtype(weight, out_dtype):
    if out_dtype is not None:
        return np.dtype(out_dtype)
    if weight is not None:
        return weight.dtype
    from .tensor import get_default_dtype

    return np.dtype(get_default_dtype())


def sparse_linear_gather(
    sp: SparseSpikes,
    weight: Optional[np.ndarray] = None,
    bias: Optional[np.ndarray] = None,
    qweight: Optional[np.ndarray] = None,
    qscale: Optional[float] = None,
    out_dtype=None,
) -> np.ndarray:
    """Event-driven affine map ``y = S W^T + b`` over packed spikes.

    ``weight`` is the dense ``(out, in)`` matrix; passing ``qweight``
    (int8, same shape) with its dequantization ``qscale`` switches the
    accumulation to int32.  Matches ``x @ W.T + b`` on the dense frame
    to float tolerance (exactly, when per-sample summation order
    coincides).
    """
    if weight is None and qweight is None:
        raise ValueError("need weight or qweight")
    out_features = (weight if weight is not None else qweight).shape[0]
    dtype = _resolve_dtype(weight, out_dtype)
    n = sp.batch
    out = np.zeros((n, out_features), dtype=dtype)
    if sp.nnz:
        cols = sp.indices
        counts = np.diff(sp.indptr)
        nonempty = np.flatnonzero(counts)
        starts = sp.indptr[nonempty]
        use_int = qweight is not None and sp.values is None
        if use_int:
            gathered = qweight.take(cols, axis=1).astype(np.int32)
        else:
            if weight is None:
                raise ValueError("per-event values need the float weight")
            gathered = weight.take(cols, axis=1)
            if sp.values is not None:
                gathered = gathered * sp.values[None, :]
        seg = np.add.reduceat(gathered, starts, axis=1)
        if use_int:
            amp = 1.0 if sp.amplitude is None else sp.amplitude
            out[nonempty] = (seg.T * (float(qscale) * amp)).astype(
                dtype, copy=False
            )
        elif sp.values is None and sp.amplitude not in (None, 1.0):
            out[nonempty] = (seg.T * dtype.type(sp.amplitude)).astype(
                dtype, copy=False
            )
        else:
            out[nonempty] = seg.T
    if bias is not None:
        out += bias.astype(dtype, copy=False)
    return out


def _sorted_events(sp: SparseSpikes, height: int, width: int):
    """Unpack CSR events to ``(b, c, y, x, values)`` sorted by (b, y, x).

    CSR order is (b, c, y, x); re-keying by spatial position first makes
    every kernel offset's output rows nondecreasing, which is what lets
    the conv kernel segment-sum without any scatter.
    """
    counts = np.diff(sp.indptr)
    b = np.repeat(np.arange(sp.batch), counts)
    c, rem = np.divmod(sp.indices, height * width)
    y, x = np.divmod(rem, width)
    key = (b * height + y) * width + x
    order = np.argsort(key, kind="stable")
    vals = sp.values[order] if sp.values is not None else None
    return b[order], c[order], y[order], x[order], vals


#: Below this many (event x offset) pairs the conv kernel expands all
#: kernel offsets in one broadcast batch (single sort + segment sum)
#: instead of looping per offset — the regime where Python-loop fixed
#: costs dominate the gathers.
_FUSED_OFFSET_BUDGET = 16384


@lru_cache(maxsize=128)
def _placements(
    h: int, w: int, k: int, stride: int, padding: int, oh: int, ow: int
) -> np.ndarray:
    """``(h*w, k*k)`` table: the output position each input position
    reaches through each kernel offset, ``-1`` where it lands off the map.
    A pure function of the geometry."""
    y, x, ky, kx = np.meshgrid(
        np.arange(h), np.arange(w), np.arange(k), np.arange(k), indexing="ij"
    )
    i, ri = np.divmod(y + padding - ky, stride)
    j, rj = np.divmod(x + padding - kx, stride)
    ok = (ri == 0) & (rj == 0) & (i >= 0) & (i < oh) & (j >= 0) & (j < ow)
    place = np.where(ok, i * ow + j, -1).reshape(h * w, k * k)
    place.setflags(write=False)
    return place


def _conv_events_fused(
    sp: SparseSpikes, woff, stride, padding, oh, ow, h, w, use_int, out_flat
) -> None:
    """All-offsets-at-once event accumulation (small event counts).

    Looks every event's ``(event, offset)`` placements up in the
    geometry's :func:`_placements` table, keeps the valid ones, sorts
    them by output row once, and segment-sums into ``out_flat`` with a
    single ``reduceat``.
    """
    k = woff.shape[0]
    c_in = woff.shape[2]
    b = np.repeat(np.arange(sp.batch), np.diff(sp.indptr))
    c, pos = np.divmod(sp.indices, h * w)
    place = _placements(h, w, k, stride, padding, oh, ow)[pos]
    event, offset = np.nonzero(place >= 0)
    if not event.size:
        return
    rows = b[event] * (oh * ow) + place[event, offset]
    order = np.argsort(rows, kind="stable")
    rows, event, offset = rows[order], event[order], offset[order]
    # Flat gather index into the (k*k*C_in, C_out) weight view: offset
    # slab first, then input channel.
    gathered = woff.reshape(k * k * c_in, -1)[offset * c_in + c[event]]
    if use_int:
        gathered = gathered.astype(np.int32)
    elif sp.values is not None:
        gathered = gathered * sp.values[event, None]
    brk = np.flatnonzero(rows[1:] != rows[:-1])
    starts = np.concatenate(([0], brk + 1))
    seg = np.add.reduceat(gathered, starts, axis=0)
    out_flat[rows[starts]] += seg


def sparse_conv2d_gather(
    sp: SparseSpikes,
    weight: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    bias: Optional[np.ndarray] = None,
    packed: Optional[np.ndarray] = None,
    qpacked: Optional[np.ndarray] = None,
    qscale: Optional[float] = None,
    out_dtype=None,
) -> np.ndarray:
    """Event-driven 2-D convolution over packed spikes.

    ``weight`` is the dense ``(C_out, C_in, k, k)`` kernel; ``packed``
    optionally supplies the :func:`pack_conv_weight` layout to skip the
    per-call repack (the dispatcher caches it).  ``qpacked`` (int8 in
    packed layout) with ``qscale`` runs int32 accumulation.  Matches the
    dense ``conv2d`` to float tolerance.
    """
    if weight is None and packed is None and qpacked is None:
        raise ValueError("need weight, packed or qpacked")
    use_int = qpacked is not None and sp.values is None
    if use_int:
        woff = qpacked
    elif packed is not None:
        woff = packed
    elif weight is not None:
        woff = pack_conv_weight(weight)
    else:
        raise ValueError("per-event values need the float weights")
    k = woff.shape[0]
    c_out = woff.shape[3]
    dtype = _resolve_dtype(weight if weight is not None else packed, out_dtype)
    n, _, h, w = sp.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    acc_dtype = np.int32 if use_int else dtype
    out_flat = np.zeros((n * oh * ow, c_out), dtype=acc_dtype)
    if sp.nnz and sp.nnz * k * k <= _FUSED_OFFSET_BUDGET:
        # Few events: the per-offset loop's k^2 rounds of small-array
        # ops cost more than the work itself.  Expand all offsets at
        # once and pay one sort + one segment sum instead.
        _conv_events_fused(
            sp, woff, stride, padding, oh, ow, h, w, use_int, out_flat
        )
    elif sp.nnz:
        b, c, y, x, vals = _sorted_events(sp, h, w)
        for ky in range(k):
            i_num = y + (padding - ky)
            if stride == 1:
                i = i_num
                i_ok = (i_num >= 0) & (i_num < oh)
            else:
                i, r = np.divmod(i_num, stride)
                i_ok = (r == 0) & (i >= 0) & (i < oh)
            for kx in range(k):
                j_num = x + (padding - kx)
                if stride == 1:
                    j = j_num
                    ok = i_ok & (j_num >= 0) & (j_num < ow)
                else:
                    j, r = np.divmod(j_num, stride)
                    ok = i_ok & (r == 0) & (j >= 0) & (j < ow)
                sel = np.flatnonzero(ok)
                if not sel.size:
                    continue
                rows = (b[sel] * oh + i[sel]) * ow + j[sel]
                gathered = woff[ky, kx][c[sel]]
                if use_int:
                    gathered = gathered.astype(np.int32)
                elif vals is not None:
                    gathered = gathered * vals[sel, None]
                # Rows are sorted within an offset: one boundary scan
                # gives the segments, and each output row appears once.
                brk = np.flatnonzero(rows[1:] != rows[:-1])
                starts = np.concatenate(([0], brk + 1))
                seg = np.add.reduceat(gathered, starts, axis=0)
                out_flat[rows[starts]] += seg
    if use_int:
        amp = 1.0 if sp.amplitude is None else sp.amplitude
        out_flat = (out_flat * (float(qscale) * amp)).astype(dtype, copy=False)
    elif sp.values is None and sp.amplitude not in (None, 1.0):
        out_flat = out_flat * dtype.type(sp.amplitude)
    out = np.ascontiguousarray(
        out_flat.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
    )
    if bias is not None:
        out += bias.astype(dtype, copy=False)[None, :, None, None]
    return out
