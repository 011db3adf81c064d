"""Density-crossover calibration for the sparse dispatch path.

``python -m repro.snn.crossover`` sweeps synthetic spike densities
through each layer shape, times the dense GEMM against the sparse
gather kernel, and persists the per-shape break-even density as a
schema-versioned artefact (``CROSSOVER.json`` by default) that
:meth:`repro.snn.SpikingNetwork.enable_sparse_dispatch` loads.

The measured quantity is exactly what the dispatcher chooses between:
the layer's dense ``forward`` (Tensor machinery included) versus
``pack_spikes`` + gather kernel on the same frame.  The crossover is
snapped to the largest swept density where sparse still wins, so the
artefact is stable under small timing noise; with an injected
deterministic ``time_fn`` it is bit-reproducible for a fixed seed —
which is how the test-suite pins it.

Layer shapes are described by the same signature strings the
dispatcher keys its stats on (``repro.snn.dispatch.layer_signature``),
so a calibrated entry applies to any layer with that shape.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..nn.conv import Conv2d
from ..nn.linear import Linear
from ..obs import console
from ..obs.registry import environment_fingerprint
from ..profiling import time_callable
from ..tensor import Tensor, no_grad
from ..tensor.sparse import (
    pack_conv_weight,
    pack_spikes,
    sparse_conv2d_gather,
    sparse_linear_gather,
)
from .dispatch import CROSSOVER_SCHEMA, DEFAULT_THRESHOLDS

#: Swept activity grid; the break-even on the reference host sits in
#: the low-percent range, so the grid is dense there.
DEFAULT_DENSITIES = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1)

#: Layer shapes of a tiny VGG-11 (T=2 folded batch) plus two larger
#: generic shapes, so the committed artefact covers both tiny test
#: networks and mid-size classifiers.
DEFAULT_SIGNATURES = (
    "conv:cin=3,cout=8,k=3,s=1,p=1,h=8,w=8",
    "conv:cin=8,cout=16,k=3,s=1,p=1,h=4,w=4",
    "conv:cin=16,cout=32,k=3,s=1,p=1,h=2,w=2",
    "conv:cin=32,cout=32,k=3,s=1,p=1,h=2,w=2",
    "conv:cin=32,cout=64,k=3,s=1,p=1,h=1,w=1",
    "conv:cin=64,cout=64,k=3,s=1,p=1,h=1,w=1",
    "conv:cin=16,cout=32,k=3,s=1,p=1,h=8,w=8",
    "linear:in=64,out=32",
    "linear:in=32,out=10",
    "linear:in=512,out=256",
)


def parse_signature(signature: str) -> Dict[str, int]:
    """Decode a dispatch signature into its integer geometry fields."""
    kind, _, body = signature.partition(":")
    if kind not in ("conv", "linear") or not body:
        raise ValueError(f"malformed layer signature {signature!r}")
    fields: Dict[str, int] = {"_kind": kind}  # type: ignore[dict-item]
    for item in body.split(","):
        key, _, value = item.partition("=")
        fields[key] = int(value)
    required = (
        ("cin", "cout", "k", "s", "p", "h", "w")
        if kind == "conv"
        else ("in", "out")
    )
    missing = [key for key in required if key not in fields]
    if missing:
        raise ValueError(f"signature {signature!r} missing {missing}")
    return fields


def _build_case(signature: str, batch: int, rng: np.random.Generator):
    """Materialise (layer, input_shape) for one signature."""
    fields = parse_signature(signature)
    if fields["_kind"] == "conv":
        layer = Conv2d(
            fields["cin"], fields["cout"], fields["k"],
            stride=fields["s"], padding=fields["p"], bias=False, rng=rng,
        )
        return layer, (batch, fields["cin"], fields["h"], fields["w"])
    layer = Linear(fields["in"], fields["out"], bias=False, rng=rng)
    return layer, (batch, fields["in"])


def _synthetic_spikes(
    shape, density: float, rng: np.random.Generator
) -> np.ndarray:
    """Binary frame with exactly ``round(density * size)`` active units."""
    total = int(np.prod(shape))
    active = min(total, max(0, int(round(density * total))))
    flat = np.zeros(total)
    if active:
        flat[rng.permutation(total)[:active]] = 1.0
    return flat.reshape(shape)


def _default_time_fn(repeats: int) -> Callable[[Callable[[], None]], float]:
    def timer(fn: Callable[[], None]) -> float:
        return time_callable(fn, repeats=repeats, warmup=1).minimum

    return timer


def calibrate_crossover(
    signatures: Optional[Iterable[str]] = None,
    densities: Iterable[float] = DEFAULT_DENSITIES,
    batch: int = 32,
    repeats: int = 5,
    seed: int = 0,
    time_fn: Optional[Callable[[Callable[[], None]], float]] = None,
    verbose: bool = False,
) -> dict:
    """Measure per-shape dense/sparse break-even densities.

    ``time_fn`` maps a zero-argument callable to a duration in seconds;
    the default times it ``repeats`` times and keeps the minimum.
    Returns the artefact dict (see :data:`CROSSOVER_SCHEMA`).
    """
    signatures = list(signatures or DEFAULT_SIGNATURES)
    densities = sorted(float(d) for d in densities)
    if not densities or densities[0] <= 0 or densities[-1] > 1:
        raise ValueError("densities must lie in (0, 1]")
    timer = time_fn if time_fn is not None else _default_time_fn(repeats)
    entries = []
    for index, signature in enumerate(signatures):
        rng = np.random.default_rng(seed + index)
        layer, in_shape = _build_case(signature, batch, rng)
        kind = "conv" if isinstance(layer, Conv2d) else "linear"
        weight = layer.weight.data
        packed = pack_conv_weight(weight) if kind == "conv" else None
        frames = {d: _synthetic_spikes(in_shape, d, rng) for d in densities}
        probe = Tensor(frames[densities[0]])

        def dense_run():
            with no_grad():
                layer(probe)

        dense_s = timer(dense_run)
        sparse_s: Dict[str, float] = {}
        crossover = 0.0
        for density in densities:
            frame = frames[density]

            if kind == "conv":
                def sparse_run():
                    sparse_conv2d_gather(
                        pack_spikes(frame, amplitude=1.0),
                        stride=layer.stride,
                        padding=layer.padding,
                        packed=packed,
                        out_dtype=weight.dtype,
                    )
            else:
                def sparse_run():
                    sparse_linear_gather(
                        pack_spikes(frame, amplitude=1.0), weight
                    )

            elapsed = timer(sparse_run)
            sparse_s[f"{density:g}"] = elapsed
            if elapsed <= dense_s:
                crossover = density
        entries.append(
            {
                "signature": signature,
                "kind": kind,
                "crossover_density": crossover,
                "dense_s": dense_s,
                "sparse_s": sparse_s,
            }
        )
        if verbose:
            console(
                f"{signature:<44} dense {dense_s * 1e3:8.3f}ms "
                f"crossover {crossover:g}"
            )
    return {
        "schema": CROSSOVER_SCHEMA,
        "seed": int(seed),
        "batch": int(batch),
        "repeats": int(repeats),
        "densities": densities,
        "defaults": dict(DEFAULT_THRESHOLDS),
        "environment": environment_fingerprint(),
        "entries": entries,
    }


def write_artifact(artifact: dict, path: str) -> None:
    """Atomic JSON write: a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.snn.crossover",
        description="Calibrate dense/sparse break-even densities per layer "
                    "shape for SpikingNetwork.enable_sparse_dispatch.",
    )
    parser.add_argument("--root", default=".",
                        help="directory of the default artefact")
    parser.add_argument("--out", default=None,
                        help="artefact path (default: <root>/CROSSOVER.json)")
    parser.add_argument("--densities", default=None,
                        help="comma-separated density grid to sweep")
    parser.add_argument("--signatures", default=None,
                        help="semicolon-separated layer signatures "
                             "(default: tiny-VGG shapes)")
    parser.add_argument("--batch", type=int, default=32,
                        help="synthetic batch rows (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per point (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="weight/spike-pattern seed (default: %(default)s)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-shape progress lines")
    args = parser.parse_args(argv)

    densities = (
        [float(d) for d in args.densities.split(",")]
        if args.densities else DEFAULT_DENSITIES
    )
    signatures = (
        [s.strip() for s in args.signatures.split(";") if s.strip()]
        if args.signatures else DEFAULT_SIGNATURES
    )
    artifact = calibrate_crossover(
        signatures=signatures,
        densities=densities,
        batch=args.batch,
        repeats=args.repeats,
        seed=args.seed,
        verbose=not args.quiet,
    )
    out = args.out or os.path.join(args.root, "CROSSOVER.json")
    write_artifact(artifact, out)
    console(f"wrote {out} ({len(artifact['entries'])} shapes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
