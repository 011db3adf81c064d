"""Sparse-dispatch end-to-end smoke check (``make sparse-smoke``).

A fast, deterministic pass over the event-driven sparse execution path:

1. **crossover calibration** — calibrating twice with an injected
   deterministic ``time_fn`` must produce bit-identical artefacts
   (fixed seed + environment fingerprint ⇒ reproducible thresholds);
   a real timed micro-calibration is then written into the run
   directory and loaded back through :class:`CrossoverTable`;
2. **sparse-path pipeline** — a converted tiny VGG on low-activity
   inputs must route a majority of its weight-layer forwards through
   the sparse gather kernels while matching the dense engine's logits,
   and the forced-sparse int8 path must stay within the quantization
   grid's tolerance of the float path;
3. **energy gauges** — under an observed run,
   :func:`record_energy_profile` must publish ``energy.*`` gauges with
   ``energy.measured_counts == 1`` (the dispatcher's exact accumulate
   counts replacing the rate-based estimates) and
   :func:`record_dispatch_profile` must publish per-layer
   ``dispatch.*`` gauges; the rendered report must carry the sparse
   dispatch table and ``dashboard --once`` must render
   deterministically;
4. **identical-seed self-diff** — ``repro.obs.diff`` over the two
   observed run directories must report zero regressions.

Exits non-zero with a diagnostic on the first failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os

import numpy as np

#: Micro-calibration set: one conv + one linear shape from the tiny
#: VGG-11, swept over two densities — enough to exercise the
#: timing loop and artefact round-trip in a couple of seconds.
SMOKE_SIGNATURES = (
    "conv:cin=8,cout=16,k=3,s=1,p=1,h=4,w=4",
    "linear:in=64,out=32",
)
SMOKE_DENSITIES = (0.005, 0.05)


def _fail(message: str) -> int:
    print(f"SPARSE SMOKE FAILED: {message}")
    return 1


def _converted_tiny_vgg():
    from ..conversion import ConversionConfig, convert_dnn_to_snn
    from ..data import DataLoader
    from ..models import vgg11

    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=10, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((16, 3, 8, 8)), rng.integers(0, 10, 16), 16)
    snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
    snn.eval()
    images = rng.random((16, 3, 8, 8))
    labels = rng.integers(0, 10, 16)
    return snn, images, labels


def _fake_timer():
    """Deterministic stand-in for the wall clock: a fixed pseudo-stream."""
    state = {"n": 0}

    def time_fn(fn):
        fn()  # still execute, so shape/kernels errors surface
        state["n"] += 1
        # Any fixed sequence works; vary it so crossovers are non-trivial.
        return 0.001 * ((state["n"] * 7919) % 97 + 1)

    return time_fn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.snn.sparse_smoke",
        description="Deterministic sparse-dispatch pipeline check.",
    )
    parser.add_argument("--run-dir",
                        default=os.path.join("results", "sparse_smoke"))
    args = parser.parse_args(argv)

    from ..obs import load_run, observe, render_report
    from ..obs.dashboard import main as dashboard_main
    from ..obs.diff import diff_run_dirs
    from ..obs.instruments import record_dispatch_profile, record_energy_profile
    from ..tensor import no_grad
    from .crossover import calibrate_crossover, write_artifact
    from .dispatch import CROSSOVER_SCHEMA, CrossoverTable

    # --- 1. calibration: deterministic under a fixed time_fn ----------
    artefacts = [
        calibrate_crossover(
            signatures=SMOKE_SIGNATURES, densities=SMOKE_DENSITIES,
            batch=8, seed=0, time_fn=_fake_timer(),
        )
        for _ in range(2)
    ]
    if artefacts[0] != artefacts[1]:
        return _fail("fixed-seed calibration with a deterministic time_fn "
                     "produced differing artefacts")
    if artefacts[0]["schema"] != CROSSOVER_SCHEMA:
        return _fail(f"calibration wrote schema {artefacts[0]['schema']!r}, "
                     f"expected {CROSSOVER_SCHEMA!r}")

    os.makedirs(args.run_dir, exist_ok=True)
    micro_path = os.path.join(args.run_dir, "CROSSOVER.json")
    write_artifact(
        calibrate_crossover(
            signatures=SMOKE_SIGNATURES, densities=SMOKE_DENSITIES,
            batch=8, repeats=2, seed=0,
        ),
        micro_path,
    )
    table = CrossoverTable.load(micro_path)
    missing = [s for s in SMOKE_SIGNATURES if s not in table.entries]
    if missing:
        return _fail(f"calibration artefact is missing entries {missing}")

    # The committed repo-root artefact routes the pipeline when present;
    # the micro artefact keeps the smoke self-contained when not.
    root_artifact = os.path.join(os.getcwd(), "CROSSOVER.json")
    crossover = root_artifact if os.path.exists(root_artifact) else micro_path

    # --- 2. sparse-path pipeline + 3. observability, twice ------------
    run_dir_a = args.run_dir
    run_dir_b = f"{args.run_dir}_b"
    sparse_share = 0.0
    for run_dir in (run_dir_a, run_dir_b):
        for stale in ("trace.jsonl", "events.jsonl", "metrics.json"):
            path = os.path.join(run_dir, stale)
            if os.path.exists(path):
                os.remove(path)
        snn, images, labels = _converted_tiny_vgg()
        quiet = images * 0.25  # low-activity regime: below the crossovers
        with no_grad():
            dense_logits = snn(quiet).data.copy()
        dispatch = snn.enable_sparse_dispatch(crossover=crossover,
                                              count_ops=True)
        with no_grad():
            routed_logits = snn(quiet).data.copy()
        if not np.allclose(routed_logits, dense_logits, atol=1e-9):
            return _fail("sparse-routed logits diverge from the dense engine")
        stats = dispatch.layer_stats()
        sparse_runs = sum(st.sparse_runs for st in stats)
        calls = sum(st.calls for st in stats)
        if sparse_runs * 2 < calls:
            return _fail(f"sparse path not exercised: only {sparse_runs} of "
                         f"{calls} layer-forwards routed sparse")
        sparse_share = sparse_runs / calls

        # Forced-sparse int8: every layer through the quantized gather.
        snn.enable_sparse_dispatch(
            int8=True, defaults={"conv": 1.1, "linear": 1.1},
        )
        with no_grad():
            int8_logits = snn(images).data
            snn.disable_sparse_dispatch()
            float_logits = snn(images).data
        if not np.allclose(int8_logits, float_logits, atol=0.05, rtol=0.05):
            return _fail("int8 sparse logits drifted past the quantization "
                         "tolerance")

        # Observed run: measured energy counts + dispatch telemetry.
        dispatch = snn.enable_sparse_dispatch(crossover=crossover,
                                              count_ops=True)
        with observe(run_dir, smoke=True, sparse=True):
            summary = record_energy_profile(
                snn, [(quiet, labels)], (3, 8, 8),
            )
            record_dispatch_profile(snn)
        if not summary.get("measured_counts"):
            return _fail("energy profile did not use the dispatcher's "
                         "measured accumulate counts")

        run = load_run(run_dir)
        gauges = run.metrics.get("gauges", {})
        energy_gauges = [g for g in gauges if g.startswith("energy.")]
        if not energy_gauges:
            return _fail(f"no energy.* gauges recorded in {run_dir}")
        measured_flag = gauges.get("energy.measured_counts")
        if not measured_flag:
            return _fail("energy.measured_counts gauge is absent or zero")
        dispatch_gauges = [g for g in gauges if g.startswith("dispatch.")]
        if not dispatch_gauges:
            return _fail(f"no dispatch.* gauges recorded in {run_dir}")

    # Report carries the sparse dispatch table.
    report = render_report(load_run(run_dir_a))
    if "Sparse dispatch" not in report:
        return _fail("rendered report is missing the sparse dispatch section")

    # --- 4. identical-seed self-diff must be clean --------------------
    diff = diff_run_dirs(run_dir_a, run_dir_b)
    if not diff.ok:
        print(diff.render())
        return _fail(f"identical-seed self-diff found "
                     f"{len(diff.regressions)} regression(s)")

    # Dashboard snapshot mode stays a pure function of the run dir.
    frames = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = dashboard_main([run_dir_a, "--once"])
        if code != 0:
            return _fail(f"dashboard --once exited {code}")
        frames.append(buffer.getvalue())
    if frames[0] != frames[1]:
        return _fail("dashboard --once rendered differing frames")

    print(
        f"sparse smoke ok: deterministic calibration "
        f"({len(table.entries)} shapes, {micro_path}), "
        f"{sparse_share:.0%} of layer-forwards sparse-routed "
        f"(logits match dense), int8 within tolerance, "
        f"measured energy counts + {len(dispatch_gauges)} dispatch gauges, "
        f"self-diff clean over {len(diff.deltas)} aligned series"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
