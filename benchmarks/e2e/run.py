"""End-to-end, layer-attributed benchmark of the paper's pipeline.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out DIR]

Each workload runs in a fresh subprocess with the BLAS thread pools
pinned to one thread, so the only parallelism is the fault sweep's
``min(2, cpus)`` workers.  A run sets the workload up three times
(``setup_s`` is the median), then sends requests from one client in a
closed loop for about ``--seconds`` seconds (``request_s`` is the median
request).  Both are read on the host clock of ``hostclock.py``, which
discounts the host's drifting speed; the wall-clock medians are printed
beside them.  Without ``--trace`` it reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace`` every other request is traced: the
per-layer metrics come from the traced requests, and
``trace.overhead_frac`` is their spans' measured cost over the untraced
median request.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when an output check fails.  Each
run's result (with the environment fingerprint) is written to
``DIR/<workload>/`` for ``compare.py``; traced runs also write
``DIR/<workload>/trace.json``.  Without ``--workload`` all four run in turn.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from tracing import NULL_TRACER, Tracer, instrument, self_times, span_cost

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("pipeline_t2", "infer_t3", "convert_sweep", "fault_sweep")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Time a child may take beyond --seconds: three set-ups, the request
# that crosses the deadline, and a traced run's replays and serial sweep.
CHILD_ALLOWANCE_S = 165


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Parent: one pinned subprocess per workload
# ----------------------------------------------------------------------
def run_child(args, workload: str) -> int:
    env = dict(os.environ, **{name: "1" for name in BLAS_THREAD_VARS})
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(args.out),
    ]
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        return child.wait(timeout=args.seconds + CHILD_ALLOWANCE_S)
    except BaseException:
        # The child's session also holds the fault sweep's workers.
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise


# ----------------------------------------------------------------------
# Child: set up, measure, check, report
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    import numpy

    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        env = dict(
            os.environ,
            GIT_CEILING_DIRECTORIES=str(ROOT.parent),
            GIT_CONFIG_NOSYSTEM="1",
            GIT_CONFIG_GLOBAL=os.devnull,
        )

        def git(*words):
            return subprocess.run(
                ["git", "-C", str(ROOT), *words], env=env,
                capture_output=True, text=True, timeout=30,
            )

        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            commit = head.stdout.strip()
            dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "dirty": dirty,
    }


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def measure(workload, seed: int, seconds: float, tracer, clock):
    """Set the workload up ``SETUP_REPEATS`` times, then run whole units of
    ``workload.cycle`` requests until ``seconds`` of wall time have
    passed; with a tracer, every other unit is traced.  Set-ups are
    returned as ``(wall, host clock)`` second pairs."""
    from workloads import Pass

    setups = []
    state = None
    for repeat in range(SETUP_REPEATS):
        # Drop the previous state first, so peak memory is one set-up's.
        state = None
        gc.collect()
        if tracer is not None:
            tracer.run = f"setup{repeat}"
        with instrument(tracer), (tracer.span("setup") if tracer else nullcontext()):
            started, host = time.perf_counter(), clock.now()
            state = workload.setup(seed, tracer or NULL_TRACER)
            setups.append((time.perf_counter() - started, clock.now() - host))
    gc.collect()

    passes = []
    started = time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index // workload.cycle % 2 == 1
        cpu = _cpu_seconds()
        begun, host = time.perf_counter(), clock.now()
        if traced:
            tracer.run = index
            with instrument(tracer), tracer.span("pass"):
                result = workload.run_pass(state, index, tracer)
        else:
            result = workload.run_pass(state, index, NULL_TRACER)
        wall, host = time.perf_counter() - begun, clock.now() - host
        passes.append(Pass(result, wall, host, _cpu_seconds() - cpu, traced))
        measured_both = any(not p.traced for p in passes) and (
            tracer is None or any(p.traced for p in passes)
        )
        whole_units = len(passes) % workload.cycle == 0
        if measured_both and whole_units and time.perf_counter() - started >= seconds:
            return state, setups, passes


def consistency_errors(passes) -> list:
    """Requests with the same key must give the same output, whether
    traced or not."""
    first = {}
    errors = []
    for index, p in enumerate(passes):
        key = p.result.key
        if key not in first:
            first[key] = p.result.output
        elif p.result.output != first[key]:
            errors.append(f"request {index} (key {key!r}) output differs from its first run")
    return errors[:5]


# Set-up spans whose self time is work no instrumented layer covers
# (Algorithm 1, LSUV's rescaling, dataset assembly inside the pipeline).
SETUP_CALLS = {"setup", "experiments.run_pipeline", "experiments.get_context"}


def layer_metrics(tracer, passes, setups: int) -> dict:
    """Per-layer metrics from the traced requests' spans (per request
    unless named a percentile or ratio) and the traced set-ups."""
    import numpy as np

    def percentile(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    runs = len(traced)
    selfs = self_times(tracer.spans)
    in_pass = [s for s in tracer.spans if isinstance(s.run, int)]
    in_setup = [s for s in tracer.spans if not isinstance(s.run, int)]

    def total(name, spans=in_pass, per=runs):
        return sum(s.duration for s in spans if s.name == name) / per

    def count(name, spans=in_pass, per=runs):
        return sum(1 for s in spans if s.name == name) / per

    def self_total(names, spans=in_pass, per=runs):
        return sum(selfs[s.id] for s in spans if s.name in names) / per

    def ms(name, q):
        return 1e3 * percentile(tracer.samples.get(name, []), q)

    eval_forward_ms = [1e3 * s.duration for s in in_pass if s.name == "snn.eval_forward"]
    exec_stats = tracer.exec_stats
    proposed = [s.duration for s in in_pass if s.name == "conversion.proposed"]
    root_wall = sum(s.duration for s in in_pass if s.name == "pass")
    root_self = self_total({"pass"}, per=1)
    spans_per_request = len(in_pass) / runs
    metrics = {
        "data.synth_s": total("data.synth", in_setup, setups),
        "data.wait_s": total("data.wait"),
        "data.batches": sum(1 for s in in_pass if s.name == "data.wait" and s.images) / runs,
        "nn.train_forward_s": total("nn.train_forward"),
        "nn.eval_forward_s": total("nn.eval_forward"),
        "tensor.backward_s": total("tensor.backward"),
        "tensor.backward_calls": count("tensor.backward"),
        "optim.step_s": total("optim.step"),
        "optim.steps": count("optim.step"),
        "train.lsuv_s": total("train.lsuv", in_setup, setups),
        "train.dnn_step_ms_p50": ms("train.dnn_step_s", 50),
        "train.dnn_step_ms_p90": ms("train.dnn_step_s", 90),
        "train.sgl_step_ms_p50": ms("train.sgl_step_s", 50),
        "train.sgl_step_ms_p90": ms("train.sgl_step_s", 90),
        "train.eval_s": total("train.eval"),
        "train.self_s": self_total({"train.dnn_fit", "train.sgl_fit"}),
        "snn.train_forward_s": total("snn.train_forward"),
        "snn.eval_forward_s": total("snn.eval_forward"),
        "snn.forward_ms_p50": percentile(eval_forward_ms, 50),
        "snn.forward_ms_p90": percentile(eval_forward_ms, 90),
        "snn.forward_calls": float(len(eval_forward_ms)),
        "snn.images": sum(s.images for s in in_pass if s.name.startswith("snn.")) / runs,
        "conversion.convert_s": median(proposed) if proposed else 0.0,
        "conversion.converts": count("conversion.proposed") + count("conversion.baseline"),
        "exec.map_s": total("exec.map"),
        "exec.publish_s": total("exec.publish"),
        "faults.self_s": self_total({"faults.sweep"}),
        "setup.nn_forward_s": total("nn.train_forward", in_setup, setups)
        + total("nn.eval_forward", in_setup, setups),
        "setup.snn_forward_s": total("snn.train_forward", in_setup, setups)
        + total("snn.eval_forward", in_setup, setups),
        "setup.backward_s": total("tensor.backward", in_setup, setups),
        "setup.optim_s": total("optim.step", in_setup, setups),
        "setup.data_wait_s": total("data.wait", in_setup, setups),
        "setup.other_s": self_total(SETUP_CALLS, in_setup, setups),
        "exec.cpu_util": sum(p.cpu for p in passes) / sum(p.wall for p in passes),
        # A 10 s run holds one traced and one untraced request on most
        # workloads, so their gap is one request's noise; the spans' own
        # cost can be measured instead.
        "trace.overhead_frac": spans_per_request * span_cost() / median(p.wall for p in untraced),
        "trace.coverage_frac": 1.0 - root_self / root_wall,
        "trace.spans": spans_per_request,
    }
    for key in ("tasks", "retried", "crashes", "failed", "serial_fallback_tasks"):
        metrics[f"exec.{key}"] = sum(stats[key] for stats in exec_stats) / runs
    return metrics


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from hostclock import HostClock
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload]
    env = fingerprint()
    tracer = Tracer() if args.trace else None
    with HostClock() as clock:
        state, setups, passes = measure(workload, args.seed, args.seconds, tracer, clock)

    errors = consistency_errors(passes)
    extra, workload_errors = workload.finish(state, passes, tracer)
    errors += workload_errors
    untraced = [p for p in passes if not p.traced]
    if tracer is None:
        section = "end_to_end"
        values = {
            "request_s": median(p.host for p in untraced),
            "setup_s": median(host for _, host in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        section = "per_layer"
        values = layer_metrics(tracer, passes, len(setups))
        values.update(extra)
        coverage = values["trace.coverage_frac"]
        if coverage < 0.95:
            errors.append(f"spans cover only {coverage:.1%} of the traced requests")
    declared = {m["name"]: m["unit"] for m in spec[section]}
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }

    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    out_dir = Path(args.out) / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "seconds": args.seconds,
        "fingerprint": env,
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "requests": {"untraced": len(untraced), "traced": len(passes) - len(untraced)},
        "samples": {
            "request_s": [p.host for p in untraced],
            "request_wall_s": [p.wall for p in untraced],
            "setup_s": [host for _, host in setups],
            "setup_wall_s": [wall for wall, _ in setups],
            "clock_ticks": clock.ticks,
        },
        "metrics": metrics,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{time.time_ns() % 10**9:09d}"
    with open(out_dir / f"run-s{args.seed}-t{int(args.trace)}-{stamp}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if tracer is not None:
        tracer.dump(out_dir / "trace.json")

    print(f"# {args.workload} seed={args.seed} trace={int(args.trace)} "
          f"requests={len(passes)} fingerprint={json.dumps(env, sort_keys=True)}")
    print(f"# wall clock, not metrics: median request "
          f"{median(p.wall for p in untraced):.6g} s, median set-up "
          f"{median(wall for wall, _ in setups):.6g} s")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=str(ROOT / "results" / "e2e"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.child:
        return run_workload(args)
    status = 0
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        status = run_child(args, workload) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
