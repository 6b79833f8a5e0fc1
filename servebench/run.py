"""Serving benchmark entry point.

Usage, from the repository root::

    python3 servebench/run.py --workload cumulative-ingest --seed 1 \\
        --seconds 30 --trace 0

Runs closed-loop passes of one workload for ``--seconds`` seconds and
prints a readable report followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from a run that alternates untraced and traced passes
(the difference is the tracing overhead) and writes its spans to
``.servebench/``.

The measured program is pinned: executors, retry policy, engine and
noise method are passed explicitly, and the run refuses to start when
any ``REPRO_*`` environment variable is set.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from servebench import stats, tracing  # noqa: E402

#: Passes a run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Population share of the untimed warm-up pass.
WARMUP_SCALE = 0.02

END_TO_END = (
    ("setup_s", "s"),
    ("ingest_cells_per_s", "1/s"),
    ("publish_p50_ms", "ms"),
    ("answers_per_s", "1/s"),
    ("answer_p50_ms", "ms"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="population multiplier (smoke tests use a small one)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if pinned:
        print(
            f"refusing to run: {', '.join(pinned)} would change the measured "
            "program; unset every REPRO_* variable",
            file=sys.stderr,
        )
        return 2
    source = os.path.join(ROOT, "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    try:
        import numpy as np

        from servebench import workloads  # imports the program under test
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
            file=sys.stderr,
        )
        return 2
    executor = workloads.EXECUTOR[args.workload]
    print(
        f"servebench {args.workload}: seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} scale={args.scale}"
    )
    print(
        f"host: python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}; executor={executor} K={workloads.N_SHARDS} "
        f"T={workloads.HORIZON} n={int(workloads.POPULATION[args.workload] * args.scale)}"
    )
    print(f"cpu probe before: {stats.cpu_probe_ms():.2f} ms")

    inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
    warmup = workloads.make_inputs(args.workload, args.seed, args.scale * WARMUP_SCALE)
    state_root = os.path.join(ROOT, ".servebench")
    os.makedirs(state_root, exist_ok=True)
    state_dir = os.path.join(state_root, f"{args.workload}-{os.getpid()}")

    warm = workloads.run_pass(warmup, executor, state_dir, tag="warmup")
    tracer = tracing.Tracer() if args.trace else None
    passes = []
    peak_rss = None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES * (1 + args.trace) or (
        time.perf_counter() - start < args.seconds
    ):
        gc.collect()
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.pass_tags[len(passes)] = "main"
            with tracing.Patches(tracer):
                log = workloads.run_pass(
                    inputs, executor, state_dir, tracer=tracer, pass_id=len(passes)
                )
            log.tag = "main-traced"
        else:
            log = workloads.run_pass(inputs, executor, state_dir, pass_id=len(passes))
        passes.append(log)
        if peak_rss is None:
            # Through the first pass only: later passes repeat the same work,
            # and the allocator's slow growth over them depends on how many
            # passes the host's speed lets into the run.
            peak_rss = stats.peak_rss_mb()
    if args.trace and executor == "process":
        # Under the process executor the shard-internal layers run in
        # forked workers, which record nothing; the serial passes trace them
        # and give the single-threaded baseline.  Thread-pool spans are
        # recorded in-process, so the thread executor needs no such pass.
        gc.collect()
        passes.append(
            workloads.run_pass(inputs, "serial", state_dir, tag="serial-baseline")
        )
        gc.collect()
        pass_id = len(passes)
        tracer.pass_tags[pass_id] = "serial-baseline"
        with tracing.Patches(tracer):
            log = workloads.run_pass(
                inputs, "serial", state_dir, tag="serial-traced",
                tracer=tracer, pass_id=pass_id,
            )
        passes.append(log)
    print(f"cpu probe after: {stats.cpu_probe_ms():.2f} ms")

    attempted = sum(log.attempted for log in [warm] + passes)
    failed = sum(log.failed for log in [warm] + passes)
    for log in [warm] + passes:
        for error in log.errors[:5]:
            print(f"FAILED ({log.tag}): {error}")
    digests = {log.digest for log in passes if not log.failed}
    if len(digests) > 1:
        # Same seed and inputs on every pass and executor: any difference
        # in published answers is a correctness failure.
        failed += 1
        print(f"FAILED: passes published {len(digests)} different answer streams")

    # A failed pass keeps the samples of the operations that succeeded.
    main = [log for log in passes if log.tag == "main"]
    values = end_to_end(main, peak_rss)
    print(
        f"passes: {len(main)} untraced of {len(passes)}; "
        f"attempted {attempted} operations, failed {failed}"
    )
    for name, unit in END_TO_END:
        print(f"  {name:<20} {values[name][0]:>14.6g} {unit:<4} (n={values[name][1]})")

    if args.trace:
        metrics = traced_report(args, passes, tracer, values, state_root)
    else:
        metrics = {
            # null, not NaN, when a failure left a metric without samples
            name: {"value": None if math.isnan(values[name][0]) else values[name][0],
                   "unit": unit}
            for name, unit in END_TO_END
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def end_to_end(passes, peak_rss: float) -> dict:
    """``name -> (value, sample count)`` for every end-to-end metric."""
    publish = [log.publish_s for log in passes]
    cold = [log.cold_s for log in passes]
    return {
        "setup_s": (
            stats.pooled_median(log.setup_s for log in passes),
            sum(len(log.setup_s) for log in passes),
        ),
        "ingest_cells_per_s": (
            stats.rate_over_passes(
                [log.cells for log in passes], [sum(log.publish_s) for log in passes]
            ),
            len(passes),
        ),
        "publish_p50_ms": (stats.pooled_median(publish) * 1e3, sum(map(len, publish))),
        # One rate per round's analyst session, not per pass: a pass's
        # summed answer time is dominated by the few calls that wait out a
        # host stall, which the median over sessions leaves aside.
        "answers_per_s": (
            stats.pooled_median(log.session_rates for log in passes),
            sum(len(log.session_rates) for log in passes),
        ),
        "answer_p50_ms": (stats.pooled_median(cold) * 1e3, sum(map(len, cold))),
        "recover_s": (
            stats.pooled_median(log.recover_s for log in passes),
            sum(len(log.recover_s) for log in passes),
        ),
        "peak_rss_mb": (peak_rss, 1),
    }


def traced_report(args, passes, tracer, values, state_root) -> dict:
    """Print tails, tracing overhead, the serial baseline and layer metrics."""
    main = [log for log in passes if log.tag == "main"]
    traced = [log for log in passes if log.tag == "main-traced"]
    print("tails (untraced passes):")
    for label, samples in (
        ("publish", [s for log in main for s in log.publish_s]),
        ("cold answer", [s for log in main for s in log.cold_s]),
    ):
        print(
            f"  {label:<12} p50 {stats.median(samples) * 1e3:9.3f} ms  "
            f"p90 {stats.quantile(samples, 0.9) * 1e3:9.3f} ms  (n={len(samples)})"
        )
    untraced_busy = stats.median(log.busy_s for log in main)
    traced_busy = stats.median(log.busy_s for log in traced)
    traced_values = end_to_end(traced, values["peak_rss_mb"][0])
    print(
        f"tracing overhead: busy time per pass {untraced_busy:.4f} s untraced, "
        f"{traced_busy:.4f} s traced ({(traced_busy / untraced_busy - 1) * 100:+.1f}%); "
        f"publish p50 {values['publish_p50_ms'][0]:.3f} -> "
        f"{traced_values['publish_p50_ms'][0]:.3f} ms"
    )
    baseline = [log for log in passes if log.tag == "serial-baseline"]
    if baseline:
        serial = end_to_end(baseline, values["peak_rss_mb"][0])
        print(
            "serial baseline pass: "
            f"ingest {serial['ingest_cells_per_s'][0]:.4g} cells/s "
            f"(measured executor {values['ingest_cells_per_s'][0]:.4g}), "
            f"publish p50 {serial['publish_p50_ms'][0]:.3f} ms "
            f"(measured executor {values['publish_p50_ms'][0]:.3f}), "
            f"recover {serial['recover_s'][0]:.4f} s"
        )
    layers = tracing.layer_values(tracer)
    print(f"per-layer ({len(tracer.spans)} spans; value is a median unless noted):")
    print(f"  {'metric':<30} {'value':>12} {'p90':>12} {'n':>6}  module -> moves")
    for metric in tracing.LAYER_METRICS:
        value = layers[metric.name]
        print(
            f"  {metric.name:<30} {value.value:>12.5g} {value.p90:>12.5g} "
            f"{value.n:>6}  {metric.module} -> {metric.moves}"
        )
    path = os.path.join(state_root, f"trace-{args.workload}.jsonl")
    tracer.dump(path)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return {
        metric.name: {"value": layers[metric.name].value, "unit": metric.unit}
        for metric in tracing.LAYER_METRICS
    }


def stop_child_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    The services close their shard workers themselves; this reaps any
    worker an error left behind, and the shared-memory resource tracker
    that the ``process`` executor starts, which would otherwise outlive
    the run until it noticed its closed pipe.  Workers go first: they
    inherit the tracker's pipe, and the tracker ends only once every
    copy of it is closed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_child_processes()
    sys.exit(code)
