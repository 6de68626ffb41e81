"""Run one workload of the design-tools benchmark and print its metrics.

Usage (from the repository root)::

    python3 designbench/run.py --workload sim_mix --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics, prints
each layer's self time, and prints traced beside untraced end-to-end
figures so the cost of tracing is visible.  See ``designbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts first
import atexit  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sim_mix", "design_flow", "serve_cluster")
SETUP_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_geomean_ms", "ms"),
    ("latency_warm_ms", "ms"),
    ("latency_cold_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("twoq_gates_out", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def isolate(run_dir: str) -> None:
    """Give this run a clean program environment inside the checkout.

    Inherited ``REPRO_*`` settings are dropped (they switch the
    trajectory path, the result cache and tracing), the autotuner and
    every cache or temporary file land in a fresh per-run directory, and
    the numeric libraries run single-threaded.  Must run before NumPy
    is imported.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["XDG_CACHE_HOME"] = os.path.join(run_dir, "xdg")
    os.environ["REPRO_AUTOTUNE_CACHE"] = os.path.join(run_dir, "autotune.json")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), BENCH_DIR]
    )
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]


PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_S = 5.0


def adopt_descendants() -> None:
    """Make this process the reaper of every process it starts, at any depth.

    A process a child starts (the shards' own multiprocessing helpers)
    is handed to this process, not to init, when its parent ends first,
    so :func:`stop_descendants` can wait for it too.  Acts on this
    process only; where ``prctl`` is missing, direct children are still
    stopped.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)
    except (OSError, AttributeError):
        pass


def stop_descendants() -> None:
    """Stop every process this run started and wait until each has ended.

    The program's process pools start the multiprocessing resource
    tracker, which would otherwise outlive this process by a moment.  It
    is stopped the way multiprocessing stops it; anything else still
    running gets SIGTERM, then SIGKILL after ``REAP_GRACE_S``, and is
    reaped; after twice that the hook gives up rather than hang the
    exit.  Registered with ``atexit`` before the program is imported,
    so it runs after the program's own exit hooks (which may touch
    shared memory and so restart the tracker).
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:
        pass
    deadline = time.monotonic() + REAP_GRACE_S
    sig = signal.SIGTERM
    while time.monotonic() < deadline + REAP_GRACE_S:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        for child in child_pids():
            try:
                os.kill(child, sig)
            except ProcessLookupError:
                pass
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        time.sleep(0.02)


def child_pids():
    """Pids of this process's live children, read from ``/proc``."""
    me, found = str(os.getpid()), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str):
    return importlib.import_module(name)


def set_up(module, seed, repro, run_dir, small=False, gauge=None,
           repeats=SETUP_REPEATS):
    """``(workload, (set_up_s, warm_up_s))``: set up, keep the last.

    Sets up ``repeats`` times (once if ``small``).  Set-up builds the
    inputs and their reference answers, starts any shard processes and
    touches every backend once; its time is the median over the repeats,
    in wall seconds.  The kept workload then runs one untimed warm-up
    pass, so lazy imports, pool start-up and the program's own
    first-call work finish before timing.  That pass counts once, as the
    sum of its calls' reference-speed times (as in a timed pass, the
    benchmark's checks between calls are left out), so the caller scales
    only the wall-second part.
    """
    import harness

    gauge = gauge or harness.SpeedGauge()
    durations, workload = [], None
    for attempt in range(1 if small else repeats):
        if workload is not None:
            workload.teardown()
        gauge.tick()
        start = harness.now()
        workload = module.Workload(seed, repro, run_dir, small=small)
        workload.setup()
        durations.append(harness.now() - start)
    if small:
        return workload, (harness.median(durations), 0.0)
    start = harness.now()
    warm_log = workload.timed(0.0, harness.Tracer(False))
    warm_up = warm_log.pass_times[0]
    print(f"set-up: median of {len(durations)} "
          f"{harness.median(durations):.3f} s wall "
          f"({', '.join(f'{d:.3f}' for d in durations)}), warm-up pass "
          f"{warm_up:.3f} s at reference speed "
          f"({harness.now() - start:.3f} s wall with checks)")
    return workload, (harness.median(durations), warm_up)


def end_to_end(result, setup_s: float) -> dict:
    metrics = dict(result.latency)
    metrics["throughput_ops_s"] = result.throughput
    metrics["twoq_gates_out"] = float(result.twoq)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = result.peak_rss_mb
    return {name: metrics[name] for name, _ in END_TO_END}


def print_summary(workload: str, seed: int, result, e2e: dict) -> None:
    import harness

    print(f"workload {workload}  seed {seed}  passes {result.passes}  "
          f"attempted {result.attempted}  failed {result.failed}")
    raw = result.raw_latency
    print(f"  {'metric':22s} {'reported':>14s} {'wall clock':>12s}")
    for name, unit in END_TO_END:
        wall = f"{raw[name]:12.4f}" if name in raw else f"{'':12s}"
        print(f"  {name:22s} {e2e[name]:14.4f} {wall}  {unit}")
    print(f"  tail = p{result.latency['tail_percentile']:.1f} of "
          f"{result.latency['tail_samples']} samples")
    print(f"  calibration loop median "
          f"{harness.median(result.gauge.samples) * 1e3:.3f} ms "
          f"(reference {harness.CALIBRATION_REF_S * 1e3:.3f} ms)")
    per_op = sorted(
        ((harness.median(ts), name) for name, ts in result.times.items() if ts),
        reverse=True,
    )
    print("  slowest operations (median ms at reference speed):")
    for seconds, name in per_op[:8]:
        print(f"    {seconds * 1e3:10.2f}  {name}")
    for op, why in sorted(result.failures.items()):
        print(f"  FAILED {op}: {why}")


def traced_run(args, module, workload, repro, run_dir, setup_s):
    """Untraced then traced timed phases, layer probes, per-layer metrics.

    The traced phase runs on a workload set up afresh, so it starts from
    the same state as the untraced one (empty shard caches included).
    Returns ``(correct, attempted, failed, metrics)``.
    """
    import harness
    import layers

    plain = workload.timed(args.seconds, harness.Tracer(False))
    workload.teardown()
    workload, _ = set_up(module, args.seed, repro, run_dir, repeats=1)
    try:
        tracer = harness.Tracer(True)
        with layers.patched(workload.hooks(tracer)):
            traced = workload.timed(args.seconds, tracer)
        metrics, notes = workload.layer_metrics(tracer, traced)
    finally:
        workload.teardown()
    # Layers this workload does not exercise come from a small probe of
    # the workload that does, so every run reports every layer.
    for other in WORKLOADS:
        probe_module = load_workload(other)
        if probe_module.Workload.layers == module.Workload.layers:
            continue
        probe, _ = set_up(probe_module, args.seed, repro, run_dir, small=True)
        try:
            probe_tracer = harness.Tracer(True)
            with layers.patched(probe.hooks(probe_tracer)):
                probe_log = probe.timed(0.0, probe_tracer)
            probe_metrics, _ = probe.layer_metrics(probe_tracer, probe_log)
        finally:
            probe.teardown()
        for name, value in probe_metrics.items():
            metrics.setdefault(name, value)

    plain_e2e = end_to_end(plain, setup_s)
    traced_e2e = end_to_end(traced, setup_s)
    print(f"traced run: {args.workload} seed {args.seed}")
    print(f"  {'end-to-end':22s} {'untraced':>12s} {'traced':>12s} {'cost':>8s}")
    for name, unit in END_TO_END:
        a, b = plain_e2e[name], traced_e2e[name]
        cost = (b / a - 1) * 100 if a else 0.0
        print(f"  {name:22s} {a:12.4f} {b:12.4f} {cost:7.1f}%  {unit}")
    print("  layer self time (ms per pass of the traced phase):")
    for name, total in sorted(
        tracer.self_times().items(), key=lambda item: -item[1]
    ):
        print(f"    {name:28s} {total / max(traced.passes, 1) * 1e3:10.2f}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    tracer.dump(os.path.join(
        os.path.dirname(run_dir), f"spans-{args.workload}-{args.seed}.json"
    ))
    missing = [n for n, _, _ in layers.PER_LAYER if n not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    ok = plain.correct and traced.correct
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    out = {
        name: {"value": float(metrics[name]), "unit": unit}
        for name, unit, _ in layers.PER_LAYER
    }
    return ok, attempted, failed, out


def main(argv=None) -> int:
    args = parse_args(argv)
    adopt_descendants()
    atexit.register(stop_descendants)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("designbench: no program source under src/repro", file=sys.stderr)
        return 2
    run_dir = os.path.join(
        ROOT, ".designbench_run", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    isolate(run_dir)
    try:
        import harness
        import reference
        import repro

        reference.self_test()
        module = load_workload(args.workload)
        imports_s = harness.now() - PROCESS_START
        gauge = harness.SpeedGauge()
        workload, (setup_wall, warm_up) = set_up(
            module, args.seed, repro, run_dir, gauge=gauge
        )
        for _ in range(harness.CALIBRATION_WINDOW):
            gauge.tick()
        setup_s = (imports_s + setup_wall) * gauge.scale() + warm_up
        print(f"imports and self-test: {imports_s:.3f} s wall; "
              f"set-up scale {gauge.scale():.3f}")
        try:
            if args.trace:
                ok, attempted, failed, metrics = traced_run(
                    args, module, workload, repro, run_dir, setup_s
                )
            else:
                result = workload.timed(args.seconds, harness.Tracer(False))
                e2e = end_to_end(result, setup_s)
                print_summary(args.workload, args.seed, result, e2e)
                ok, attempted, failed = (
                    result.correct, result.attempted, result.failed
                )
                units = dict(END_TO_END)
                metrics = {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in e2e.items()
                }
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": bool(ok),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
