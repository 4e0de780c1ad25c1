#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the collidesim pipeline.

    python3 perfbench/run.py --workload monte-carlo --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload analytic-exact --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the root of a source checkout: the package is imported from ./src.
One process, one caller, workers=1, BLAS pinned to one thread. After set-up
(imports, problem build, one warm-up iteration) the workload's bundle runs in
a closed loop for --seconds. --trace 0 reports the end-to-end metrics;
--trace 1 alternates traced and untraced iterations, reports the per-layer
metrics of the traced ones and the tracing overhead, then sweeps the kernels.
Every metric is printed as `metric <name> <value> <unit>`, the machine and
inputs as a `record` JSON line, and the last line is the result JSON.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 3
BUILD_SAMPLES = 3

# Gated end-to-end metrics: printed by every workload (BENCHMARK.json end_to_end).
END_TO_END = (("iter_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
WORKLOAD_NAMES = ("monte-carlo", "analytic-exact")


def import_package():
    """Import collidesim from ./src with BLAS pinned; (module, import seconds)."""
    if not os.path.isfile(os.path.join(SRC, "collidesim", "__init__.py")):
        raise SystemExit(f"perfbench: no collidesim sources under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    start = time.perf_counter()
    import collidesim

    seconds = time.perf_counter() - start
    if not os.path.abspath(collidesim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: collidesim imported from {collidesim.__file__}, not {SRC}")
    return collidesim, seconds


def import_seconds_fresh():
    """Import time of the package in a fresh interpreter (same environment)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import collidesim; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, SRC], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(cs):
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "kernels": cs.active_kernels,
        "collidesim_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("COLLIDESIM_")},
        "commit": git_commit(),
        "workers": 1,
    }


def run_iteration(wl, index, tracer=None):
    """Run one bundle (traced when a tracer is given), then check it untimed."""
    from workloads import Iteration

    it = Iteration(index, traced=tracer is not None)
    start = time.perf_counter()
    try:
        if tracer is None:
            wl.iterate(it, index)
        else:
            with tracer:
                wl.iterate(it, index)
    except Exception as exc:  # a failed call is counted, and the run goes on
        it.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    it.seconds = time.perf_counter() - start
    try:
        wl.check(it)
    except Exception as exc:
        it.error = it.error or f"check raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return it


def closed_loop(wl, seconds, trace, first_guess):
    """Iterations until --seconds is spent; one predicted to end after it is not
    started. With tracing, odd iterations are traced and at least one of each
    kind runs."""
    from tracer import Tracer

    iterations, layer = [], []
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        done = [it.seconds for it in iterations] or [first_guess]
        kinds = {it.traced for it in iterations}
        enough = len(kinds) == 2 if trace else bool(iterations)
        if enough and time.perf_counter() + statistics.median(done) > deadline:
            break
        tracer = Tracer() if trace and index % 2 == 1 else None
        iterations.append(run_iteration(wl, index, tracer))
        if tracer is not None:
            if tracer.missing:
                print(f"note: not traced, attribute missing: {', '.join(tracer.missing)}")
            layer.append(tracer.metrics())
        index += 1
    return iterations, layer


def highest_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(workload, seed, seconds, trace, scale="full"):
    """Set up and run one workload; returns the full result record."""
    cs, first_import = import_package()
    from kernel_sweep import DIMS, sweep, sweep_metric_names
    from tracer import LAYER_METRICS, combine
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](cs, seed, scale)
    imports = [first_import] + [import_seconds_fresh() for _ in range(IMPORT_SAMPLES - 1)]
    builds = []
    for _ in range(BUILD_SAMPLES):
        start = time.perf_counter()
        wl.build()
        builds.append(time.perf_counter() - start)
    wl.reference()
    warm = run_iteration(wl, 0)
    setup_s = statistics.median(imports) + statistics.median(builds) + warm.seconds

    iterations, layer = closed_loop(wl, seconds, trace, warm.seconds)
    untraced = [it for it in iterations if not it.traced]
    checked = [warm] + iterations
    attempted = sum(it.attempted for it in checked)
    failed = sum(it.failed for it in checked)
    iter_times = [it.seconds for it in untraced]
    metrics = {
        "iter_s": (statistics.median(iter_times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    for name, value, unit in wl.extra_metrics(untraced):
        metrics[name] = (value, unit)
    layer_metrics = {}
    if trace:
        units = dict(LAYER_METRICS)
        layer_metrics = {name: (value, units[name]) for name, value in combine(layer).items()}
        traced_times = [it.seconds for it in iterations if it.traced]
        layer_metrics["trace.overhead_s"] = (statistics.median(traced_times) - statistics.median(iter_times), "s")
        dims = DIMS if scale == "full" else DIMS[:2]
        rows = sweep(cs._kernels, dims)
        for name, (kernel, d, us, moved, flops) in zip(sweep_metric_names(dims), rows):
            layer_metrics[name] = (us, "us")
    return {
        "workload": workload,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "machine": machine_info(cs),
        "inputs": wl.inputs(),
        "setup": {"import_s": imports, "build_s": builds, "warmup_s": warm.seconds},
        "iter_samples_s": iter_times,
        "iter_highest_percentile": highest_percentile(iter_times),
        "attempted": attempted,
        "failed": failed,
        "failures": [
            f"iteration {it.index}: {msg}"
            for it in checked
            for msg in ([it.error] if it.error else []) + [f for c in it.calls for f in c.failures]
        ],
        "metrics": metrics,
        "layer_metrics": layer_metrics,
        "sweep": rows if trace else [],
    }


def report(result):
    """Print every metric with its unit, the record line and the result JSON."""
    print(f"# perfbench {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']} scale={result['scale']}")
    print(f"# why: {result['why']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    samples = result["iter_samples_s"]
    pct = result["iter_highest_percentile"]
    tail = "none (fewer than 11 samples)" if pct is None else f"p{pct[0]:.1f} = {pct[1]!r} s"
    print(f"# iter_s over n={len(samples)} iterations; highest percentile with >=10 samples beyond: {tail}")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value!r} {unit}")
    for name, (value, unit) in result["layer_metrics"].items():
        print(f"metric {name} {value!r} {unit}")
    for kernel, d, us, moved, flops in result["sweep"]:
        print(f"# sweep {kernel} d={d}: {us:.3f} us/call, {moved} computed bytes, {flops} flops")
    record = {k: result[k] for k in ("workload", "seed", "seconds", "trace", "scale", "machine", "inputs", "setup")}
    record["iter_samples_s"] = samples
    record["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()}
    print("record " + json.dumps(record, sort_keys=True))
    chosen = result["layer_metrics"] if result["trace"] else {n: result["metrics"][n] for n, _ in END_TO_END}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    }))


def run_all(args):
    """Each workload in a fresh interpreter, one after another, then one summary
    line whose metric names are prefixed with the workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            raise SystemExit(f"perfbench: {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}/{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or both one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: every workload at its smallest size, for the harness test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
