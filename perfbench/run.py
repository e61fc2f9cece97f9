"""affectline benchmark entry point.

    python3 perfbench/run.py --workload extract|train|classify --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout: the program is imported from
``src/`` there, and the run exits with code 2 if it is missing. Inputs
are generated from ``--seed`` into a private work dir under
``.perfbench_work/``, which is removed at the end.

Each run sets the workload up three times (median set-up time), then
repeats measured passes for ``--seconds`` (at least three). With
``--trace 0`` it reports the end-to-end metrics as pass medians. With
``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the traced ones plus the tracing overhead, and
writes the spans to ``.perfbench_work/traces/``. The last stdout line is
the JSON result; the lines before it name the environment, the digests
and the per-workload metrics under their own names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
MIN_PASSES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; numpy must not be loaded yet."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = cores
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(np, blas_threads: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("extract", "train", "classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up and one pass per kind (schema test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "affectline" / "__init__.py").is_file():
        print(f"perfbench: no affectline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import reference
    import tracing
    import workloads

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = tracing.Tracer()
    try:
        cls = workloads.WORKLOADS[args.workload]
        setups = 1 if args.smoke else SETUPS
        setup_s = []
        for k in range(setups):
            wl = cls(work / f"setup{k}", args.seed, args.smoke, tracer)
            if args.trace:
                tracer.install("setup")
            try:
                t0 = time.perf_counter()
                wl.setup()
                setup_s.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            if k < setups - 1:
                shutil.rmtree(wl.work)
        ref = reference.Reference()
        ref.times()
        untraced, traced_walls, passes, ref_s = [], [], [], []
        min_passes = (1 if args.smoke else MIN_PASSES) * (2 if args.trace else 1)
        start = time.perf_counter()
        i = 0
        while i < min_passes or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and i % 2 == 1
            if traced:
                tracer.install(f"pass{i}")
            try:
                p, wall, r = ref.around(wl.run_pass, i)
            finally:
                tracer.uninstall()
            (traced_walls if traced else untraced).append(wall)
            if not traced:
                passes.append(p)
                ref_s.append(statistics.median(r))
            i += 1
        outcome = wl.outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": environment(np, blas_threads)}))
    print(json.dumps({"digests": outcome.digests}))
    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(untraced) - 1.0
        metrics = tracing.layer_metrics(tracer, overhead)
        units = {name: tracing.unit_of(name) for name in metrics}
        trace_dir = work_root / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        for name, (_, unit) in passes[0].named.items():
            value = statistics.median(p.named[name][0] for p in passes)
            print(f"{args.workload}: {name} = {value:.6g} {unit}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "main_items_per_ref": statistics.median(p.main * r for p, r in zip(passes, ref_s)),
            "second_items_per_ref": statistics.median(
                p.second * r for p, r in zip(passes, ref_s)),
            "quality_share": statistics.median(p.quality for p in passes),
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "main_items_per_ref": "items/ref",
                 "second_items_per_ref": "items/ref", "quality_share": "share"}
        print(f"{args.workload}: passes = {len(passes)}, reference_ms p50 = "
              f"{statistics.median(ref_s) * 1e3:.4f}, setup_s values = "
              + ", ".join(f"{s:.4f}" for s in setup_s))
    print(f"{args.workload}: attempted = {outcome.attempted}, failed = {outcome.failed}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
