"""Run one workload of the tokendrop benchmark and print its metrics.

    python3 bench/run.py --workload train_short --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced run gives
the per-layer ones. Details go to bench/results/.
"""

import os
import sys

# Pinned before numpy loads: one BLAS thread was both faster and steadier
# than two on the 2-core machine the benchmark was defined on.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402

import numpy as np  # noqa: E402

import fixture  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = fn()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else f"{BLAS_THREADS} (requested)",
        "nproc": os.cpu_count(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import tokendrop
    except ImportError as exc:
        sys.exit(f"cannot import tokendrop from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(tokendrop.__file__)) != os.path.join(SRC, "tokendrop"):
        sys.exit(f"tokendrop was imported from {tokendrop.__file__}, not from {SRC}")

    fixture_dir = fixture.ensure(SRC, os.path.join(HERE, ".cache"))
    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        fixture_dir=fixture_dir)
    metrics = out.layers if args.trace else out.metrics
    units = declared_units("per_layer" if args.trace else "end_to_end")
    env = environment()

    tag = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"{tag}: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    n_units = len(out.unit_s[False])
    for name, value in metrics.items():
        print(f"{tag}: {name} = {value:.6g} {units.get(name, '?')}")
    print(f"{tag}: samples: {n_units} untraced steps, {len(out.setup_s)} set-ups")
    for work in sorted(out.work):
        print(f"{tag}: work per timed call: {work}")
    share = out.failed / max(out.attempted, 1)
    print(f"{tag}: failed_share = {share:.6g} ratio ({out.failed} of {out.attempted})")
    for traced in (False, True):
        for d in sorted(out.digests[traced]):
            print(f"{tag}: digest {'traced' if traced else 'untraced'} = {d}")
    for text in out.problems:
        print(f"{tag}: CHECK FAILED: {text}")

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "correct": out.correct, "attempted": out.attempted,
                   "failed": out.failed, "problems": out.problems, "metrics": metrics,
                   "digests": {str(k): sorted(v) for k, v in out.digests.items()},
                   "work": sorted(out.work),
                   "setup_s": out.setup_s, "unit_s": out.unit_s[False]}, fh, indent=1)
    if out.tracer is not None:
        out.tracer.log.write(stem + ".spans.json")

    if set(metrics) != set(units):
        sys.exit(f"{tag}: metrics {sorted(set(metrics) ^ set(units))} disagree with "
                 f"BENCHMARK.json; problems: {out.problems}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def declared_units(key):
    """Unit of each metric BENCHMARK.json lists under `key`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


if __name__ == "__main__":
    sys.exit(main())
