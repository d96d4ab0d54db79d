"""bnnkit benchmark: training and deployment throughput, with per-layer traces.

Run from the root of a checkout (nothing to build; the package is imported
from ``src``):

    python3 perfbench/run.py --workload lenet-train --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes every span to ``.bench_out/``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads, metrics and the
known defect are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))


def _cap_blas_threads():
    """BLAS may use at most one thread per CPU this process may run on.
    Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, NPROC))
        except ValueError:
            want = NPROC
        os.environ[var] = str(max(1, min(want, NPROC)))


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(np):
    """Threads the loaded OpenBLAS will use, asked from the library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_model": _cpu_model(),
        "nproc": NPROC,
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(np),
        "hw_popcount": hasattr(np, "bitwise_count"),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def _declared_metrics(mode_key):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[mode_key]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "bnn" / "__init__.py").is_file():
        print(f"perfbench: no bnn package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(np)
    traced = bool(args.trace)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        traced, workdir)
    metrics = {}
    try:
        run.run()
        metrics = run.per_layer() if traced else run.end_to_end()
    except workloads.GateFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
    except Exception:  # the program under test failed: report it, do not crash
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = _declared_metrics("per_layer" if traced else "end_to_end")
    if metrics and {k: u for k, (_, u) in metrics.items()} != declared:
        print("perfbench: reported metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    if traced and metrics:
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        run.write_spans(spans_path, env)
        print(f"spans written to {spans_path}")
    print(f"reps untraced={len(run.rates[False])} traced={len(run.rates[True])} "
          f"img/s untraced={[round(r, 2) for r in run.rates[False]]} "
          f"setup_s={[round(s, 3) for s in run.setup_s]}")
    correct = bool(metrics) and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
