"""Run one benchmark workload and print its metrics; see README.md.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_edge --seed 1 --seconds 30 \\
        --trace 0 [--out result.json]
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.  ``--workload all`` runs
each workload in a fresh interpreter, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_edge", "serve_paper", "train_pipeline")
#: Native thread pools are held to one thread unless the caller sets
#: these: on two cores the generator, the batch worker and two BLAS
#: threads oversubscribe the CPUs, and serve_paper throughput then
#: varied by 30% between runs instead of 3%.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS")
THREAD_VARIABLES = PINNED_THREADS + ("VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS", "PYTHONHASHSEED")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full result (and spans) here")
    return parser.parse_args(argv)


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files (works without git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    """Where and on what a result was measured.

    ``compare.py`` refuses to compare results whose ``host`` part
    differs; ``code`` and ``seed`` are expected to differ.
    """
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {name: os.environ.get(name)
                        for name in THREAD_VARIABLES},
        },
        "code": {"git_commit": git_commit(), "source_sha256": source_digest()},
        "seed": seed,
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so no run inherits another's
    warmed allocator."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0,
                           "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out.with_name(
                f"{args.out.stem}.{workload}{args.out.suffix}"))]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if not lines:
            status = status or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        # Never fall back to an installed copy: the benchmark measures
        # the checkout it sits in.
        sys.exit(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from "
                 "a full checkout")
    for name in PINNED_THREADS:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    run = workloads.train if args.workload == "train_pipeline" \
        else workloads.serve
    started = time.perf_counter()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    wall = time.perf_counter() - started

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    values = {name: report.metrics.get(name, 0.0) if args.trace
              else report.metrics[name] for name in units}
    report.check("metrics.finite",
                 all(math.isfinite(value) for value in values.values()),
                 not_finite=[name for name, value in values.items()
                             if not math.isfinite(value)])
    metrics = {name: {"value": float(value) if math.isfinite(value) else -1.0,
                      "unit": units[name]} for name, value in values.items()}
    result = {"correct": report.correct, "attempted": max(1, report.attempted),
              "failed": report.failed, "metrics": metrics}

    stamp = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  wall {wall:.1f}s")
    print("environment " + json.dumps(stamp))
    print(f"{'phase':<22}{'sent':>9}{'succeeded':>11}{'failed':>8}"
          f"{'rejected':>10}")
    for name, phase in report.phases.items():
        print(f"{name:<22}{phase['sent']:>9}{phase['succeeded']:>11}"
              f"{phase['failed']:>8}{phase['rejected']:>10}")
    for name, metric in metrics.items():
        print(f"{name:<32}{metric['value']:>16.6g} {metric['unit']}")
    for name, check in report.checks.items():
        print(f"check {name}: {'ok' if check['ok'] else 'FAILED'}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        payload = {"environment": stamp,
                   "workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "wall_s": wall, "result": result,
                   "phases": report.phases, "checks": report.checks,
                   "details": report.details, "spans": report.spans}
        args.out.write_text(json.dumps(payload, default=_plain) + "\n")
    print(json.dumps(result))
    return 0 if report.correct else 1


def _plain(value):
    """JSON fallback for NumPy scalars and arrays in the details."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__}")


if __name__ == "__main__":
    sys.exit(main())
