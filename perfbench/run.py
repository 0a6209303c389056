"""Run one workload of the biomm benchmark.

    python3 perfbench/run.py --workload identify-c20 --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: biomm is imported from ./src of
the current directory, never from anywhere else. With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. The line before
it records the environment and the sample counts. Both also go to
.perfbench_out/<workload>_seed<seed>_trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# One caller thread drives biomm; BLAS gets one thread too (never more than
# nproc), which keeps run-to-run spread low on a small shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(root: Path, args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    root = Path.cwd().resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import biomm
    except ImportError as exc:
        print(f"cannot import biomm from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(biomm.__file__).resolve().parents:
        print(f"biomm was imported from {biomm.__file__}, not from {src}", file=sys.stderr)
        return 2

    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    out_dir = root / ".perfbench_out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    details = result.pop("details")
    record = {"environment": _environment(root, args), **details}
    out_file = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps({**record, **result}, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "trace"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
