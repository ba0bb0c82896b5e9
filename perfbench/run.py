"""Benchmark entry point for the safestream package.

    python3 perfbench/run.py --workload ledger-growth --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. BLAS is pinned to one thread
before numpy is imported. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it is a ``{"report": ...}`` object with the provenance, every metric
named in README.md (``failed_frac`` included), sample counts, the ledger-growth
curve and, when traced, the layer table.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_blas() -> None:
    """Must run before numpy is imported: BLAS reads these once at load.
    Two OpenBLAS threads on a 2-core machine made engine rounds 1.4-2x
    slower and noisier than one."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "safestream").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def finite_or_none(value: float) -> float | None:
    """JSON has no NaN; a metric that could not be measured is null."""
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "safestream" / "__init__.py").is_file():
        print(f"no package source at {SRC}/safestream; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import safestream

    if Path(safestream.__file__).resolve().parent != SRC / "safestream":
        print(f"imported safestream from {safestream.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench
    import workloads

    if args.workload not in workloads.WHY:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WHY)}", file=sys.stderr)
        return 2

    result, report = bench.measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.toy)
    report = {**provenance(), **report}
    units = bench.PER_LAYER_UNITS if args.trace else bench.END_TO_END_UNITS
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": finite_or_none(result["metrics"][name]),
                           "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    pin_blas()
    sys.exit(main())
