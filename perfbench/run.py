"""moeformer benchmark: one workload per process, one calling thread.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/`` directory and nowhere else. With ``--trace 0`` the run measures the
end-to-end metrics with tracing off, its times scaled to a reference host
speed (see ``reference.py``). With ``--trace 1`` it spends half its
time untraced and half with every public function of the measured modules
wrapped in a span, and reports the per-layer metrics; the spans are written
to ``perfbench/out/<workload>.spans.npz``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def import_program():
    """Import moeformer from this checkout's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(SOURCE))
    import moeformer

    if SOURCE not in Path(moeformer.__file__).resolve().parents:
        raise ImportError(f"moeformer imported from {moeformer.__file__}, not {SOURCE}")


def blas_threads() -> int:
    """Threads of numpy's bundled OpenBLAS (0 when it cannot be asked)."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return 0


# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def keep_freed_memory() -> bool:
    """Make glibc's malloc keep freed memory for reuse (no trimming, no
    per-array mmap) so that repeated set-ups and iterations reuse pages
    instead of faulting them in again. Without it, whether an allocation is
    served from the heap or from fresh pages depends on the allocator's
    history, and set-up time doubled between otherwise identical runs.
    Returns False where glibc's ``mallopt`` is not available."""
    if platform.libc_ver()[0] != "glibc":
        return False
    libc = ctypes.CDLL(None)
    return bool(libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
                and libc.mallopt(M_TRIM_THRESHOLD, 1 << 30))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SOURCE}: {exc}", file=sys.stderr)
        return 2
    kept_memory = keep_freed_memory()
    import numpy as np
    from report import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    spans_path = None
    if args.trace:
        spans_path = HERE / "out" / f"{args.workload}.spans.npz"
        spans_path.parent.mkdir(exist_ok=True)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={blas_threads()} cpus={os.cpu_count()} "
          f"malloc_keeps_freed={int(kept_memory)} "
          f"numpy={np.__version__} python={sys.version.split()[0]}")
    result = measure(workload, args.seconds, bool(args.trace), spans_path)
    if spans_path is not None:
        print(f"# spans written to {spans_path.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
