"""One benchmark operation, run in a fresh process by ``run.py``.

    python3 perfbench/child.py --dir OPDIR [--subcommand analyze --workload NAME]
                               [--spans FILE] [--import-only]

The parent writes ``OPDIR/config.json`` and sets PYTHONPATH and the thread
limits in the environment.  The child records when ``fellerkit.cli`` has
finished importing, runs ``fellerkit.cli.main`` on the config (optionally
under the span tracer), records its own CPU time and peak RSS at that
point, then checks the outputs and writes ``OPDIR/result.json``.  The checks
run after the resource snapshot, so they do not count in cpu_s or
peak_rss_mb.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself;
    None when no OpenBLAS is mapped into the process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def toolchain() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import threadpoolctl  # noqa: F401

        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "blas_threads_in_effect": _blas_threads(),
        "threadpoolctl": has_threadpoolctl,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--subcommand")
    parser.add_argument("--workload")
    parser.add_argument("--spans")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    import fellerkit.cli

    result = {"imported_at": time.perf_counter()}
    op_dir = Path(args.dir)
    if args.import_only:
        result["toolchain"] = toolchain()
        (op_dir / "result.json").write_text(json.dumps(result))
        return 0

    config = op_dir / "config.json"
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.install(run_id=f"{op_dir.parent.name}/{op_dir.name}")
    argv = [args.subcommand, "--config", str(config), "--out", str(op_dir / "out")]
    start = time.perf_counter()
    result["cli_exit"] = fellerkit.cli.main(argv)
    result["wall_s"] = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB

    import oracles

    if result["cli_exit"] == 0:
        cfg = json.loads(config.read_text())
        failures, digests, detail = oracles.check(args.workload, cfg, op_dir / "out")
    else:
        failures, digests, detail = [f"fellerkit exited {result['cli_exit']}"], {}, {}
    result.update(failures=failures, digests=digests, detail=detail)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(args.spans)
    (op_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
