"""Which machine produced a result: cores, BLAS, versions, commit."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys


def _blas_config() -> tuple[str, str]:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown", "unknown"
    return str(deps.get("name", "unknown")), str(deps.get("version", "unknown"))


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or ``None`` if unreachable.

    numpy wheels ship ``libscipy_openblas64_`` beside the package; its
    ``scipy_openblas_get_num_threads64_`` export answers directly, so no
    threadpoolctl is needed.  Loading the already-mapped library returns
    the same handle numpy uses.
    """
    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            fn = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def git_commit(root: str) -> str:
    """HEAD of the checkout at ``root``, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(root: str) -> dict:
    import numpy as np

    vendor, version = _blas_config()
    return {
        "nproc": os.cpu_count(),
        "blas": vendor,
        "blas_version": version,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "executable": os.path.basename(sys.executable),
        "commit": git_commit(root),
    }
