"""Provenance for each result file: machine, toolchain and thread counts."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = (_read(os.path.join(index, "level")) or "").strip()
        size = (_read(os.path.join(index, "size")) or "").strip()
        kind = (_read(os.path.join(index, "type")) or "").strip()
        if level in ("2", "3") and kind in ("Unified", ""):
            out[f"L{level}"] = size
    return out


def blas_info() -> dict:
    """BLAS name/version from NumPy's build config and the thread count in effect."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, AttributeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                info["threads"] = int(getattr(lib, fn)())
                break
    return info


def git_commit(root: str) -> str:
    """The checkout's commit when it is a git repository, else 'unknown'."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def provenance(root: str, seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "searchphase_threads": os.environ.get("SEARCHPHASE_THREADS"),
        "platform": platform.platform(),
        "workload_seed": seed,
        "git_commit": git_commit(root),
    }
