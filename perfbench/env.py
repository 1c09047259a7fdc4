"""Thread pinning and the environment record printed with every run.

``pin_threads`` must run before numpy is first imported: OpenBLAS reads the
thread variables once, when it loads. On a 2-core box an unpinned B=128
forward pass is an order of magnitude slower and far noisier than a pinned
one, so unpinned figures are not comparable between runs.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _blas_version(module) -> str | None:
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=20, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def describe(root: Path) -> dict:
    """Cores, interpreter and library versions, thread pins, git state.

    ``git_sha`` and ``git_dirty`` are null when ``root`` is not the top of a
    git work tree (for example an exported copy of the sources).
    """
    import numpy
    import scipy

    sha = dirty = None
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == root.resolve():
        sha = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": sha,
        "git_dirty": dirty,
    }
