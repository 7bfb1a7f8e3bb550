"""The provenance block printed and stored with every result."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import scipy

from spec import REPO_ROOT


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def cache_sizes() -> Dict[str, str]:
    """Data/unified cache sizes of cpu0 as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def provenance(seed: int, seconds: float, scrubbed: List[str]) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "caches": cache_sizes(),
        "scrubbed_env": scrubbed,
    }
