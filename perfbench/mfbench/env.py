"""The environment a set of results was measured in."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
from pathlib import Path


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository.
    The search is pinned to the checkout so no parent directory is read."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_record(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
    }
