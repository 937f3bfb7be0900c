"""Provenance and host-noise diagnostics for every benchmark report.

A timing is only comparable with another taken on the same code and a
host under similar load, so every report records which code ran (git
SHA when the checkout is a repository, and a content hash of ``src/``
that works when it is not), which interpreter, how many CPUs the
process may use, and how busy the host was: the 1-minute load average
before and after, and the ``/proc/stat`` steal ticks spent while the
run measured. A noisy-host run is then visible in the report instead
of showing up as an unexplained regression.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional


def allowed_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def check_workers(count: int) -> None:
    """Refuse to run ``count`` concurrent worker processes if the
    affinity mask has fewer CPUs: oversubscribed workers time the
    scheduler, not the program."""
    cpus = allowed_cpus()
    if count > cpus:
        raise RuntimeError(
            f"refusing to start {count} worker processes: the CPU "
            f"affinity allows {cpus}"
        )


def steal_ticks() -> Optional[int]:
    """Cumulative steal ticks of all CPUs, or None where unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def load_average() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_hash(src: Path) -> str:
    """SHA-256 over the relative paths and bytes of the program source.

    Covers the ``.py`` and ``.yaml`` files under ``src/`` (bytecode
    caches and build metadata excluded), so two checkouts of the same
    commit hash alike even when neither is a git repository.
    """
    digest = hashlib.sha256()
    files = sorted(
        path
        for pattern in ("*.py", "*.yaml")
        for path in src.rglob(pattern)
        if "__pycache__" not in path.parts
    )
    for path in files:
        digest.update(path.relative_to(src).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class NoiseProbe:
    """Load and steal readings taken around the measured part of a run."""

    def __init__(self) -> None:
        self.load_before = load_average()
        self.steal_before = steal_ticks()

    def finish(self) -> Dict[str, Any]:
        steal_after = steal_ticks()
        steal = (
            steal_after - self.steal_before
            if steal_after is not None and self.steal_before is not None
            else None
        )
        return {
            "loadavg_1m_before": self.load_before,
            "loadavg_1m_after": load_average(),
            "steal_ticks": steal,
        }


def provenance(root: Path) -> Dict[str, Any]:
    """The code and host facts every report starts from."""
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_hash(root / "src"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": allowed_cpus(),
    }
