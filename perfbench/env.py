"""Where the program is, how its process is pinned, and where a result came from."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# Threads were measured as a net slowdown on a 2-core host; BLAS and the
# runner's thread pool stay single-threaded so runs repeat.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNSET = ("VOLFORGE_THREADS",)


def program_present() -> bool:
    return (SRC / "volforge" / "__init__.py").is_file()


def pin():
    """Pin the environment (before numpy loads) and put the program on the path."""
    os.environ.update(PINNED)
    for name in UNSET:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """The pinned environment for a child interpreter that imports the program."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    import numpy
    import scipy
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _src_digest(),
        "env": {name: os.environ.get(name) for name in (*PINNED, *UNSET)},
    }
