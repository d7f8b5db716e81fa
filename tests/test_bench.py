"""The kernel benchmarks under ``bench/`` collect against the current package,
so that a renamed or deleted kernel fails here and not at the next bench run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_kernel_bench_collects():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", "bench"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_bindings_resolve():
    # perfbench/tracing.py imports only the standard library, so it loads by
    # path; a renamed or deleted binding fails here, not at a --trace 1 run
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [(module, attr) for module, attr, _, _ in tracing.PATCHES]
    bindings += list(tracing.SIMPLEX_BINDINGS)
    assert bindings
    missing = [f"{module}.{attr}" for module, attr in bindings
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
