"""Reference outputs and the output check.

Floats must agree within ``REL_TOL`` relative (the tolerance allowed for
reordered floating-point sums); strings, booleans, None and the structure of
the output must agree exactly.  That makes selections (EWMA alpha, HAR lags,
ARIMA order, RNN window) and RV period labels exact.

Run this file to record the references from the current program:

    python3 perfbench/reference.py [workload ...]

Only do that when a workload's definition changes; a program change must
leave the committed references passing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import env
from workloads import WORKLOADS, clear

REL_TOL = 1e-10
REFS_DIR = Path(__file__).resolve().parent / "refs"


def mismatches(ref, got, path="") -> list:
    """Human-readable differences between a reference and an output."""
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None \
            or isinstance(ref, str) or isinstance(got, str):
        return [] if ref == got and type(ref) is type(got) else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if abs(got - ref) <= REL_TOL * max(abs(got), abs(ref)):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if list(ref) != list(got):
            return [f"{path}: keys {list(got)} != {list(ref)}"]
        return [m for k in ref for m in mismatches(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [m for i, (a, b) in enumerate(zip(ref, got))
                for m in mismatches(a, b, f"{path}[{i}]")]
    return [f"{path}: {type(got).__name__} != {type(ref).__name__}"]


def load(workload) -> dict:
    """{case: reference output}; refuses references of another definition."""
    data = json.loads((REFS_DIR / f"{workload.name}.json").read_text())
    if data["definition"] != json.loads(json.dumps(workload.definition)):
        raise ValueError(f"{workload.name}: references were recorded for another definition")
    return {int(case): out for case, out in data["cases"].items()}


def failed_models(got) -> list:
    return [f"{section}: failed models {got[section]['failures']}"
            for section in ("validation", "test")
            if section in got and got[section]["failures"]]


def check(ref, got) -> list:
    """Every reason the output fails: a model failed or it differs from ref."""
    return failed_models(got) + mismatches(ref, got)


def record(workload, work_dir: Path) -> dict:
    cases = {}
    for case in workload.cases:
        case_dir = work_dir / "inputs" / workload.name / str(case)
        case_dir.mkdir(parents=True, exist_ok=True)
        out_dir = work_dir / "out" / workload.name / str(case)
        clear(out_dir)
        inp = workload.setup(workload, case, case_dir)
        out = workload.output(workload.op(inp, out_dir), out_dir)
        if failed_models(out) or out.get("missing_files"):
            raise RuntimeError(f"{workload.name} case {case}: {out}")
        cases[str(case)] = out
    return {"workload": workload.name, "rel_tol": REL_TOL,
            "definition": workload.definition, "cases": cases}


def main(names) -> int:
    env.pin()
    REFS_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        data = record(WORKLOADS[name], env.WORK_DIR)
        text = json.dumps(data, indent=1, allow_nan=False)
        (REFS_DIR / f"{name}.json").write_text(text + "\n")
        print(f"recorded {len(data['cases'])} cases for {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
