"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload, a traced run must pass its checks and emit every
per-layer metric of BENCHMARK.json with its unit, and a run whose first
checked output is deliberately corrupted must still emit every end-to-end
metric, count that operation as failed and exit non-zero.  Last, the
benchmark must refuse, without printing a result, to run from a copy that
holds only BENCHMARK.json and the benchmark's own directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_cold", "routes_sweep", "mc_wide", "mc_long")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def metric_problems(result: dict, listed: list[dict]) -> list[str]:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    got = result["metrics"]
    if list(got) != [m["name"] for m in listed]:
        out.append(f"metric names {sorted(set(got) ^ {m['name'] for m in listed})} differ")
    for m in listed:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"]:
            out.append(f"{m['name']}: unit {entry.get('unit')!r} != {m['unit']!r}")
        value = entry.get("value")
        # the filter-kernel metrics may be absent once the package drops it
        absent_ok = value is None and m["name"].startswith("backends.")
        if not (absent_ok or isinstance(value, (int, float)) and value == value):
            out.append(f"{m['name']}: value {value!r}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        code, result, text = bench("--workload", name, "--trace", "1")
        if code != 0 or result is None or not result["correct"]:
            problems.append(f"{name} traced: exit {code}\n{text[-1500:]}")
        else:
            problems += [f"{name} traced: {p}" for p in metric_problems(result, spec["per_layer"])]
        code, result, text = bench("--workload", name, "--trace", "0", "--corrupt")
        if result is None:
            problems.append(f"{name} corrupted: no result\n{text[-1500:]}")
        else:
            problems += [f"{name} corrupted: {p}" for p in metric_problems(result, spec["end_to_end"])]
            if code == 0 or result["correct"] or result["failed"] < 1:
                problems.append(f"{name} corrupted: exit {code}, failed {result['failed']}")
        print(f"{name}: {'ok' if not problems else 'FAILED'}", flush=True)

    bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    code, result, _ = bench("--workload", "routes_sweep", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"bare copy: exit {code}, result {result}")
    print(f"bare copy: exit {code}")

    for p in problems:
        print("FAILED", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
