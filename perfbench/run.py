"""Benchmark of the oucap package: one workload per fresh process.

    python3 perfbench/run.py --workload routes_sweep --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): cli_cold,
routes_sweep, mc_wide, mc_long, or `all` for the four in turn.  With
`--trace 0` the last line of standard output is a JSON object holding every
end-to-end metric of BENCHMARK.json; with `--trace 1`, every per-layer metric
instead.  The lines before it give each workload's own named metrics, the
environment and any failed checks.  The exit code is non-zero when an output
check failed or the package source is missing.

The package is imported from `src/` of this checkout.  Each workload process
gets an environment without OUCAP_BACKEND and OUCAP_THREADS, so library
defaults apply, and a bytecode cache under `.bench_build/`, filled by one
untimed warm-up process before anything is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cli_cold", "routes_sweep", "mc_wide", "mc_long")
SETUP_SAMPLES = 5          # set-up time is the median of this many processes
SETUP_MARGIN_S = 150.0     # main process: set-up and the last whole cycle past --seconds


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OUCAP_BACKEND", "OUCAP_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def spawn(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; kill the whole group on timeout."""
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out after {timeout:.0f}s: {' '.join(cmd[1:4])}")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode} from {' '.join(cmd[1:4])}:\n{err[-2000:]}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def worker(args, name: str, timeout: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    cmd += ["--spawned-at", repr(time.monotonic())]
    return json.loads(spawn(cmd, timeout).stdout.strip().splitlines()[-1])


def scipy_import_s() -> float:
    """Total self time of scipy modules in `python -X importtime -c 'import oucap'`."""
    err = spawn([sys.executable, "-X", "importtime", "-c", "import oucap"], 60.0).stderr
    total_us = 0
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            name = parts[2].strip()
            if (name == "scipy" or name.startswith("scipy.")) and parts[0].split()[-1].isdigit():
                total_us += int(parts[0].split()[-1])
    return total_us / 1e6


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_workload(args, name: str, spec: dict) -> dict:
    load_start = loadavg()
    # untimed: compiles bytecode into the cache and warms the file cache
    worker(args, name, 600.0, "--setup-only")
    samples = [worker(args, name, 60.0, "--setup-only")
               for _ in range(0 if args.tiny else SETUP_SAMPLES - 1)]
    main = worker(args, name, args.seconds + SETUP_MARGIN_S)
    samples.append(main)
    computed = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        **main["metrics"],
    }
    if args.trace:
        computed.update(main["layers"])
        computed["oucap.import_s"] = statistics.median(s["import_s"] for s in samples)
        computed["oucap.modules_loaded"] = main["modules_loaded"]
        computed["oucap.scipy_import_s"] = scipy_import_s()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "workload": name,
        "correct": main["failed"] == 0 and main["attempted"] > 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "named": main["named"],
        "setup_samples_s": [s["setup_s"] for s in samples],
        "raw_setup_samples_s": [s["raw_setup_s"] for s in samples],
        "problems": main["problems"],
        "hashes": main["hashes"],
        "environment": {**main["environment"], "loadavg_start": load_start,
                        "loadavg_end": loadavg()},
        "trace_file": main.get("trace_file"),
    }


def describe(res: dict) -> str:
    def line(name, m):
        v = m["value"]
        extra = {k: x for k, x in m.items() if k not in ("value", "unit")}
        return (f"  {name:34s} {'absent' if v is None else f'{v:.6g}'} {m['unit']}"
                + (f"  {json.dumps(extra)}" if extra else ""))

    lines = [f"== {res['workload']}: attempted {res['attempted']}, failed {res['failed']}"]
    lines += [line(name, m) for name, m in res["metrics"].items()]
    lines.append("  -- the workload's own metrics (no bound) --")
    lines += [line(name, m) for name, m in res["named"].items()]
    lines.append("  environment: " + json.dumps(res["environment"]))
    lines += [f"  FAILED {p}" for p in res["problems"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes, one set-up sample")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb the first checked output, which must then fail (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "oucap" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'oucap'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    BUILD.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(args, name, spec)
            print(describe(res), flush=True)
            record = BUILD / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(res, indent=1))
            results.append(res)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
