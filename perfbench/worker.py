"""One workload in one fresh process: set up, run the measured loop, report.

Started by run.py, which passes the monotonic time at which it spawned this
process so that set-up time counts interpreter start and package import.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb the first checked output (self-test)")
    return ap.parse_args(argv)


def loop(wl, runs: list, seconds: float, tracer=None) -> None:
    """Whole rounds (one cycle per run in `runs`, in turn) until `seconds`
    have passed; the tracer records only during cycles of a traced run."""
    t0 = time.perf_counter()
    while True:
        for run in runs:
            if tracer is not None:
                tracer.enabled = run.tracer is not None
            wl.cycle(run)
            run.cycle_ends.append(len(run.ops))
        if time.perf_counter() - t0 >= seconds:
            return


def speed(refs) -> float:
    """Machine speed relative to the reference speed over these reference runs."""
    from workloads import REFERENCE_UNIT_S

    return sum(u for u, _ in refs) * REFERENCE_UNIT_S / sum(t for _, t in refs)


def rate(run, at_reference_speed: bool = True) -> float:
    """Work done per second of operation time, the median over cycles so that
    a burst of machine speed or slowness within a run moves it little.  At the
    reference speed, a cycle's time is scaled by the machine speed measured
    after each of its operations."""
    rates = []
    for a, b in zip([0, *run.cycle_ends], run.cycle_ends):
        busy = sum(dt for _, dt, _ in run.ops[a:b])
        if busy:
            scale = speed(run.refs[a:b]) if at_reference_speed else 1.0
            rates.append(sum(w for _, _, w in run.ops[a:b]) / (busy * scale))
    return statistics.median(rates) if rates else float("nan")


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return {"value": None, "samples": n}
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def named(wl, run) -> dict:
    """The workload's own metrics: per-command medians and tail, per-operation rates."""
    by = defaultdict(list)
    for kind, dt, work in run.ops:
        by[kind].append((dt, work))
    busy = sum(dt for _, dt, _ in run.ops)

    def p50(kind):
        return statistics.median(dt for dt, _ in by[kind]) if by[kind] else None

    def per_s(kind):
        t = sum(dt for dt, _ in by[kind])
        return sum(w for _, w in by[kind]) / t if t else None

    out = {"failed_frac": run.failed / run.attempted if run.attempted else None,
           "raw_work_per_s": rate(run, at_reference_speed=False),
           "machine_speed": speed(run.refs) if run.refs else None}
    if wl.name == "cli_cold":
        for sub in ("capacity", "spectrum", "simulate"):
            out[f"cli_{sub}_p50_s"] = p50(f"cli.{sub}")
        out["cli_tail_s"] = tail([dt for kind, dt, _ in run.ops if kind.startswith("cli.")])
    elif wl.name == "routes_sweep":
        for key, kind in (("routes_triples_per_s", "triple"), ("spectra_per_s", "spectra"),
                          ("kernel_roundtrips_per_s", "kernel_roundtrip")):
            out[key] = len(by[kind]) / busy if busy else None
    else:
        out["trial_steps_per_s"] = per_s("run_sk_scheme")
        if wl.name == "mc_wide":
            out["decode_trial_steps_per_s"] = per_s("decode_message")
            out["noise_trial_steps_per_s"] = per_s("stationary_noise")
        else:
            out["ljung_box_p50_s"] = p50("ljung_box")

    def with_unit(name, v):
        unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "ratio"
        return {**v, "unit": unit} if isinstance(v, dict) else {"value": v, "unit": unit}

    return {k: with_unit(k, v) for k, v in out.items()}


def layer_metrics(tracer, runs: dict, filter_wrapped: bool) -> dict:
    """Per-layer numbers from the spans of the traced loop and the probe."""
    from spans import union_length

    def median(name, scale=1.0):
        v = tracer.median(name)
        return None if v is None else v * scale

    def count(key):
        own = runs["workload"].counts
        return (own if key in own else runs["probe"].counts)[key]

    def warm(sub):
        # summed over the subcommand's examples, each its own span name
        names = {s["name"] for s in tracer.spans if s["name"].startswith(f"cli.{sub}_warm.")}
        return sum(tracer.median(n) for n in names) if names else None

    selftimes = tracer.self_times()
    sims = tracer.select("simulate.run_sk_scheme")
    mc_names = ("simulate.run_sk_scheme", "simulate.decode_message", "simulate.stationary_noise")
    drawn = [s for s in tracer.spans if s["name"] in mc_names and s["end"] is not None]
    phase = "workload" if any(s["phase"] == "workload" for s in drawn) else "probe"
    normals = sum(s["normals"] for s in drawn if s["phase"] == phase)
    m = {
        "cli.capacity_warm_s": warm("capacity"),
        "cli.spectrum_warm_s": warm("spectrum"),
        "cli.simulate_warm_s": warm("simulate"),
        "capacity.closed_form_us": median("capacity.closed_form", 1e6),
        "capacity.discrete_sweep_ms": median("capacity.discrete_sweep", 1e3),
        "capacity.calls": len(tracer.select("capacity.closed_form"))
        + len(tracer.select("capacity.discrete_sweep")),
        "abel.integrate_ms": median("abel.integrate", 1e3),
        "abel.sk_rate_us": median("abel.sk_rate", 1e6),
        "abel.not_converged": count("abel.not_converged"),
        "abel.trajectory_s": median("abel.trajectory"),
        "kernels.sample_ms": median("kernels.sample", 1e3),
        "kernels.recover_h_ms": median("kernels.recover_h", 1e3),
        "kernels.residual_ms": median("kernels.residual", 1e3),
        "spectrum.flat_sweep_ms": median("spectrum.flat_sweep", 1e3),
        "spectrum.waterfill_ms": median("spectrum.waterfill", 1e3),
        "simulate.run_sk_scheme_s": median("simulate.run_sk_scheme"),
        "simulate.decode_message_s": median("simulate.decode_message"),
        "simulate.stationary_noise_s": median("simulate.stationary_noise"),
        "simulate.ljung_box_s": median("simulate.ljung_box"),
        "simulate.normals_drawn": normals,
        "simulate.bytes_drawn": 8 * normals,
        # run_sk_scheme minus its filter_batch children: draws, coefficient
        # recursion and reduction together
        "simulate.outside_filter_s": statistics.median(
            selftimes[s["id"]] for s in sims) if sims else None,
    }
    filters = tracer.select("backends.filter_batch")
    if filter_wrapped and filters:
        busy = sum(s["end"] - s["start"] for s in filters)
        wall = union_length((s["start"], s["end"]) for s in filters)
        threads = defaultdict(set)
        for s in filters:
            threads[s["parent"]].add(s["thread"])
        m.update({
            "backends.filter_batch_busy_s": busy,
            "backends.filter_batch_wall_s": wall,
            "backends.filter_batch_concurrency": busy / wall,
            "backends.filter_batch_calls": len(filters),
            "backends.threads_seen": max(len(t) for t in threads.values()),
        })
    else:
        m.update(dict.fromkeys(
            ("backends.filter_batch_busy_s", "backends.filter_batch_wall_s",
             "backends.filter_batch_concurrency", "backends.filter_batch_calls",
             "backends.threads_seen")))
    return m


def environment(oucap) -> dict:
    import numpy
    import scipy

    backends = getattr(oucap, "available_backends", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "oucap": getattr(oucap, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "available_backends": list(backends()) if backends else "absent",
        "cython": importlib.util.find_spec("Cython") is not None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    n0 = len(sys.modules)
    import oucap
    import_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - n0

    import inputs
    import spans
    import workloads

    src = (ROOT / "src").resolve()
    if src not in Path(oucap.__file__).resolve().parents:
        print(f"oucap imported from {oucap.__file__}, not from {src}", file=sys.stderr)
        return 3
    data = inputs.generate(args.workload, args.seed, args.tiny)
    hashes = workloads.HashBook()
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(data, hashes=hashes) if issubclass(cls, workloads.MonteCarlo) else cls(data)
    tracer = spans.Tracer() if args.trace else None
    wl.setup(workloads.Run(tracer))
    setup_s = time.monotonic() - args.spawned_at
    workloads.reference(0.0)   # one untimed unit pays numpy's first-call costs
    ref = workloads.reference(workloads.REFERENCE_SHARE * setup_s)
    report = {"setup_s": setup_s * speed([ref]), "raw_setup_s": setup_s, "import_s": import_s,
              "modules_loaded": modules_loaded}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if args.trace:
        # untraced and traced cycles alternate, so drift in machine speed
        # reaches both; their rates give the tracing overhead.  The probe
        # then covers the layers the workload did not call.
        plain = workloads.Run(corrupt=args.corrupt)
        traced = workloads.Run(tracer)
        undo = workloads.wrap_filter_batch(tracer)
        loop(wl, [plain, traced], args.seconds, tracer)
        tracer.enabled = True
        tracer.phase = "probe"
        probed = workloads.Run(tracer)
        workloads.probe(probed, args.seed, hashes, args.tiny)
        if undo is not None:
            undo()
        runs = {"plain": plain, "workload": traced, "probe": probed}
        report["layers"] = layer_metrics(tracer, runs, undo is not None)
        report["layers"]["trace.overhead_frac"] = rate(plain) / rate(traced) - 1.0
        BUILD.mkdir(parents=True, exist_ok=True)
        trace_file = BUILD / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.export()))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        measured = plain
    else:
        measured = workloads.Run(corrupt=args.corrupt)
        loop(wl, [measured], args.seconds)
        runs = {"workload": measured}

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    report["metrics"] = {"work_per_s": rate(measured),
                         "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    report["named"] = named(wl, measured)
    report["attempted"] = sum(r.attempted for r in runs.values())
    report["failed"] = sum(r.failed for r in runs.values())
    report["problems"] = [p for r in runs.values() for p in r.problems]
    report["hashes"] = hashes.seen
    report["environment"] = environment(oucap)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
