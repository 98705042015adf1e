"""The four workloads: operations, their output checks, and the layer probe.

Each workload repeats a fixed cycle of operations.  Every operation is timed
as a whole, its output is checked, and (in a traced run) each public call it
makes into a layer of the package is wrapped in a span named after that
layer.  The package is reached only through `oucap.__all__`, `oucap.cli` and
the backend module that `oucap.backends.get_backend()` returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.stats import chi2

import oucap
from oucap import (
    DEFAULT_SWEEP_DELTAS,
    ChannelParams,
    NotConverged,
    SimConfig,
    abel_for_channel,
    decode_message,
    discrete_limit_capacity,
    feedback_capacity_closed_form,
    flat_input_limit_sweep,
    integrate_abel,
    ljung_box,
    ou_resolvent_kernel,
    recover_h_from_l,
    resolvent_residual,
    run_sk_scheme,
    sample_kernel,
    sk_rate_from_ode,
    stationary_arma_noise,
    waterfill_bandlimited,
)

import inputs

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "src" / "oucap" / "schemas"

# The CLI's default flat-sweep grid and water-filling bands (band 1000).
FLAT_N = (16.0, 64.0, 256.0, 1024.0)
FLAT_K = (32.0, 128.0, 512.0, 4096.0)
WATERFILL_BANDS = tuple(float(w) for w in np.geomspace(10.0, 1000.0, 9))

ODE_HORIZON = 50.0
KERNEL_RESIDUAL_BOUND = 1e-4   # criterion 7
FLAT_REL_BOUND = 0.005         # criterion 8
FAMILY_ALARM = 1e-3            # per-check false-alarm probability of a statistical check
ALARM_Z = statistics.NormalDist().inv_cdf(1.0 - FAMILY_ALARM / 2.0)


# Machine speed.  The shared machine this benchmark was built on switches
# between speeds up to 1.6x apart for seconds to minutes at a time, which no
# statistic within a 15 s run removes.  So each operation is followed by a
# fixed reference kernel that uses no package code, and the operation's time
# is scaled by how fast that kernel ran; end-to-end figures are then given at
# the reference speed, where one reference unit takes REFERENCE_UNIT_S.
REFERENCE_UNIT_S = 5e-4
REFERENCE_SHARE = 0.1          # reference time after an operation, as a share of its time
REFERENCE_MIN_S = 0.005


def _reference_unit() -> float:
    """Interpreter-bound and small-array numpy work, as in the package's own loops."""
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i) * 0.5
    a = np.arange(64.0)
    for _ in range(60):
        a = np.sin(a) * 0.5 + 1.0
    return acc + float(a[0])


def reference(seconds: float) -> tuple[int, float]:
    """Run reference units for at least `seconds`, split evenly over every
    processor this process may use, so that the speed of each one counts:
    (units run, seconds taken).  The machine's speed relative to the
    reference speed is units * REFERENCE_UNIT_S / seconds taken."""
    cpus = os.sched_getaffinity(0)
    units = 0
    elapsed = 0.0
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            while True:
                _reference_unit()
                units += 1
                if time.perf_counter() - t0 >= seconds / len(cpus):
                    break
            elapsed += time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, cpus)
    return units, elapsed


def chi2_band(dof: int, points: int = 1) -> tuple[float, float]:
    """Two-sided chi-square(dof) band that `points` statistics all meet with
    false-alarm probability at most FAMILY_ALARM (Bonferroni)."""
    tail = FAMILY_ALARM / (2.0 * points)
    return float(chi2.ppf(tail, dof)), float(chi2.isf(tail, dof))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class Run:
    """Timings, counters and check results of one measured loop."""

    def __init__(self, tracer=None, corrupt: bool = False) -> None:
        self.tracer = tracer
        self.ops: list[tuple[str, float, float]] = []   # (kind, seconds, work)
        self.refs: list[tuple[int, float]] = []          # reference() after each op
        self.cycle_ends: list[int] = []                  # len(ops) after each cycle
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: Counter = Counter()
        self._corrupt = corrupt

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext()

    def attempt(self, kind: str, body, check, work: float = 1.0, corrupt_key: str | None = None):
        """Time body(), then check its outputs; returns them, or None on failure."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = body()
            dt = time.perf_counter() - t0
        except Exception as exc:  # an operation that raises is a failed operation
            self.fail(kind, f"raised {exc!r}")
            return None
        self.ops.append((kind, dt, work))
        self.refs.append(reference(max(REFERENCE_MIN_S, REFERENCE_SHARE * dt)))
        if self._corrupt and corrupt_key is not None:
            out[corrupt_key] = out[corrupt_key] + 1
            self._corrupt = False
        try:
            problems = list(check(out))
        except Exception as exc:  # malformed output
            problems = [f"check raised {exc!r}"]
        if problems:
            self.fail(kind, "; ".join(problems))
            return None
        return out

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {message}")


class HashBook:
    """Seeded Monte Carlo output hashes, which must be equal across the cycles
    of a run.  The run prints them, so that two runs of the same seed can be
    compared; nothing is kept between runs."""

    def __init__(self) -> None:
        self.seen: dict[str, str] = {}

    def check(self, key: str, value: str):
        want = self.seen.setdefault(key, value)
        if value != want:
            yield f"{key} hash {value[:12]} != {want[:12]} of the first cycle"


def _check_mmse(trials: int, delta: float, mmse_emp, mmse_analytic):
    """Criterion-5 band on the empirical MMSE curve at every output point.

    With the exact discrete filter, trials * mmse_emp / mmse_filter is
    chi-square(trials) at each point, and criterion 5 allows mmse_filter to
    sit within 10 delta (relative) of the analytic law.  So the statistic
    against the analytic law must meet the chi-square band after that
    allowance.  power_emp is mmse_emp times A(t)^2 and P is mmse_analytic
    times A(t)^2, so this is also the power band.  An exact band, unlike
    criterion 5's 3-sigma normal band at one seed, holds for any seed and
    trial count.
    """
    emp = np.asarray(mmse_emp, dtype=float)
    analytic = np.asarray(mmse_analytic, dtype=float)
    lo, hi = chi2_band(trials, emp.size)
    slack = 10.0 * delta
    if not (np.all(trials * emp / (analytic * (1.0 - slack)) >= lo)
            and np.all(trials * emp / (analytic * (1.0 + slack)) <= hi)):
        yield f"MMSE curve outside the chi-square({trials}) band"


def _sim_config(spec: dict) -> SimConfig:
    return SimConfig(horizon=spec["horizon"], steps=spec["steps"], trials=spec["trials"],
                     master_seed=spec["master_seed"])


def _trajectory(run: Run, params: ChannelParams, cfg: SimConfig):
    with run.span("abel.trajectory"):
        return integrate_abel(abel_for_channel(params), horizon=cfg.horizon,
                              step=cfg.horizon / max(cfg.steps, 200))


class RoutesSweep:
    """Per cycle: one triple of each class through all three routes, a
    spectrum pair after every third triple, one 799-point kernel round trip."""

    name = "routes_sweep"

    def __init__(self, data: dict) -> None:
        self.triples = data["triples"]
        self.kernels = data["kernels"]
        self.cycles = 0

    def setup(self, run: Run) -> None:
        pass

    def cycle(self, run: Run) -> None:
        per = len(inputs.TRIPLE_CLASSES)
        start = (self.cycles * per) % len(self.triples)
        for j, triple in enumerate(self.triples[start:start + per]):
            closed = self._triple(run, triple)
            if j % 3 == 2 and closed is not None:
                self._spectra(run, triple, closed)
        self._kernel(run, self.kernels[self.cycles % len(self.kernels)])
        self.cycles += 1

    def _triple(self, run: Run, triple) -> float | None:
        cls, lam, kappa, power = triple
        params = ChannelParams(lam, kappa, power)

        def body():
            with run.span("capacity.closed_form"):
                closed = feedback_capacity_closed_form(params).value
            ode = None
            run.counts.setdefault("abel.not_converged", 0)   # reported even when zero
            try:
                with run.span("abel.integrate"):
                    traj = integrate_abel(abel_for_channel(params), horizon=ODE_HORIZON,
                                          step=ODE_HORIZON / 1000.0)
                with run.span("abel.sk_rate"):
                    ode = sk_rate_from_ode(traj).value
            except NotConverged:
                # documented at critical colouring; counted, not a failure
                run.counts["abel.not_converged"] += 1
            with run.span("capacity.discrete_sweep"):
                disc = discrete_limit_capacity(params, DEFAULT_SWEEP_DELTAS).value
            return {"closed": closed, "ode": ode, "disc": disc}

        def check(out):
            closed, ode, disc = out["closed"], out["ode"], out["disc"]
            white = cls not in ("colored", "critical")
            if white and closed != power / 2.0:
                yield f"white regime gave {closed!r} != P/2"
            if ode is not None and white:
                # the ODE route returns the scheme's own rate here, at most P/2
                if not 0.0 < ode <= power / 2.0 + 1e-4:
                    yield f"white-regime ODE rate {ode!r}"
            elif ode is not None and not abs(ode - closed) < 1e-4:
                yield f"|ode - closed| = {abs(ode - closed):.2e}"
            if not abs(disc - closed) < 1e-2 * closed:
                yield f"discrete route {disc!r} vs {closed!r}"

        out = run.attempt("triple", body, check, corrupt_key="closed")
        return None if out is None else out["closed"]

    def _spectra(self, run: Run, triple, closed: float) -> None:
        _cls, lam, kappa, power = triple
        params = ChannelParams(lam, kappa, power)

        def body():
            with run.span("spectrum.flat_sweep"):
                rows = flat_input_limit_sweep(params, FLAT_N, FLAT_K)
            rates = []
            for w in WATERFILL_BANDS:
                with run.span("spectrum.waterfill"):
                    rates.append(waterfill_bandlimited(params, w, power)[1])
            return {"flat": rows[-1][2], "flat_limit": rows[-1][3], "waterfill": rates}

        def check(out):
            flat, limit, rates = out["flat"], out["flat_limit"], out["waterfill"]
            if not abs(flat - limit) < FLAT_REL_BOUND * limit:
                yield f"flat rate {flat!r} vs {limit!r}"
            # a wider band never lowers the rate; it saturates once the band
            # holds the whole wet set, so allow quadrature noise
            if not all(b >= a * (1 - 1e-9) for a, b in zip(rates, rates[1:])):
                yield "water-filling rate drops as the band widens"
            # feedback cannot lower capacity: every non-feedback rate is below it
            if not rates[-1] <= closed * (1 + 1e-9):
                yield f"water-filling {rates[-1]!r} above {closed!r}"

        run.attempt("spectra", body, check, work=0.0, corrupt_key="flat")

    def _kernel(self, run: Run, lam_kappa) -> None:
        lam, kappa = lam_kappa
        kernel = ou_resolvent_kernel(ChannelParams(lam, kappa, 1.0))

        def body():
            with run.span("kernels.sample"):
                l_grid = sample_kernel(kernel, horizon=4.0, n=799)
            with run.span("kernels.recover_h"):
                h_grid = recover_h_from_l(l_grid)
            with run.span("kernels.residual"):
                return {"residual": resolvent_residual(h_grid, l_grid)}

        def check(out):
            if not out["residual"] < KERNEL_RESIDUAL_BOUND:
                yield f"round-trip residual {out['residual']:.2e}"

        run.attempt("kernel_roundtrip", body, check, work=0.0, corrupt_key="residual")


class MonteCarlo:
    def __init__(self, data: dict, hashes: HashBook | None = None) -> None:
        self.params = ChannelParams(*data["channel"])
        self.cfg = _sim_config(data["sim"])
        self.hashes = hashes or HashBook()
        self.traj = None

    def setup(self, run: Run) -> None:
        self.traj = _trajectory(run, self.params, self.cfg)

    def _key(self, what: str, cfg: SimConfig) -> str:
        return f"{self.name}/{what}/{cfg.trials}x{cfg.steps}/seed{cfg.master_seed}"


class McWide(MonteCarlo):
    """Per cycle: run_sk_scheme on many 512-trial batches, decode_message on
    the same grid, and stationary_arma_noise in the criterion-9 shape."""

    name = "mc_wide"

    def __init__(self, data: dict, hashes: HashBook | None = None) -> None:
        super().__init__(data, hashes)
        self.dcfg = _sim_config(data["decode"])
        self.grid_size = data["decode"]["grid_size"]
        self.noise_params = ChannelParams(*data["noise_channel"])
        self.ncfg = _sim_config(data["noise"])

    def cycle(self, run: Run) -> None:
        simulate(run, self, return_innovations=False)
        cfg, ncfg = self.dcfg, self.ncfg
        normals = cfg.trials * (2 + 2 * cfg.steps)

        def decode():
            with run.span("simulate.decode_message", normals=normals):
                return {"error_rate": decode_message(self.params, cfg, self.traj, self.grid_size)}

        def check_decode(out):
            err = out["error_rate"]
            # at rate ln(1024)/10 far below capacity the grid decodes exactly
            if err != 0.0:
                yield f"decode error rate {err!r}"
            yield from self.hashes.check(self._key("decode", cfg), digest([err]))

        run.attempt("decode_message", decode, check_decode, work=cfg.trials * cfg.steps,
                    corrupt_key="error_rate")

        def noise():
            with run.span("simulate.stationary_noise", normals=ncfg.trials * (2 + 2 * ncfg.steps)):
                return {"z": stationary_arma_noise(self.noise_params, ncfg)}

        def check_noise(out):
            z = out["z"]
            # criterion 9: the per-step variance has no trend
            k = np.arange(ncfg.steps, dtype=float)
            (slope, _), cov = np.polyfit(k, np.var(z, axis=0) / ncfg.delta, 1, cov=True)
            zs = abs(slope) / math.sqrt(cov[0, 0])
            if not zs < ALARM_Z:
                yield f"variance slope z={zs:.2f}"
            yield from self.hashes.check(self._key("noise", ncfg), digest(z))

        run.attempt("stationary_noise", noise, check_noise, work=ncfg.trials * ncfg.steps,
                    corrupt_key="z")


class McLong(MonteCarlo):
    """Per cycle: one run_sk_scheme call with innovations on fewer trials than
    one batch and ten times the default steps, then ljung_box on them."""

    name = "mc_long"

    def __init__(self, data: dict, hashes: HashBook | None = None) -> None:
        super().__init__(data, hashes)
        self.lags = data["lags"]

    def cycle(self, run: Run) -> None:
        out = simulate(run, self, return_innovations=True)
        if out is None:
            return
        innovations, lags, trials = out["innovations"], self.lags, self.cfg.trials

        def body():
            with run.span("simulate.ljung_box"):
                return {"q": ljung_box(innovations, lags=lags)}

        def check(out):
            q = out["q"]
            # white innovations: each Q is chi-square(lags), independent across trials
            lo, hi = chi2_band(lags * trials)
            total = float(np.sum(q))
            if not lo <= total <= hi:
                yield f"sum of Ljung-Box Q {total:.1f} outside [{lo:.1f}, {hi:.1f}]"
            yield from self.hashes.check(self._key("ljung_box", self.cfg), digest(q))

        run.attempt("ljung_box", body, check, work=0.0, corrupt_key="q")


def simulate(run: Run, wl, return_innovations: bool):
    """One checked run_sk_scheme call of a Monte Carlo workload."""
    params, cfg, traj = wl.params, wl.cfg, wl.traj

    def body():
        with run.span("simulate.run_sk_scheme", normals=cfg.trials * (2 + 2 * cfg.steps)):
            rep = run_sk_scheme(params, cfg, traj, return_innovations=return_innovations)
        return {"rep": rep, "mmse_emp": rep.mmse_emp, "innovations": rep.innovations}

    def check(out):
        rep = out["rep"]
        yield from _check_mmse(cfg.trials, cfg.delta, out["mmse_emp"], rep.mmse_analytic)
        yield from wl.hashes.check(wl._key("curves", cfg), digest(out["mmse_emp"], rep.power_emp))

    return run.attempt("run_sk_scheme", body, check, work=cfg.trials * cfg.steps,
                       corrupt_key="mmse_emp")


class CliCold:
    """Per cycle: each README example as a fresh `python -m oucap.cli` process."""

    name = "cli_cold"

    def __init__(self, data: dict) -> None:
        self.argvs = data["argvs"]
        self.first_stdout: dict[tuple, str] = {}
        self.validators = None

    def setup(self, run: Run) -> None:
        pass

    def _validator(self, sub: str):
        if self.validators is None:
            import jsonschema
            self.validators = {
                name: jsonschema.Draft7Validator(
                    json.loads((SCHEMAS / f"{name}.schema.json").read_text()))
                for name in ("capacity", "spectrum", "simulate")}
        return self.validators[sub]

    def cycle(self, run: Run) -> None:
        for argv in self.argvs:
            sub = argv[0]

            def body(argv=argv, sub=sub):
                with run.span(f"cli.{sub}_cold"):
                    proc = subprocess.run([sys.executable, "-m", "oucap.cli", *argv],
                                          capture_output=True, text=True, timeout=120, cwd=ROOT)
                return {"returncode": proc.returncode, "stdout": proc.stdout,
                        "stderr": proc.stderr}

            run.attempt(f"cli.{sub}", body, lambda out, argv=argv: self.check(argv, out),
                        corrupt_key="returncode")

    def check(self, argv: list, out: dict):
        if out["returncode"] != 0:
            yield f"exit code {out['returncode']}: {out['stderr'].strip()[-200:]}"
            return
        sub = argv[0]
        text = out["stdout"]
        if sub == "simulate":
            # a one-line summary precedes the JSON document
            text = text.split("\n", 1)[1]
        payload = json.loads(text)
        for err in self._validator(sub).iter_errors(payload):
            yield f"schema: {err.message}"
        opts = dict(zip(argv[1::2], argv[2::2]))
        params = ChannelParams(float(opts["--lambda"]), float(opts["--kappa"]),
                               float(opts["--power"]))
        if sub == "capacity":
            closed = feedback_capacity_closed_form(params).value
            values = {r["route"]: r["value"] for r in payload["results"]}
            if values.get("ClosedForm") != closed:
                yield f"closed form {values.get('ClosedForm')!r} != in-process {closed!r}"
            if "OdeLimit" in values and not abs(values["OdeLimit"] - closed) < 1e-4:
                yield "ODE route disagrees"
            if "DiscreteLimit" in values and not abs(values["DiscreteLimit"] - closed) < 1e-2 * closed:
                yield "discrete route disagrees"
        elif sub == "spectrum":
            rows = payload["rows"]
            if opts["--sweep"] == "flat":
                last = rows[-1]
                if not abs(last["rate"] - last["analytic_limit"]) < FLAT_REL_BOUND * last["analytic_limit"]:
                    yield "flat sweep misses the criterion-8 bound"
            else:
                # white noise (lambda = 0): water-filling is the flat-noise formula
                if any(abs(r["rate"] - r["analytic_limit"]) > 1e-9 * r["analytic_limit"] for r in rows):
                    yield "white-noise water-filling differs from its closed form"
        else:
            mm, run_params = payload["mmse_curve"], payload["params"]
            yield from _check_mmse(run_params["trials"], run_params["horizon"] / run_params["steps"],
                                   [r["mmse_emp"] for r in mm], [r["mmse_analytic"] for r in mm])
        first = self.first_stdout.setdefault(tuple(argv), out["stdout"])
        if first != out["stdout"]:
            yield "output differs from the first call with the same arguments"


def cli_warm(run: Run, argvs: list) -> None:
    """`oucap.cli.main(argv)` in-process, after import, for each CLI example."""
    from oucap import cli

    def main(argv, span):
        with span, contextlib.redirect_stdout(io.StringIO()):
            return {"code": cli.main(list(argv))}

    def check(out):
        if out["code"] != 0:
            yield f"in-process exit code {out['code']}"

    for i, argv in enumerate(argvs):
        kind = f"cli.{argv[0]}_warm"
        # one span name per example, since examples of one subcommand differ
        # widely in cost; the first call is untimed: it pays one-off lazy set-up
        run.attempt(kind, lambda: main(argv, contextlib.nullcontext()), check)
        for _ in range(3):
            run.attempt(kind, lambda: main(argv, run.span(f"{kind}.{i}")), check)


def probe(run: Run, seed: int, hashes: HashBook, tiny: bool) -> None:
    """One small cycle of every warm workload, and the cold workload's CLI
    calls in-process, so that each layer has spans even when the traced
    workload does not call it."""
    RoutesSweep(inputs.routes_sweep(seed)).cycle(run)
    for cls in (McWide, McLong):
        wl = cls(inputs.generate(cls.name, seed, tiny=True), hashes=hashes)
        wl.setup(run)
        wl.cycle(run)
    cli_warm(run, inputs.cli_cold(seed, tiny)["argvs"])


def wrap_filter_batch(tracer):
    """Span every filter_batch call of the default backend; returns an undo
    function, or None when the package no longer has that function."""
    backends = getattr(oucap, "backends", None)
    get_backend = getattr(backends, "get_backend", None)
    kern = get_backend() if get_backend is not None else None
    original = getattr(kern, "filter_batch", None)
    if original is None:
        return None

    def filter_batch(*args, **kwargs):
        with tracer.span("backends.filter_batch"):
            return original(*args, **kwargs)

    kern.filter_batch = filter_batch
    return lambda: setattr(kern, "filter_batch", original)


WORKLOADS = {cls.name: cls for cls in (CliCold, RoutesSweep, McWide, McLong)}
