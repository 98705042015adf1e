"""Each subcommand's output, as text, RFC-4180-style CSV and JSON, and run
manifests.

capacity, simulate and spectrum each return the CLI's {"text", "csv",
"json"} map for one subcommand (simulate's adds its "summary" line).  Data
payloads are deterministic functions of the results (no timestamps), so a
fixed seed reproduces output files byte for byte; the manifest carries the
timestamp and the full parameter set needed to reproduce the run.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math

from . import __version__
from .channel import Regime, Route

SPECTRUM_HEADERS = {"flat": ["n", "k", "rate", "analytic_limit"],
                    "waterfill": ["band", "level", "rate", "analytic_limit"]}


def _jsonable(value):
    """Floats that JSON cannot carry (inf/nan) become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def rows_to_csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def build_manifest(subcommand: str, parameters: dict, master_seed: int | None) -> dict:
    return {
        "subcommand": subcommand,
        "parameters": parameters,
        "version": __version__,
        "master_seed": master_seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _formats(lines: list[str], header: list[str], rows, payload: dict) -> dict:
    return {"text": "\n".join(lines) + "\n", "csv": rows_to_csv(header, rows),
            "json": dump_json(payload)}


def _channel(params, **more) -> dict:
    """The payload's params block: lambda, kappa and power, then `more`."""
    return {"lambda": params.lam, "kappa": params.kappa, "power": params.power, **more}


def _max_discrepancy(params, results) -> float | None:
    """Largest pairwise gap between the routes' values, or None for fewer
    than two.  Outside the colored regime the ODE route gives the scheme's
    rate, not the capacity, so it takes part only in the colored regime."""
    colored = params.regime() is Regime.COLORED_GAIN
    values = [r.value for r in results if colored or r.route is not Route.ODE_LIMIT]
    if len(values) < 2:
        return None
    return max(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:])


def capacity(params, results) -> dict:
    regime = params.regime().value
    gap = _max_discrepancy(params, results)
    lines = [f"channel lambda={params.lam} kappa={params.kappa} power={params.power} "
             f"regime={regime}"]
    lines += [f"  {r.route.value:<13} value={r.value:.12g}  residual={r.residual:.3g}"
              for r in results]
    if gap is not None:
        lines.append(f"  max pairwise discrepancy: {gap:.3g}")
    header = ["route", "value", "residual"]
    rows = [(r.route.value, float(r.value), float(r.residual)) for r in results]
    return _formats(lines, header, rows, {
        "subcommand": "capacity",
        "params": _channel(params, regime=regime),
        "results": [dict(zip(header, row)) for row in rows],
        "max_discrepancy": _jsonable(gap),
    })


def simulate(params, cfg, rep) -> dict:
    """The run and its rate as text, the curves as CSV and JSON, and the
    largest |empirical - analytic| MMSE deviation in half-width sigmas as
    the summary line."""
    header = ["time", "mmse_emp", "mmse_analytic", "mmse_hw", "power_emp", "power_hw"]
    columns = (rep.times, rep.mmse_emp, rep.mmse_analytic, rep.mmse_hw, rep.power_emp,
               rep.power_hw)
    rows = list(zip(*(column.tolist() for column in columns)))
    z = max([0.0, *(abs(e - a) / (h / 1.96) for _, e, a, h, _, _ in rows
                    if math.isfinite(h) and h != 0.0)])
    out = _formats(
        [f"simulated {cfg.trials} trials, horizon {cfg.horizon}, steps {cfg.steps}, "
         f"seed {cfg.master_seed}",
         f"empirical rate {rep.empirical_rate:.9g}"],
        header, rows, {
            "subcommand": "simulate",
            "params": _channel(params, horizon=cfg.horizon, steps=cfg.steps,
                               trials=cfg.trials, master_seed=cfg.master_seed),
            "empirical_rate": rep.empirical_rate,
            "max_mmse_z": _jsonable(z),
            "mmse_curve": [{"time": t, "mmse_emp": e, "mmse_analytic": a,
                            "mmse_hw": _jsonable(h)} for t, e, a, h, _, _ in rows],
            "power_curve": [{"time": t, "power_emp": e, "power_hw": _jsonable(h)}
                            for t, _, _, _, e, h in rows],
        })
    out["summary"] = f"max MMSE z-score {z:.3f} (empirical vs analytic)"
    return out


def spectrum(params, sweep: str, rows) -> dict:
    """A sweep's rows: flat_input_limit_sweep's or waterfill_sweep's."""
    header = SPECTRUM_HEADERS[sweep]
    rows = [tuple(float(v) for v in row) for row in rows]
    lines = [f"{sweep} sweep", "  " + "  ".join(f"{h:>14}" for h in header)]
    lines += ["  " + "  ".join(f"{v:>14.9g}" for v in row) for row in rows]
    return _formats(lines, header, rows, {
        "subcommand": "spectrum",
        "sweep": sweep,
        "params": _channel(params),
        "rows": [{name: _jsonable(v) for name, v in zip(header, row)} for row in rows],
    })
