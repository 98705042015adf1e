"""Machine-readable output: JSON payloads, RFC-4180-style CSV, run manifests.

Data payloads are deterministic functions of the results (no timestamps), so
a fixed seed reproduces output files byte for byte; the manifest written
alongside them carries the timestamp and the full parameter set needed to
reproduce the run.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math

from . import __version__


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


def capacity_payload(params, results, max_discrepancy: float | None) -> dict:
    return {
        "subcommand": "capacity",
        "params": {
            "lambda": params.lam,
            "kappa": params.kappa,
            "power": params.power,
            "regime": params.regime().value,
        },
        "results": [
            {"route": r.route.value, "value": r.value, "residual": r.residual}
            for r in results
        ],
        "max_discrepancy": _jsonable(max_discrepancy),
    }


def capacity_csv(results) -> str:
    return rows_to_csv(
        ["route", "value", "residual"],
        [(r.route.value, float(r.value), float(r.residual)) for r in results],
    )


def capacity_text(params, results, max_discrepancy: float | None) -> str:
    lines = [
        f"channel lambda={params.lam} kappa={params.kappa} power={params.power} "
        f"regime={params.regime().value}"
    ]
    for r in results:
        lines.append(f"  {r.route.value:<13} value={r.value:.12g}  residual={r.residual:.3g}")
    if max_discrepancy is not None:
        lines.append(f"  max pairwise discrepancy: {max_discrepancy:.3g}")
    return "\n".join(lines) + "\n"


def max_mmse_z(report) -> float:
    """Largest |empirical - analytic| MMSE deviation in half-width sigmas."""
    worst = 0.0
    for _t, emp, analytic, hw in report.mmse_curve:
        if not math.isfinite(hw) or hw == 0.0:
            continue
        worst = max(worst, abs(emp - analytic) / (hw / 1.96))
    return worst


def simulate_payload(params, cfg, report) -> dict:
    return {
        "subcommand": "simulate",
        "params": {
            "lambda": params.lam,
            "kappa": params.kappa,
            "power": params.power,
            "horizon": cfg.horizon,
            "steps": cfg.steps,
            "trials": cfg.trials,
            "master_seed": cfg.master_seed,
        },
        "backend": report.backend,
        "empirical_rate": report.empirical_rate,
        "max_mmse_z": _jsonable(max_mmse_z(report)),
        "mmse_curve": [
            {
                "time": t,
                "mmse_emp": e,
                "mmse_analytic": a,
                "mmse_hw": _jsonable(h),
            }
            for t, e, a, h in report.mmse_curve
        ],
        "power_curve": [
            {"time": t, "power_emp": e, "power_hw": _jsonable(h)}
            for t, e, h in report.power_curve
        ],
    }


def simulate_csv(report) -> str:
    rows = []
    for (t, emp, analytic, hw), (_t2, p_emp, p_hw) in zip(
        report.mmse_curve, report.power_curve
    ):
        rows.append((t, emp, analytic, hw, p_emp, p_hw))
    return rows_to_csv(
        ["time", "mmse_emp", "mmse_analytic", "mmse_hw", "power_emp", "power_hw"],
        rows,
    )


def simulate_text(cfg, report) -> str:
    """The run and its rate; the CLI prints the max MMSE z-score above it."""
    lines = [
        f"simulated {cfg.trials} trials, horizon {cfg.horizon}, steps {cfg.steps}, "
        f"seed {cfg.master_seed}, backend {report.backend}",
        f"empirical rate {report.empirical_rate:.9g}",
    ]
    return "\n".join(lines) + "\n"


def spectrum_payload(params, sweep: str, header: list[str], rows) -> dict:
    return {
        "subcommand": "spectrum",
        "sweep": sweep,
        "params": {
            "lambda": params.lam,
            "kappa": params.kappa,
            "power": params.power,
        },
        "rows": [
            {name: _jsonable(float(v)) for name, v in zip(header, row)} for row in rows
        ],
    }


def spectrum_csv(header: list[str], rows) -> str:
    return rows_to_csv(header, [tuple(float(v) for v in row) for row in rows])


def spectrum_text(sweep: str, header: list[str], rows) -> str:
    lines = [f"{sweep} sweep"]
    lines.append("  " + "  ".join(f"{h:>14}" for h in header))
    for row in rows:
        lines.append("  " + "  ".join(f"{float(v):>14.9g}" for v in row))
    return "\n".join(lines) + "\n"
