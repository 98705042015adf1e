"""Command-line interface.

Subcommands: capacity (closed-form / ODE-limit / discrete-limit routes),
simulate (Monte Carlo of the feedback scheme), spectrum (non-feedback
sweeps).  Exit codes: 0 success, 2 invalid flags or parameters or a
simulation too large for physical memory, 3 a computation failed to
converge, 4 filter divergence.  Text output is
human-oriented and unstable; CSV and JSON are the compatibility surface.
When --out is given, data files are written together with a
`.manifest.json` sidecar recording parameters, version, seed, and timestamp.
Only simulate loads numpy: every capacity route and both spectrum sweeps
run on Python floats.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import __version__, report
from .capacity import (
    DEFAULT_SWEEP_DELTAS,
    discrete_limit_capacity,
    feedback_capacity_closed_form,
)
from .channel import ChannelParams
from .errors import FilterDivergence, MemoryBudgetExceeded, OucapError
from .spectrum import flat_input_limit_sweep, waterfill_sweep

ODE_HORIZON_DEFAULT = 50.0
SIM_HORIZON_DEFAULT = 10.0

FLAT_N_DEFAULT = (16.0, 64.0, 256.0, 1024.0)
FLAT_K_DEFAULT = (32.0, 128.0, 512.0, 4096.0)

SUFFIXES = {"text": ".txt", "csv": ".csv", "json": ".json"}
# subcommands whose --out writes these formats side by side, whatever --format
SIDE_BY_SIDE = {"simulate": ("csv", "json")}
# parsed attributes that are not run parameters: the subcommand, the output
# options, the seed (the manifest's master_seed) and the dispatch function
NOT_PARAMETERS = frozenset({"command", "format", "out", "seed", "run"})


class _Parser(argparse.ArgumentParser):
    """Takes `-5e-1` for a value, as argparse already takes `-0.5`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _channel_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lambda", dest="lam", type=float, required=True,
                     help="coloring weight of the OU noise component")
    sub.add_argument("--kappa", type=float, required=True,
                     help="OU mean-reversion rate (must be > 0)")
    sub.add_argument("--power", type=float, required=True,
                     help="average power budget (must be >= 0)")


def _output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--out", type=Path, default=None,
                     help="base path for output files (data + .manifest.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oucap",
        description="Feedback capacity of the OU-colored additive Gaussian "
        "noise channel: closed form, ODE and discrete limits, Monte Carlo, "
        "and non-feedback spectra.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    cap = subs.add_parser("capacity", help="feedback capacity by one or all routes")
    _channel_args(cap)
    cap.add_argument("--route", choices=("closed", "ode", "discrete", "all"),
                     default="closed")
    cap.add_argument("--horizon", type=float, default=ODE_HORIZON_DEFAULT,
                     help=f"ODE-route horizon (default {ODE_HORIZON_DEFAULT:g})")
    _output_args(cap)
    cap.set_defaults(run=cmd_capacity)

    sim = subs.add_parser("simulate", help="Monte Carlo of the feedback scheme")
    _channel_args(sim)
    sim.add_argument("--horizon", type=float, default=SIM_HORIZON_DEFAULT,
                     help=f"time horizon (default {SIM_HORIZON_DEFAULT:g})")
    sim.add_argument("--steps", type=int, default=10000,
                     help="time steps (default 10000)")
    sim.add_argument("--trials", type=int, default=1000,
                     help="Monte Carlo trials (default 1000)")
    sim.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    _output_args(sim)
    sim.set_defaults(run=cmd_simulate)

    spec = subs.add_parser("spectrum", help="non-feedback rate sweeps")
    _channel_args(spec)
    spec.add_argument("--sweep", choices=("flat", "waterfill"), default="flat")
    spec.add_argument("--band", type=float, default=1000.0,
                      help="water-filling half-bandwidth W (default 1000)")
    _output_args(spec)
    spec.set_defaults(run=cmd_spectrum)
    return parser


def _manifest(args) -> dict:
    """The run manifest: every parsed option of the subcommand except the
    output options, the seed and the dispatch, with lam spelled lambda."""
    parameters = {("lambda" if name == "lam" else name): value
                  for name, value in vars(args).items() if name not in NOT_PARAMETERS}
    return report.build_manifest(args.command, parameters, getattr(args, "seed", None))


def _out_suffix_error(args) -> str | None:
    """Why --out cannot hold the chosen format, or None: a suffix given to
    --out must be the format's own, except where SIDE_BY_SIDE names the files."""
    if args.out is None or args.command in SIDE_BY_SIDE:
        return None
    suffix, want = args.out.suffix, SUFFIXES[args.format]
    if suffix in ("", want):
        return None
    return (f"--out {args.out} has suffix {suffix}, but --format {args.format} "
            f"writes {want}; give {want} or no suffix")


def _emit(args, payloads: dict) -> None:
    """Print payloads["summary"] if there is one, then payloads[args.format]
    or, with --out, the files.

    payloads maps each format to its text.  By default --out receives the
    chosen format (its suffix added when --out has none) and the manifest is
    `<that file>.manifest.json`.  A subcommand in SIDE_BY_SIDE instead writes
    its formats side by side as `<out stem><suffix>`, with the manifest at
    `<out stem>.manifest.json`.
    """
    if "summary" in payloads:
        print(payloads["summary"])
    if args.out is None:
        sys.stdout.write(payloads[args.format])
        return
    args.out.parent.mkdir(parents=True, exist_ok=True)
    files = SIDE_BY_SIDE.get(args.command)
    if files is None:
        # main refused any other suffix, so this only adds a missing one
        stem = args.out.with_suffix(SUFFIXES[args.format])
        targets = [(stem, args.format)]
    else:
        stem = args.out.with_suffix("")
        targets = [(stem.with_suffix(SUFFIXES[fmt]), fmt) for fmt in files]
    for path, fmt in targets:
        path.write_text(payloads[fmt], encoding="utf-8")
    manifest_path = Path(str(stem) + ".manifest.json")
    manifest_path.write_text(report.dump_json(_manifest(args)), encoding="utf-8")
    written = [str(path) for path, _ in targets]
    print(f"wrote {', '.join(written)} and {manifest_path}")


# Each cmd_* computes one subcommand for the channel main built and returns
# report's rendering of it.

def cmd_capacity(args, params: ChannelParams):
    results = []
    if args.route in ("closed", "all"):
        results.append(feedback_capacity_closed_form(params))
    if args.route in ("ode", "all"):
        from .abel import abel_for_channel, sk_rate_from_ode, solve_abel

        results.append(sk_rate_from_ode(solve_abel(abel_for_channel(params), args.horizon)))
    if args.route in ("discrete", "all"):
        results.append(discrete_limit_capacity(params, DEFAULT_SWEEP_DELTAS))
    return report.capacity(params, results)


def cmd_simulate(args, params: ChannelParams):
    if params.power <= 0:
        raise ValueError("power must be positive for the simulation")
    from .abel import abel_for_channel, solve_abel
    from .simulate import SimConfig, run_sk_scheme

    cfg = SimConfig(horizon=args.horizon, steps=args.steps, trials=args.trials,
                    master_seed=args.seed)
    rep = run_sk_scheme(params, cfg, solve_abel(abel_for_channel(params), cfg.horizon))
    return report.simulate(params, cfg, rep)


def cmd_spectrum(args, params: ChannelParams):
    if args.sweep == "flat":
        rows = flat_input_limit_sweep(params, FLAT_N_DEFAULT, FLAT_K_DEFAULT)
    else:
        rows = waterfill_sweep(params, args.band)
    return report.spectrum(params, args.sweep, rows)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _out_suffix_error(args)
    if problem:
        parser.error(problem)
    try:
        params = ChannelParams(lam=args.lam, kappa=args.kappa, power=args.power)
        _emit(args, args.run(args, params))
    except (ValueError, MemoryBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FilterDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OucapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
