"""Feedback capacity of the OU-colored additive white Gaussian noise channel.

Four independent routes to the same number: the closed-form cubic root, the
long-horizon limit of the scheme's gain ODE, the vanishing-step limit of the
discrete ARMA(1,1) channel, and Monte Carlo simulation of the feedback
scheme itself — plus non-feedback spectral baselines for comparison.

The exports load on first use (PEP 562): `import oucap` imports no
submodule, and a name imports only the submodule that defines it.  The
three capacity routes (the ODE route through solve_abel), the regime, the
noise density at a scalar frequency, both spectrum sweeps and the
resolvent kernel's ratios run without numpy; sampling a trajectory
(integrate_abel), the kernel grids and the Monte Carlo load it.  A submodule name such as
`oucap.simulate` resolves to that submodule.
"""

import importlib

# the one version source: packaging reads it (pyproject.toml), as do the
# CLI's --version and every run manifest
__version__ = "0.1.0"

# submodule -> the names it exports
_EXPORTS = {
    "abel": (
        "AbelCoefficients",
        "AbelSolution",
        "OdeTrajectory",
        "RootConvergence",
        "abel_for_channel",
        "abel_from_kernel",
        "classify_root_convergence",
        "integrate_abel",
        "limiting_cubic_roots",
        "sk_rate_from_ode",
        "solve_abel",
    ),
    "capacity": (
        "ArmaParams",
        "DEFAULT_SWEEP_DELTAS",
        "DeltaSweep",
        "arma_from_step",
        "discrete_limit_capacity",
        "discrete_limit_sweep",
        "feedback_capacity_closed_form",
        "solve_arma_quartic",
    ),
    "channel": (
        "CapacityResult",
        "ChannelParams",
        "Regime",
        "Route",
        "classify_regime",
        "noise_sdf",
    ),
    "errors": (
        "FilterDivergence",
        "GridMismatch",
        "InvalidArma",
        "MemoryBudgetExceeded",
        "NotConverged",
        "OucapError",
        "RootNotBracketed",
        "StationarityViolated",
        "StepSizeUnderflow",
    ),
    "kernels": (
        "GridKernel",
        "SeparableKernel",
        "ou_resolvent_kernel",
        "recover_h_from_l",
        "resolvent_residual",
        "sample_kernel",
    ),
    "simulate": (
        "SimConfig",
        "SimReport",
        "arma_recursion_residual",
        "decode_message",
        "ljung_box",
        "run_sk_scheme",
        "stationary_arma_noise",
    ),
    "spectrum": (
        "InputSpectrum",
        "flat_input_limit_sweep",
        "p_max",
        "pinsker_rate",
        "waterfill_bandlimited",
        "waterfill_sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    """An export, from its submodule; else the submodule `name`; else
    AttributeError."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
