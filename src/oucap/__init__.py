"""Feedback capacity of the OU-colored additive white Gaussian noise channel.

Four independent routes to the same number: the closed-form cubic root, the
long-horizon limit of the scheme's gain ODE, the vanishing-step limit of the
discrete ARMA(1,1) channel, and Monte Carlo simulation of the feedback
scheme itself — plus non-feedback spectral baselines for comparison.
"""

from .abel import (
    AbelCoefficients,
    OdeTrajectory,
    RootConvergence,
    abel_for_channel,
    abel_from_kernel,
    classify_root_convergence,
    gain_from_kernel,
    integrate_abel,
    limiting_cubic_roots,
    sk_rate_from_ode,
)
from .capacity import (
    ArmaParams,
    DEFAULT_SWEEP_DELTAS,
    DeltaSweep,
    arma_from_step,
    discrete_limit_capacity,
    discrete_limit_sweep,
    feedback_capacity_closed_form,
    solve_arma_quartic,
)
from .channel import (
    CapacityResult,
    ChannelParams,
    Regime,
    Route,
    classify_regime,
    noise_sdf,
)
from .errors import (
    FilterDivergence,
    GridMismatch,
    InvalidArma,
    KernelDomainMismatch,
    NotConverged,
    OucapError,
    RootNotBracketed,
    StationarityViolated,
    StepSizeUnderflow,
)
from .kernels import (
    GridKernel,
    SeparableKernel,
    ou_resolvent_kernel,
    recover_h_from_l,
    resolvent_residual,
    sample_kernel,
)
from .simulate import (
    NoisePath,
    SimConfig,
    SimReport,
    arma_recursion_residual,
    decode_message,
    ljung_box,
    run_sk_scheme,
    simulate_noise,
    stationary_arma_noise,
)
from .spectrum import (
    InputSpectrum,
    flat_input_limit_sweep,
    p_max,
    pinsker_rate,
    waterfill_bandlimited,
)

__all__ = [
    "AbelCoefficients",
    "ArmaParams",
    "CapacityResult",
    "ChannelParams",
    "DEFAULT_SWEEP_DELTAS",
    "DeltaSweep",
    "FilterDivergence",
    "GridKernel",
    "GridMismatch",
    "InputSpectrum",
    "InvalidArma",
    "KernelDomainMismatch",
    "NoisePath",
    "NotConverged",
    "OdeTrajectory",
    "OucapError",
    "Regime",
    "RootConvergence",
    "RootNotBracketed",
    "Route",
    "SeparableKernel",
    "SimConfig",
    "SimReport",
    "StationarityViolated",
    "StepSizeUnderflow",
    "__version__",
    "abel_for_channel",
    "abel_from_kernel",
    "arma_from_step",
    "arma_recursion_residual",
    "classify_regime",
    "classify_root_convergence",
    "decode_message",
    "discrete_limit_capacity",
    "discrete_limit_sweep",
    "feedback_capacity_closed_form",
    "flat_input_limit_sweep",
    "gain_from_kernel",
    "integrate_abel",
    "limiting_cubic_roots",
    "ljung_box",
    "noise_sdf",
    "ou_resolvent_kernel",
    "p_max",
    "pinsker_rate",
    "recover_h_from_l",
    "resolvent_residual",
    "run_sk_scheme",
    "sample_kernel",
    "simulate_noise",
    "sk_rate_from_ode",
    "solve_arma_quartic",
    "stationary_arma_noise",
    "waterfill_bandlimited",
]


def __getattr__(name):
    # the version is looked up on first use, not on import
    if name == "__version__":
        from .report import version

        return version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
