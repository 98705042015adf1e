"""Non-feedback rates: the mutual-information-rate integral for stationary
Gaussian inputs, flat-input limit sweeps, and band-limited water-filling
against the channel's noise spectral density.

Every integral here is exact: on a band of constant input density, and on
the water-filling wet set, the integrand is the log of a ratio of two
quadratics in x, whose antiderivative is closed-form (x log plus two atan
terms).  The water-filling level is the one root found numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import ChannelParams, noise_sdf
from .roots import bracketed_root

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class InputSpectrum:
    """Piecewise-constant input spectral density.

    bands is a sequence of ((lo, hi), density) pairs with nonnegative
    densities and pairwise-disjoint intervals; total_power = sum of
    density * (hi - lo).
    """

    bands: tuple[tuple[tuple[float, float], float], ...]
    total_power: float = field(init=False)

    def __init__(self, bands) -> None:
        norm = []
        for (lo, hi), density in bands:
            lo, hi, density = float(lo), float(hi), float(density)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid interval ({lo}, {hi})")
            if not (math.isfinite(density) and density >= 0.0):
                raise ValueError("densities must be finite and nonnegative")
            norm.append(((lo, hi), density))
        norm.sort(key=lambda b: b[0][0])
        for i in range(1, len(norm)):
            if norm[i][0][0] < norm[i - 1][0][1]:
                raise ValueError("intervals must be pairwise disjoint")
        object.__setattr__(self, "bands", tuple(norm))
        power = sum(d * (hi - lo) for (lo, hi), d in norm)
        object.__setattr__(self, "total_power", power)

    @staticmethod
    def two_sided_flat(offset: float, width: float, density: float) -> "InputSpectrum":
        """Density on [-offset-width/2, -offset] and [offset, offset+width/2]."""
        half = width / 2.0
        return InputSpectrum(
            [((-offset - half, -offset), density), ((offset, offset + half), density)]
        )


def _log_ratio_antiderivative(x: float, p: float, q: float, c: float) -> float:
    """Antiderivative, zero at x = 0, of log((a x^2 + b)/(x^2 + c^2)) where
    a = 1 + p and b = c^2 + q.

    It is x log(...) + 2 sqrt(b/a) atan(x sqrt(a/b)) - 2c atan(x/c); the -2x
    terms of the two logs cancel.  The log is taken as
    log1p((p x^2 + q)/(x^2 + c^2)), so that a ratio close to 1 (a band far
    out, or a faint input) keeps its digits.  An atan term whose constant is
    (or underflows to) 0 is dropped, and so is x log(...) at x = 0, where it
    tends to 0 even if c = 0.
    """
    if x == 0.0:
        return 0.0
    x2 = x * x
    value = x * math.log1p((p * x2 + q) / (x2 + c * c))
    b = c * c + q
    if b > 0.0:
        root = math.sqrt(b / (1.0 + p))
        if root > 0.0:
            value += 2.0 * root * math.atan(x / root)
    if c > 0.0:
        value -= 2.0 * c * math.atan(x / c)
    return value


def pinsker_rate(spectrum: InputSpectrum, params: ChannelParams) -> float:
    """(1/4pi) * integral of log(1 + S_x/S_z) over the input support.

    With c = |kappa + lam| and s = 2 pi d, a band of density d integrates
    log(1 + d/S_z) = log((a x^2 + b)/(x^2 + c^2)) with a = 1 + s and
    b = c^2 + s kappa^2, which has a closed-form antiderivative.  The
    integrable log singularity at x = 0 when lam = -kappa needs no special
    care.
    """
    kappa = params.kappa
    c = abs(params.lam + kappa)
    total = 0.0
    for (lo, hi), density in spectrum.bands:
        if density == 0.0:
            continue
        s = TWO_PI * density
        q = s * kappa * kappa
        total += (_log_ratio_antiderivative(hi, s, q, c)
                  - _log_ratio_antiderivative(lo, s, q, c))
    return total / (4.0 * math.pi)


def flat_input_limit_sweep(params: ChannelParams, n_values,
                           k_values) -> list[tuple[float, float, float, float]]:
    """Rates of two-sided flat inputs of total width n pushed out to offset k.

    Each row is (n, k, rate, analytic_limit) with analytic_limit the k -> inf
    value (n/4pi) log(1 + 2 pi P / n); rates carry total power params.power
    split as density P/n over the two bands.  Overflow raises ValueError.
    """
    rows = []
    power = params.power
    for n in n_values:
        n = float(n)
        if n <= 0:
            raise ValueError("band widths must be positive")
        analytic = (n / (4.0 * math.pi)) * math.log1p(TWO_PI * power / n)
        for k in k_values:
            k = float(k)
            if k < 0:
                raise ValueError("offsets must be nonnegative")
            spec = InputSpectrum.two_sided_flat(k, n, power / n)
            rate = pinsker_rate(spec, params)
            if not (math.isfinite(rate) and math.isfinite(analytic)):
                raise ValueError(f"the flat sweep overflows at n={n}, k={k}, P={power!r}")
            rows.append((n, k, rate, analytic))
    return rows


def _noise_antiderivative(params: ChannelParams, x: float) -> float:
    """Closed-form integral of the noise density from 0 to x."""
    kappa = params.kappa
    c = params.lam + kappa
    return (x + ((c * c - kappa * kappa) / kappa) * math.atan(x / kappa)) / TWO_PI


def _wet_boundary(params: ChannelParams, level: float, band: float,
                  s0: float, s_edge: float) -> tuple[float, float]:
    """Wet subset of [0, band] where S_z <= level, as an interval (a, b).

    s0 and s_edge are S_z(0) and S_z(band).  The density is monotone in |x|
    (increasing when |lam+kappa| < kappa, decreasing when > kappa, constant
    when equal), so the wet set on the half-line is a single interval
    anchored at 0 or at the band edge.
    """
    kappa = params.kappa
    c = abs(params.lam + kappa)
    if c == kappa:
        return (0.0, band) if level > s0 else (0.0, 0.0)
    denom = 1.0 - TWO_PI * level
    if c < kappa:
        if level <= s0:
            return (0.0, 0.0)
        if level >= s_edge:
            return (0.0, band)
        x = math.sqrt((TWO_PI * level * kappa * kappa - c * c) / denom)
        return (0.0, min(x, band))
    if level <= s_edge:
        return (band, band)
    if level >= s0:
        return (0.0, band)
    x = math.sqrt((TWO_PI * level * kappa * kappa - c * c) / denom)
    return (min(x, band), band)


def _wet_power(params: ChannelParams, level: float, band: float,
               s0: float, s_edge: float) -> float:
    """Power absorbed at `level` over [-band, band]: integral of (level - S_z)+."""
    a, b = _wet_boundary(params, level, band, s0, s_edge)
    if b <= a:
        return 0.0
    filled = level * (b - a) - (
        _noise_antiderivative(params, b) - _noise_antiderivative(params, a)
    )
    return 2.0 * max(filled, 0.0)


def waterfill_bandlimited(params: ChannelParams, band: float, power: float) -> tuple[float, float]:
    """Water-filling level and rate on the band [-W, W].

    Finds the level A with integral of (A - S_z)+ over [-W, W] equal to
    `power` (monotone in A, so the root is bracketed between the band minimum
    of S_z and min + power/(2W) + max), then evaluates the rate
    (1/4pi) integral of log(max(A/S_z, 1)).  ValueError if S_z or the rate
    leaves the float range, or if the rate exceeds twice its bound
    P/(4 pi min S_z): the power is then too small to lift A off the floor.
    """
    if not (math.isfinite(band) and band > 0):
        raise ValueError("band must be positive and finite")
    if not (math.isfinite(power) and power >= 0):
        raise ValueError("power must be nonnegative and finite")
    try:
        s0, s_edge = noise_sdf(params, 0.0), noise_sdf(params, band)
        # S_z(W) > 0 in exact terms
        in_range = math.isfinite(s0) and 0.0 < s_edge < math.inf
    except ZeroDivisionError:  # kappa^2 underflows to 0
        in_range = False
    if not in_range:
        raise ValueError(f"the noise density leaves the float range on the band {band!r}")
    s_min, s_max = min(s0, s_edge), max(s0, s_edge)
    if power == 0.0:
        return s_min, 0.0
    level = bracketed_root(
        lambda a: _wet_power(params, a, band, s0, s_edge) - power,
        s_min,
        s_min + power / (2.0 * band) + s_max,
    )
    a, b = _wet_boundary(params, level, band, s0, s_edge)
    if b <= a:
        return level, 0.0
    # log(level/S_z) = log(2 pi level) + log((x^2 + kappa^2)/(x^2 + c^2))
    kappa = params.kappa
    c = abs(params.lam + kappa)
    q = (kappa - c) * (kappa + c)
    rate = (math.log(TWO_PI * level) * (b - a)
            + _log_ratio_antiderivative(b, 0.0, q, c)
            - _log_ratio_antiderivative(a, 0.0, q, c)) / TWO_PI
    if not math.isfinite(rate):
        raise ValueError(f"the water-filling rate overflows on band {band!r}")
    if s_min > 0.0 and rate > power / (TWO_PI * s_min):
        raise ValueError(f"power {power!r} is too small to resolve the level above {s_min!r}")
    return level, rate


def waterfill_sweep(params: ChannelParams, band: float) -> list[tuple[float, float, float, float]]:
    """Water-filling at power params.power on nine half-bandwidths from
    band/100 to band, numpy's geomspace(band/100, band, 9) computed on libm:
    exact endpoints and 10^(lo + i (hi - lo)/8) between them.

    Each row is (w, level, rate, analytic_limit), with analytic_limit the
    flat-noise rate (w/2pi) log(1 + pi P/w) on the same band.  ValueError
    if band/100 is not positive, or as waterfill_bandlimited raises.
    """
    if not band / 100.0 > 0:
        raise ValueError(f"band must be positive and at least 100 times the "
                         f"smallest float, got {band!r}")
    lo, hi = math.log10(band / 100.0), math.log10(band)
    step = (hi - lo) / 8
    rows = []
    for w in (band / 100.0, *(10.0 ** (lo + i * step) for i in range(1, 8)), band):
        level, rate = waterfill_bandlimited(params, w, params.power)
        # quartering P and w gives the same bits, and pi P cannot overflow
        flat_noise = (w / TWO_PI) * math.log1p(math.pi * (0.25 * params.power) / (0.25 * w))
        rows.append((w, level, rate, flat_noise))
    return rows


def p_max(params: ChannelParams) -> float:
    """Total water the noise well holds below the flat floor 1/(2 pi).

    Equals (kappa^2 - (kappa+lam)^2)/(2 kappa); positive exactly in the
    ColoredGain regime, where it bounds the power for which the filled band
    stays finite.
    """
    kappa = params.kappa
    c = params.lam + kappa
    return (kappa * kappa - c * c) / (2.0 * kappa)
