"""Seeded inputs for the four workloads.

The same seed gives the same inputs.  Everything handed to the package is a
plain number, a (lambda, kappa, power) triple or a simulation config; the
generator itself never imports the package.
"""

from __future__ import annotations

import random

# Triple classes in the order the route sweep cycles through them: both
# regimes, both regime boundaries and critical colouring lambda = -kappa.
TRIPLE_CLASSES = (
    "colored", "white_above", "colored", "boundary_zero", "colored",
    "white_below", "colored", "boundary_two_kappa", "critical",
)
ROUTE_TRIPLES = len(TRIPLE_CLASSES) * 256
KERNEL_PARAMS = 256

# Criterion-5 channel for the Monte Carlo workloads.
MC_CHANNEL = (-1.0, 1.0, 2.0)
# Criterion-9 channel for the stationarized-noise sampler.
NOISE_CHANNEL = (-1.0, 1.0, 1.0)


def _triple(rng: random.Random, cls: str) -> tuple:
    kappa = rng.uniform(0.5, 2.0)
    power = rng.uniform(0.5, 3.0)
    if cls == "colored":
        # criterion-2 family: away from the critical point and the boundaries
        lam = -kappa + rng.uniform(0.3, 0.9) * kappa * rng.choice((-1.0, 1.0))
    elif cls == "white_above":
        lam = rng.uniform(0.1, 3.0)
    elif cls == "white_below":
        lam = -2.0 * kappa - rng.uniform(0.1, 3.0)
    elif cls == "boundary_zero":
        lam = 0.0
    elif cls == "boundary_two_kappa":
        lam = -2.0 * kappa
    else:
        lam = -kappa
    return (cls, lam, kappa, power)


def routes_sweep(seed: int) -> dict:
    rng = random.Random(seed)
    triples = [_triple(rng, TRIPLE_CLASSES[i % len(TRIPLE_CLASSES)])
               for i in range(ROUTE_TRIPLES)]
    # 799-point round trips in the criterion-7 domain (horizon 4), where the
    # resolvent residual stays below its 1e-4 bound
    kernels = []
    for _ in range(KERNEL_PARAMS):
        kappa = rng.uniform(0.5, 1.5)
        kernels.append((kappa * rng.uniform(-1.9, 1.0), kappa))
    return {"triples": triples, "kernels": kernels}


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(count)]


def mc_wide(seed: int, tiny: bool) -> dict:
    sim_seed, decode_seed, noise_seed = _seeds(seed, 3)
    trials, steps = (64, 200) if tiny else (2048, 10_000)
    return {
        "channel": MC_CHANNEL,
        "sim": {"horizon": 10.0, "steps": steps, "trials": trials, "master_seed": sim_seed},
        "decode": {"horizon": 10.0, "steps": steps, "trials": trials,
                   "master_seed": decode_seed, "grid_size": 1024},
        "noise_channel": NOISE_CHANNEL,
        "noise": {"horizon": 10.0, "steps": 200, "trials": 200 if tiny else 10_000,
                  "master_seed": noise_seed},
    }


def mc_long(seed: int, tiny: bool) -> dict:
    (sim_seed,) = _seeds(seed, 1)
    trials, steps = (8, 1000) if tiny else (64, 100_000)
    return {
        "channel": MC_CHANNEL,
        "sim": {"horizon": 10.0, "steps": steps, "trials": trials, "master_seed": sim_seed},
        "lags": 20,
    }


def cli_cold(seed: int, tiny: bool) -> dict:
    """The README's CLI examples, with a small seeded simulation."""
    (sim_seed,) = _seeds(seed, 1)
    sim_seed %= 1_000_000
    trials, steps = ("20", "200") if tiny else ("50", "1000")
    return {"argvs": [
        ["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2",
         "--route", "closed", "--format", "json"],
        ["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2",
         "--route", "all", "--format", "json"],
        ["spectrum", "--lambda", "1", "--kappa", "1", "--power", "1",
         "--sweep", "flat", "--format", "json"],
        ["spectrum", "--lambda", "0", "--kappa", "1", "--power", "2",
         "--sweep", "waterfill", "--band", "1000", "--format", "json"],
        ["simulate", "--lambda", "-1", "--kappa", "1", "--power", "2",
         "--trials", trials, "--steps", steps, "--seed", str(sim_seed),
         "--format", "json"],
    ]}


def generate(workload: str, seed: int, tiny: bool = False) -> dict:
    if workload == "routes_sweep":
        return routes_sweep(seed)
    return {"mc_wide": mc_wide, "mc_long": mc_long, "cli_cold": cli_cold}[workload](seed, tiny)
