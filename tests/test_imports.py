"""The runtime needs the standard library, and numpy only where it builds
arrays.  Checked in fresh interpreters: no import, subcommand or public
entry point loads any scipy module; `import oucap` does not load
importlib.metadata or numpy; every subcommand but simulate runs with numpy
blocked and prints what it prints with numpy, and so do the float entry
points (the ODE route, the kernel ratios, the scalar noise density and
both sweeps); a cold simulation that runs on one thread loads neither the
thread pool nor numpy.ma; the lazy package exports bind every name of
`__all__` and resolve submodules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oucap

SRC = str(Path(oucap.__file__).resolve().parent.parent)

PRELUDE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(body: str) -> str:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_closed_form_cli_load_no_scipy():
    out = run_fresh("""
import oucap
assert scipy_modules() == [], scipy_modules()
assert "importlib.metadata" not in sys.modules
from oucap.cli import main
assert main(["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2",
             "--route", "closed", "--format", "json"]) == 0
assert scipy_modules() == [], scipy_modules()
print("ok")
""")
    assert out.rstrip().endswith("ok")


def test_no_route_loads_scipy_signal_or_stats():
    out = run_fresh("""
import tempfile

from oucap import *
from oucap.cli import main

colored = ChannelParams(-0.5, 1.0, 2.0)
for params in (colored, ChannelParams(0.5, 1.0, 2.0), ChannelParams(-1.0, 1.0, 2.0)):
    feedback_capacity_closed_form(params)
    discrete_limit_capacity(params, DEFAULT_SWEEP_DELTAS)
    integrate_abel(abel_for_channel(params), horizon=10.0, step=0.01)
    discrete_limit_sweep(params, (1e-2, 1e-3))
    solve_arma_quartic(arma_from_step(params, 1e-2))
    classify_regime(params)
    noise_sdf(params, 0.5)
sk_rate_from_ode(integrate_abel(abel_for_channel(colored), horizon=50.0, step=0.05))
classify_root_convergence(abel_for_channel(colored), 50.0)
limiting_cubic_roots(abel_from_kernel(ou_resolvent_kernel(colored), 2.0))
kernel = ou_resolvent_kernel(colored)
traj = integrate_abel(abel_for_channel(colored), horizon=4.0, step=0.004)
l = sample_kernel(kernel, horizon=4.0, n=101)
resolvent_residual(recover_h_from_l(l), l)

cfg = SimConfig(horizon=4.0, steps=200, trials=8, master_seed=1)
from oucap.simulate import _draw_batch
xi1 = _draw_batch(cfg.master_seed, 0, 1, cfg.steps, 0)[2]
arma_recursion_residual(stationary_arma_noise(colored, cfg)[0], cfg.delta ** 0.5 * xi1[0],
                        colored, cfg.delta)
rep = run_sk_scheme(colored, cfg, traj, return_innovations=True)
ljung_box(rep.innovations)
decode_message(colored, cfg, traj, grid_size=16)

pinsker_rate(InputSpectrum.two_sided_flat(1.0, 2.0, 0.5), colored)
flat_input_limit_sweep(colored, (4.0,), (8.0,))
waterfill_bandlimited(colored, 10.0, 2.0)
p_max(colored)
assert isinstance(__version__, str)

for argv in (
    ["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2", "--route", "all"],
    ["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2", "--route", "ode"],
    ["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2", "--route", "discrete"],
    ["simulate", "--lambda", "-1", "--kappa", "1", "--power", "2",
     "--horizon", "2", "--steps", "200", "--trials", "8"],
    ["spectrum", "--lambda", "1", "--kappa", "1", "--power", "1"],
    ["spectrum", "--lambda", "0", "--kappa", "1", "--power", "2",
     "--sweep", "waterfill", "--band", "100",
     "--out", tempfile.mkdtemp() + "/waterfill"],
):
    assert main(argv + ["--format", "json"]) == 0

assert scipy_modules() == [], scipy_modules()
print("ok")
""")
    assert out.rstrip().endswith("ok")


README_EXAMPLES = (
    ["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2", "--route", "closed"],
    ["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2", "--route", "all"],
    ["simulate", "--lambda", "-1", "--kappa", "1", "--power", "2", "--trials", "20",
     "--steps", "200", "--seed", "0", "--out", "{tmp}/runs/base"],
    ["spectrum", "--lambda", "1", "--kappa", "1", "--power", "1", "--sweep", "flat"],
    ["spectrum", "--lambda", "0", "--kappa", "1", "--power", "2", "--sweep", "waterfill",
     "--band", "1000"],
)


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=(
    "capacity-closed", "capacity-all", "simulate", "spectrum-flat", "spectrum-waterfill"))
def test_readme_cli_example_loads_no_scipy(argv, tmp_path):
    argv = [a.format(tmp=tmp_path) for a in argv]
    out = run_fresh(f"""
from oucap.cli import main
assert main({argv!r}) == 0
assert scipy_modules() == [], scipy_modules()
print("ok")
""")
    assert out.rstrip().endswith("ok")


def test_import_loads_no_numpy():
    out = run_fresh("""
import oucap
assert "numpy" not in sys.modules
assert not [m for m in sys.modules if m.startswith("oucap.")], sorted(sys.modules)
print("ok")
""")
    assert out.rstrip().endswith("ok")


CHANNEL = ["--lambda", "-0.5", "--kappa", "1", "--power", "2"]
NUMPY_FREE_COMMANDS = (
    *(["capacity", *CHANNEL, "--route", route] for route in ("closed", "discrete", "ode", "all")),
    ["spectrum", "--lambda", "1", "--kappa", "1", "--power", "1", "--sweep", "flat"],
    ["spectrum", "--lambda", "0", "--kappa", "1", "--power", "2", "--sweep", "waterfill",
     "--band", "1000"],
)

BLOCK_NUMPY = """
sys.modules["numpy"] = None  # `import numpy` now raises ImportError
"""


def cli_stdout(argvs, block: bool) -> list:
    """Exit code and stdout of each argv, run in turn through cli.main in one
    fresh interpreter, with numpy blocked or not; the interpreter fails
    unless numpy is still unloaded at the end."""
    out = run_fresh((BLOCK_NUMPY if block else "") + f"""
import contextlib
import io
import json

from oucap.cli import main

runs = []
for argv in {argvs!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    runs.append([code, buf.getvalue()])
assert not [m for m in sys.modules if m.split(".")[0] == "numpy" and sys.modules[m]]
print(json.dumps(runs))
""")
    return json.loads(out)


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=(
    "capacity-closed", "capacity-discrete", "capacity-ode", "capacity-all",
    "spectrum-flat", "spectrum-waterfill"))
def test_command_runs_without_numpy_and_prints_the_same(argv):
    argvs = [argv + ["--format", fmt] for fmt in ("text", "csv", "json")]
    blocked, free = cli_stdout(argvs, block=True), cli_stdout(argvs, block=False)
    assert [code for code, _ in blocked] == [0, 0, 0]
    assert blocked == free


def test_waterfill_out_runs_without_numpy_and_writes_the_same(tmp_path):
    base = tmp_path / "waterfill"
    argvs = [NUMPY_FREE_COMMANDS[-1] + ["--format", "csv", "--out", str(base)]]
    written = []
    for block in (True, False):
        runs = cli_stdout(argvs, block)
        assert runs[0][0] == 0
        written.append((runs, base.with_suffix(".csv").read_bytes()))
    assert written[0] == written[1]


def test_float_entry_points_run_without_numpy():
    out = run_fresh(BLOCK_NUMPY + """
from oucap import (ChannelParams, Route, abel_for_channel, classify_root_convergence,
                   flat_input_limit_sweep, noise_sdf, ou_resolvent_kernel, sk_rate_from_ode,
                   solve_abel, waterfill_bandlimited)

colored = ChannelParams(-0.5, 1.0, 2.0)
coeffs = abel_for_channel(colored)
assert sk_rate_from_ode(solve_abel(coeffs, 50.0)).route is Route.ODE_LIMIT
assert classify_root_convergence(coeffs, 50.0).case
for params in (colored, ChannelParams(-1.0, 1.0, 2.0)):
    kernel = ou_resolvent_kernel(params)
    kernel.lu_over_ld(1.0), kernel.ld_prime_over_ld(1.0)
assert isinstance(noise_sdf(colored, 0.5), float)
waterfill_bandlimited(colored, 10.0, 2.0)
flat_input_limit_sweep(colored, (4.0,), (8.0,))
print("ok")
""")
    assert out.rstrip().endswith("ok")


def test_cold_one_thread_simulation_loads_no_thread_pool():
    # 50 trials x 1000 steps draw on one part, and simulate does not decode
    out = run_fresh("""
from oucap.cli import main
assert main(["simulate", "--lambda", "-1", "--kappa", "1", "--power", "2",
             "--trials", "50", "--steps", "1000", "--seed", "0", "--format", "json"]) == 0
assert "concurrent.futures" not in sys.modules
assert "statistics" not in sys.modules
assert "numpy.ma" not in sys.modules
print("ok")
""")
    assert out.rstrip().endswith("ok")


def test_lazy_exports_bind_all_and_resolve_submodules():
    out = run_fresh("""
import oucap

assert "oucap.backends" not in sys.modules
backends = getattr(oucap, "backends")
assert backends is sys.modules["oucap.backends"]
assert callable(backends.get_backend)

namespace = {}
exec("from oucap import *", namespace)
missing = [name for name in oucap.__all__ if name not in namespace]
assert not missing, missing
assert set(oucap.__all__) <= set(dir(oucap))
assert oucap.noise_sdf is namespace["noise_sdf"]
for name in ("available_backends", "no_such_name", "_no_such_module"):
    try:
        getattr(oucap, name)
    except AttributeError:
        pass
    else:
        raise AssertionError(name)
    assert getattr(oucap, name, None) is None
print("ok")
""")
    assert out.rstrip().endswith("ok")
