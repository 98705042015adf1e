import itertools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import oucap
import oucap.abel as abel
import oucap.simulate as simulate
from oucap.cli import main


def load_schema(name):
    path = resources.files("oucap") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check(name, payload):
    jsonschema.Draft7Validator(load_schema(name)).validate(payload)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    # the simulate subcommand prints a one-line summary before the payload
    body = out[out.index("{"):]
    return json.loads(body)


def test_capacity_white_closed_form_text(capsys):
    code = main(["capacity", "--lambda", "0", "--kappa", "1", "--power", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "value=1.5" in out
    assert "WhiteEquivalent" in out
    assert "ClosedForm" in out


def test_capacity_all_routes_agree(capsys):
    payload = run_json(
        capsys,
        ["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2",
         "--route", "all"],
    )
    check("capacity", payload)
    routes = [r["route"] for r in payload["results"]]
    assert routes == ["ClosedForm", "OdeLimit", "DiscreteLimit"]
    values = [r["value"] for r in payload["results"]]
    assert max(values) - min(values) < 1e-2
    assert payload["max_discrepancy"] < 1e-2
    assert values[0] == pytest.approx(1.547911999318, abs=1e-9)


def test_white_regime_discrepancy_leaves_out_the_schemes_rate(capsys):
    # outside the colored regime the ODE route is the scheme's rate 0.576,
    # not the capacity 1: the discrepancy once read 0.424
    payload = run_json(capsys, ["capacity", "--lambda", "0.5", "--kappa", "1",
                                "--power", "2", "--route", "all"])
    check("capacity", payload)
    values = {r["route"]: r["value"] for r in payload["results"]}
    assert values["OdeLimit"] < 0.6
    assert payload["max_discrepancy"] == abs(values["ClosedForm"] - values["DiscreteLimit"])
    assert payload["max_discrepancy"] < 1e-8


def test_capacity_single_route_no_discrepancy(capsys):
    payload = run_json(capsys, ["capacity", "--lambda", "-0.5", "--kappa", "1",
                                "--power", "2"])
    check("capacity", payload)
    assert payload["max_discrepancy"] is None
    assert len(payload["results"]) == 1


def test_discrete_route_at_high_power_exits_three(capsys):
    assert main(["capacity", "--lambda=-0.5", "--kappa", "1", "--power", "1e4",
                 "--route", "discrete"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_capacity_ode_route_critical_coloring_fails(capsys):
    code = main(["capacity", "--lambda", "-1", "--kappa", "1", "--power", "2",
                 "--route", "ode"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.filterwarnings("error")
def test_fast_channel_runs_ode_route_and_simulation(capsys):
    # |kappa + lambda| = 9: the raw kernel factors overflow before t = 100,
    # but the ODE route and the simulation only use the overflow-safe ratios
    channel = ["--lambda", "-1", "--kappa", "10", "--power", "2"]
    payload = run_json(capsys, ["capacity", *channel, "--route", "all"])
    closed, ode = (r["value"] for r in payload["results"][:2])
    assert ode == pytest.approx(closed, rel=0, abs=1e-8)
    assert main(["simulate", *channel, "--horizon", "2", "--steps", "200",
                 "--trials", "8"]) == 0


def test_invalid_kappa_exits_two(capsys):
    code = main(["capacity", "--lambda", "0", "--kappa", "-1", "--power", "1"])
    assert code == 2
    assert "kappa" in capsys.readouterr().err


ODE_CHANNEL = ["--lambda", "-0.5", "--kappa", "1", "--power", "2", "--route", "ode"]


@pytest.mark.parametrize("argv, code", [
    (["capacity", *ODE_CHANNEL, "--horizon", "nan"], 2),
    # refused, not integrated: an infinite horizon never finishes
    (["capacity", *ODE_CHANNEL, "--horizon", "inf"], 2),
    # kappa far below |lambda|: the kernel's float ratios divide by zero
    (["capacity", "--lambda", "-0.5", "--kappa", "1e-300", "--power", "2", "--route", "ode"], 3),
    (["capacity", "--lambda", "0.5", "--kappa", "1e-20", "--power", "2", "--route", "ode"], 3),
    (["simulate", "--lambda", "-0.5", "--kappa", "1e-300", "--power", "2",
      "--steps", "100", "--trials", "2"], 3),
], ids=["horizon-nan", "horizon-inf", "kappa-1e-300", "kappa-1e-20", "simulate-kappa-1e-300"])
def test_failures_reach_the_user_as_errors_not_tracebacks(argv, code):
    src = str(Path(oucap.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "oucap.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == code
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_ode_step_budget_exits_three(capsys, monkeypatch):
    # at P = 2e3 a horizon of 50 takes about 15 000 steps, past a budget of
    # 1000 attempts; P = 2 takes 182
    monkeypatch.setattr(abel, "_MAX_ATTEMPTS", 1000)
    code = main(["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2e3",
                 "--route", "ode"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "stability limit" in captured.err
    assert "Traceback" not in captured.err
    assert main(["capacity", *ODE_CHANNEL]) == 0


def test_simulation_too_large_for_memory_exits_two(capsys, monkeypatch):
    # physical memory patched to 1 MB: a run refused before it allocates
    monkeypatch.setattr(simulate, "_physical_memory", lambda: 1 << 20)
    code = main(["simulate", "--lambda", "-1", "--kappa", "1", "--power", "2",
                 "--steps", "2000", "--trials", "100"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "physical memory" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag, value, message", [
    ("--steps", "1000000000000", "physical memory"),
    ("--trials", "4294967297", "2**32"),
], ids=["steps-1e12", "trials-2**32+1"])
def test_oversize_simulation_exits_two_before_it_allocates(capsys, monkeypatch, flag, value,
                                                           message):
    # a plan of 1e12 steps alone would not fit: the run is refused before
    # the plan, the first thing a run allocates, is built, not by numpy's
    # allocation error
    monkeypatch.setattr(simulate, "_prepare_scheme",
                        lambda *args, **kwargs: pytest.fail("the plan was built"))
    code = main(["simulate", "--lambda=-0.5", "--kappa", "1", "--power", "2", flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("spaced, joined", [
    (["--lambda", "-5e-1"], ["--lambda=-0.5"]),
    (["--lambda", "-1e-3"], ["--lambda=-0.001"]),
    (["--lambda", "-5E-1"], ["--lambda=-.5"]),
])
def test_negative_numbers_in_exponent_notation_are_values(capsys, spaced, joined):
    # argparse took "-5e-1" for an option: "--lambda: expected one argument"
    rest = ["--kappa", "1", "--power", "2", "--route", "all", "--format", "json"]
    assert main(["capacity", *spaced, *rest]) == 0
    out = capsys.readouterr().out
    assert main(["capacity", *joined, *rest]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("power", ["1e103", "8e307", "1e308"])
def test_capacity_closed_form_at_high_power(capsys, power):
    # the closed form's cubic overflowed: -inf, an OverflowError traceback,
    # and at 1e308 a JSON NaN error under --format text
    assert main(["capacity", "--lambda=-0.5", "--kappa", "1", "--power", power]) == 0
    assert f"value={float(power) / 2:.12g}" in capsys.readouterr().out


def test_waterfill_at_the_largest_power_matches_the_flat_noise_column(capsys):
    # white noise: the level is S_z + P/(2W) and the rate the column's
    # (W/2pi) log1p(pi P/W), whose pi P overflowed to a null column
    payload = run_json(capsys, ["spectrum", "--lambda", "0", "--kappa", "1",
                                "--power", "1e308", "--sweep", "waterfill"])
    check("spectrum", payload)
    for row in payload["rows"]:
        assert row["level"] == pytest.approx(1e308 / (2.0 * row["band"]), rel=1e-12)
        assert row["rate"] == pytest.approx(row["analytic_limit"], rel=1e-12)


FUZZ_LAMBDAS = (0.5, -0.5, -1.0, -2.0, 0.0, 1e308, -1e308, 1e-300, -1e-300)
FUZZ_KAPPAS = (1.0, 1e-300, 1e308, 1e-20, 1e20)
FUZZ_POWERS = (2.0, 0.0, 1e308, 1e-300)
FUZZ_RUNS = (("capacity", "--route", "closed"), ("capacity", "--route", "discrete"),
             ("spectrum", "--sweep", "flat"), ("spectrum", "--sweep", "waterfill"))


def test_extreme_inputs_give_finite_output_or_a_typed_error(capsys):
    # every exception is a failure here, RuntimeWarnings included
    # (pyproject's filterwarnings); 720 calls
    for lam, kappa, power, run in itertools.product(FUZZ_LAMBDAS, FUZZ_KAPPAS,
                                                    FUZZ_POWERS, FUZZ_RUNS):
        argv = [run[0], f"--lambda={lam!r}", f"--kappa={kappa!r}", f"--power={power!r}",
                *run[1:], "--format", "json"]
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2, 3, 4), argv
        if code == 0:
            payload = json.loads(out)
            if len(payload.get("results", ())) == 1:
                # the one documented null: no discrepancy between a single route
                assert payload.pop("max_discrepancy") is None
            assert "null" not in json.dumps(payload), argv


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--lambda", "0", "--kappa", "1", "--power", "1",
              "--nonsense"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == oucap.__version__ + "\n"


def test_capacity_csv_format(capsys):
    code = main(["capacity", "--lambda", "0", "--kappa", "1", "--power", "3",
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "route,value,residual"
    assert lines[1].startswith("ClosedForm,1.5,")


SIM_ARGS = ["simulate", "--lambda", "0", "--kappa", "1", "--power", "2",
            "--horizon", "2", "--steps", "200", "--trials", "8", "--seed", "5"]


def test_simulate_stdout_summary(capsys):
    code = main(SIM_ARGS)
    assert code == 0
    out = capsys.readouterr().out
    assert "max MMSE z-score" in out
    assert "empirical rate" in out


def test_simulate_text_prints_mmse_z_score_once(capsys):
    assert main(SIM_ARGS + ["--format", "text"]) == 0
    assert capsys.readouterr().out.count("max MMSE z-score") == 1


def test_simulate_json_payload(capsys):
    payload = run_json(capsys, SIM_ARGS)
    check("simulate", payload)
    assert payload["params"]["master_seed"] == 5
    assert payload["empirical_rate"] == pytest.approx(1.0, abs=1e-6)
    assert len(payload["mmse_curve"]) == len(payload["power_curve"])


def test_simulate_out_files_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a" / "run"
    out_b = tmp_path / "b" / "run"
    assert main(SIM_ARGS + ["--out", str(out_a)]) == 0
    assert main(SIM_ARGS + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    csv_a = (tmp_path / "a" / "run.csv").read_bytes()
    csv_b = (tmp_path / "b" / "run.csv").read_bytes()
    assert csv_a == csv_b
    header = csv_a.split(b"\r\n")[0]
    assert header == b"time,mmse_emp,mmse_analytic,mmse_hw,power_emp,power_hw"
    json_a = (tmp_path / "a" / "run.json").read_bytes()
    json_b = (tmp_path / "b" / "run.json").read_bytes()
    assert json_a == json_b
    man_a = json.loads((tmp_path / "a" / "run.manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "run.manifest.json").read_text())
    check("manifest", man_a)
    man_a.pop("timestamp")
    man_b.pop("timestamp")
    assert man_a == man_b
    assert man_a["master_seed"] == 5
    assert man_a["parameters"]["trials"] == 8


def test_simulate_single_trial_half_widths(tmp_path, capsys):
    argv = ["simulate", "--lambda", "0", "--kappa", "1", "--power", "2",
            "--horizon", "2", "--steps", "200", "--trials", "1", "--seed", "0"]
    out = tmp_path / "one"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    csv_text = (tmp_path / "one.csv").read_text()
    assert ",inf," in csv_text  # half-widths undefined at a single trial
    payload = json.loads((tmp_path / "one.json").read_text())
    check("simulate", payload)
    assert payload["mmse_curve"][0]["mmse_hw"] is None
    assert payload["max_mmse_z"] is None or payload["max_mmse_z"] == 0.0


def test_simulate_rejects_zero_power(capsys):
    code = main(["simulate", "--lambda", "0", "--kappa", "1", "--power", "0"])
    assert code == 2
    assert "power" in capsys.readouterr().err


def test_spectrum_flat_text(capsys):
    code = main(["spectrum", "--lambda", "1", "--kappa", "1", "--power", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("flat sweep")
    assert "analytic_limit" in out


def test_spectrum_flat_json(capsys):
    payload = run_json(capsys, ["spectrum", "--lambda", "1", "--kappa", "1",
                                "--power", "1"])
    check("spectrum", payload)
    assert len(payload["rows"]) == 16  # 4 widths x 4 offsets
    last = payload["rows"][-1]
    assert abs(last["rate"] - 0.5) < 0.005 * 0.5


def test_spectrum_waterfill_json(capsys):
    payload = run_json(
        capsys,
        ["spectrum", "--lambda", "0", "--kappa", "1", "--power", "2",
         "--sweep", "waterfill", "--band", "1000"],
    )
    check("spectrum", payload)
    assert len(payload["rows"]) == 9
    last = payload["rows"][-1]
    assert last["band"] == pytest.approx(1000.0)
    assert abs(last["rate"] - 1.0) < 4e-3
    rates = [r["rate"] for r in payload["rows"]]
    assert rates == sorted(rates)


def test_spectrum_waterfill_bad_band(capsys):
    code = main(["spectrum", "--lambda", "0", "--kappa", "1", "--power", "2",
                 "--sweep", "waterfill", "--band", "-5"])
    assert code == 2
    assert "band" in capsys.readouterr().err


def test_spectrum_out_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["spectrum", "--lambda", "1", "--kappa", "1", "--power", "1",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,rate,analytic_limit"
    assert len(lines) == 17
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    check("manifest", manifest)
    assert manifest["subcommand"] == "spectrum"


@pytest.mark.parametrize("argv,fmt,out", [
    (["spectrum", "--lambda", "1", "--kappa", "1", "--power", "1"], "json", "res.csv"),
    (["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2"], "csv", "res.json"),
    (["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2"], "text", "res.csv"),
], ids=("spectrum-json-as-csv", "capacity-csv-as-json", "capacity-text-as-csv"))
def test_out_suffix_must_match_format(tmp_path, capsys, argv, fmt, out):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", fmt, "--out", str(tmp_path / "o2" / out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "suffix" in err
    assert not (tmp_path / "o2").exists()


def test_simulate_out_writes_csv_and_json_whatever_the_suffix(tmp_path, capsys):
    assert main(SIM_ARGS + ["--format", "text", "--out", str(tmp_path / "run.txt")]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.csv", "run.json", "run.manifest.json"]


CHANNEL = {"lambda": -0.5, "kappa": 1.0, "power": 2.0}


@pytest.mark.parametrize("argv,parameters,master_seed", [
    (["capacity", "--lambda", "-0.5", "--kappa", "1", "--power", "2"],
     {**CHANNEL, "route": "closed", "horizon": 50.0}, None),
    (["simulate", "--lambda", "-0.5", "--kappa", "1", "--power", "2", "--horizon", "2",
      "--steps", "200", "--trials", "8", "--seed", "5"],
     {**CHANNEL, "horizon": 2.0, "steps": 200, "trials": 8}, 5),
    (["spectrum", "--lambda", "-0.5", "--kappa", "1", "--power", "2", "--sweep", "waterfill",
      "--band", "100"],
     {**CHANNEL, "sweep": "waterfill", "band": 100.0}, None),
], ids=("capacity", "simulate", "spectrum"))
def test_out_manifest_records_the_parsed_options(tmp_path, capsys, argv, parameters,
                                                   master_seed):
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    [path] = tmp_path.glob("*.manifest.json")
    manifest = json.loads(path.read_text())
    check("manifest", manifest)
    assert manifest["subcommand"] == argv[0]
    assert manifest["parameters"] == parameters
    assert manifest["master_seed"] == master_seed
    assert manifest["version"] == oucap.__version__


@pytest.mark.parametrize("band", [1000.0, 3.7, 2.5e5])
def test_waterfill_bands_are_a_geometric_grid_with_exact_ends(capsys, band):
    # numpy's geomspace on libm: numpy's SIMD log10 and power may differ
    # from libm's in the last bit, which 10^y scales up to a few ulp
    import numpy as np

    payload = run_json(capsys, ["spectrum", "--lambda=-0.5", "--kappa", "1", "--power", "2",
                                "--sweep", "waterfill", "--band", repr(band)])
    bands = np.array([row["band"] for row in payload["rows"]])
    assert bands[0] == band / 100.0 and bands[-1] == band
    np.testing.assert_allclose(bands, np.geomspace(band / 100.0, band, 9), rtol=1e-14, atol=0.0)
