import json
from importlib import resources

import jsonschema
import pytest

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


def test_capacity_single_route_no_discrepancy(capsys):
    payload = run_json(capsys, ["capacity", "--lambda", "-0.5", "--kappa", "1",
                                "--power", "2"])
    check("capacity", payload)
    assert payload["max_discrepancy"] is None
    assert len(payload["results"]) == 1


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


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--lambda", "0", "--kappa", "1", "--power", "1",
              "--nonsense"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


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
