import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lundberg.cli import main
from lundberg.config import config_to_dict, load_config, parse_config
from lundberg.errors import ConfigError
from lundberg.presets import figure_config, preset_names


@pytest.fixture()
def fig1_config(tmp_path):
    cfg = figure_config("fig1")
    cfg["solver"]["x_max"] = 4000.0
    cfg["reserves"] = [100.0, 2000.0]
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def two_risk_config(tmp_path):
    cfg = figure_config("fig3")
    cfg["solver"]["x_max"] = 3000.0
    cfg["reserves"] = [3000.0]
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_curve_with_contract_header(fig1_config, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", str(fig1_config), "--out-dir", str(out)])
    assert rc == 0
    text = (out / "ruin_curve.csv").read_text()
    assert text.splitlines()[0] == "x,survival,ruin"
    assert "\r" not in text
    sidecar = json.loads((out / "ruin_curve.json").read_text())
    assert "generated_at" in sidecar and "fingerprint" in sidecar


def test_solve_is_idempotent_modulo_timestamp(fig1_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", str(fig1_config), "--out-dir", str(out1)]) == 0
    assert main(["solve", str(fig1_config), "--out-dir", str(out2)]) == 0
    assert (out1 / "ruin_curve.csv").read_bytes() == (out2 / "ruin_curve.csv").read_bytes()
    s1 = json.loads((out1 / "ruin_curve.json").read_text())
    s2 = json.loads((out2 / "ruin_curve.json").read_text())
    s1.pop("generated_at"), s2.pop("generated_at")
    assert s1 == s2


def test_solve_two_risk_company_model(two_risk_config, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", str(two_risk_config), "--out-dir", str(out), "--dump-decomposition"])
    assert rc == 0
    assert (out / "ruin_curve.csv").exists()
    header = (out / "ruin_curve_decomposition.csv").read_text().splitlines()[0]
    assert header.startswith("x,sf_only1")


def test_solve_series_solver_flag(fig1_config, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", str(fig1_config), "--out-dir", str(out), "--solver", "series",
               "--x-max", "2000"])
    assert rc == 0
    sidecar = json.loads((out / "ruin_curve.json").read_text())
    assert sidecar["solver"] == "series"


def test_solve_exit_codes(tmp_path, fig1_config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"risks": []}))
    assert main(["solve", str(bad)]) == 2
    # zero loading: fixed cost eats the premium, margin printed on stderr
    cfg = json.loads(fig1_config.read_text())
    cfg["loadings"] = [0.0]
    noprofit = tmp_path / "noprofit.json"
    noprofit.write_text(json.dumps(cfg))
    assert main(["solve", str(noprofit), "--out-dir", str(tmp_path)]) == 3
    assert main(["solve", str(tmp_path / "missing.json")]) == 2


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_single_emits_closed_forms(fig1_config, tmp_path):
    out = tmp_path / "out"
    rc = main(["optimize", str(fig1_config), "--criterion", "ruin", "--out-dir", str(out)])
    assert rc == 0
    payload = json.loads((out / "optimize_ruin_single.json").read_text())
    assert payload["results"][0]["loading"] == pytest.approx(0.435, abs=0.005)
    rc = main(["optimize", str(fig1_config), "--criterion", "profit", "--out-dir", str(out)])
    assert rc == 0
    payload = json.loads((out / "optimize_profit_single.json").read_text())
    assert payload["results"][0]["loading"] == pytest.approx(0.359, abs=0.005)


def test_optimize_common_mode_writes_sweep(two_risk_config, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "optimize", str(two_risk_config), "--criterion", "ruin", "--mode", "common",
        "--reserve", "2000", "--sweep-step", "0.02", "--out-dir", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "optimize_ruin_common.json").read_text())
    assert 0.3 < payload["loading"] < 0.5
    sweep = (out / "optimize_ruin_common_sweep.csv").read_text().splitlines()
    assert sweep[0] == "theta,ruin,profit,feasible"


def test_optimize_separate_mode_writes_its_own_sweep(two_risk_config, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "optimize", str(two_risk_config), "--criterion", "ruin", "--mode", "separate",
        "--reserve", "2000", "--sweep-step", "0.05", "--no-refine", "--out-dir", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "optimize_ruin_separate.json").read_text())
    lines = (out / "optimize_ruin_separate_sweep.csv").read_text().splitlines()
    assert lines[0] == "theta1,theta2,ruin,profit,feasible"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 20 * 20 == payload["diagnostics"]["sweep_points"]
    best = min(r[2] for r in rows if r[4] == 1)
    assert best == pytest.approx(payload["diagnostics"]["grid_value"], rel=1e-11)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_deterministic_bytes(fig1_config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["simulate", str(fig1_config), "--paths", "500", "--seed", "7", "--dump-times"]
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "simulate.json").read_bytes() == (out2 / "simulate.json").read_bytes()
    assert (out1 / "simulate_times.csv").read_bytes() == (out2 / "simulate_times.csv").read_bytes()


def test_simulate_zero_intensity(tmp_path):
    cfg = {
        "risks": [{"lambda": 0.0, "severity": {"kind": "exponential", "mean": 100.0}}],
        "premium_rate": 10.0,
        "reserves": [50.0],
        "solver": {"grid_step": 1.0, "x_max": 50.0},
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--paths", "100", "--out-dir", str(out)]) == 0
    payload = json.loads((out / "simulate.json").read_text())
    assert payload["estimate"]["probability"] == 0.0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def test_reproduce_fig1_summary(tmp_path):
    out = tmp_path / "repro"
    rc = main(["reproduce", "fig1", "--out-dir", str(out), "--sweep-step", "0.02",
               "--grid-step", "10"])
    assert rc == 0
    summary = json.loads((out / "fig1" / "summary.json").read_text())
    res = summary["results"]
    assert res["theta_ruin"] == pytest.approx(0.435, abs=0.005)
    assert res["theta_profit"] == pytest.approx(0.359, abs=0.005)
    # the ruin sweep argmin lands on the closed form within the sweep step
    for argmin in res["sweep_argmin_by_reserve"].values():
        assert argmin == pytest.approx(res["theta_ruin"], abs=0.02 + 1e-12)
    assert (out / "fig1" / "fig1_sweep.csv").exists()


def test_series_accuracy_failure_exits_4(fig1_config, tmp_path):
    cfg = json.loads(fig1_config.read_text())
    cfg["solver"]["series_terms"] = 1
    cfg["solver"]["x_max"] = 20_000.0
    path = tmp_path / "short_series.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", str(path), "--solver", "series", "--out-dir", str(tmp_path)]) == 4


def test_reproduce_unknown_figure(tmp_path):
    assert main(["reproduce", "fig99", "--out-dir", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# configuration round trip and validation
# ---------------------------------------------------------------------------

def test_config_round_trip_all_presets():
    for name in preset_names():
        cfg = parse_config(figure_config(name))
        echoed = config_to_dict(cfg)
        again = config_to_dict(parse_config(echoed))
        assert echoed == again


def test_config_rejects_tau_and_omega_together():
    cfg = figure_config("fig3")
    cfg["acquisition_copula"] = {"family": "clayton", "tau": 0.5, "omega": 1.0}
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_config_rejects_unknown_keys_and_bad_shapes():
    with pytest.raises(ConfigError):
        parse_config({"risks": [], "reserves": [1.0]})
    with pytest.raises(ConfigError):
        parse_config({
            "risks": [{"lambda": 1.0, "severity": {"kind": "exponential", "mean": 1.0}}],
            "reserves": [1.0], "premium_rate": 2.0, "extra": 1,
        })
    with pytest.raises(ConfigError) as err:
        parse_config({
            "risks": [{"lambda": 1.0, "severity": {"kind": "nope"}}],
            "reserves": [1.0], "premium_rate": 2.0,
        })
    assert "severity" in str(err.value)


def test_config_demand_count_must_match():
    cfg = figure_config("fig3")
    cfg["demand"] = cfg["demand"][:1]
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_env_var_out_dir(fig1_config, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("LUNDBERG_OUTDIR", str(target))
    assert main(["solve", str(fig1_config)]) == 0
    assert (target / "ruin_curve.csv").exists()


def test_load_config_reports_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line" in str(err.value)


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats and scipy.signal each add about half a second to start-up
    import lundberg

    env = dict(os.environ, PYTHONPATH=str(Path(lundberg.__file__).parents[1]))
    code = ("import sys, lundberg; "
            "print([m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
