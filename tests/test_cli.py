import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lundberg.cli import _write_sweep, main
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


# SHA-256 of every file `reproduce` writes for each preset at --grid-step 25
# --sweep-step 0.05; a change to the sweeps or to the summaries must
# leave these bytes alone.
_REPRODUCE_SHA256 = {
    "fig1": {
        "fig1_sweep.csv":
            "48c9fb211d4cc81d10e56e1a4bbd39401ba967ddb4835da508da6e19a1b72ad1",
        "summary.json":
            "764a898f76bd7704a76df663cbf0fd69d7552d36600b407997076d5f0c5b6511",
    },
    "fig1-alt": {
        "fig1-alt_sweep.csv":
            "d312838ee41b397dc6485557015c2cbf55eab10d41f90c1a98256a2b5da23540",
        "summary.json":
            "bdc4822ecd829a074a977c2c2a18dfeda2ada4af1e238873ca3643cc90b1c6e5",
    },
    "fig2": {
        "fig2_sweep.csv":
            "80273e28ef9999c5ac03936e30238e595ca357da0d1eb75e732b2730f88abe7d",
        "summary.json":
            "db1f057dc3790bf3ff7f31e910b9f6643feaa49f7686e6104d0decd8c7a0a287",
    },
    "fig2-alt": {
        "fig2-alt_sweep.csv":
            "983d79969a816094ef3217b444df45a73560c716e22b7033940e3396a24d4104",
        "summary.json":
            "ca3e6b6a9deeda47d37df7f29dba92c92a81973ee30312d877d971ae33512934",
    },
    "fig3": {
        "fig3_sweep_dependent.csv":
            "510b8a774b6dbf90797f7f6313df5990d0e2d91fb382a8d0885ca057aad8d784",
        "fig3_sweep_independent.csv":
            "03e4d5c6c2644a1f47f6c1884de7677f5270ebc40d9b6c61e4eca8fa753bf769",
        "summary.json":
            "a79f05ca3ff1009a41cbd607cf73c25eb0bd40c57e6b302ae98d44f51807cfea",
    },
    "fig3-omega05": {
        "fig3-omega05_sweep_dependent.csv":
            "1d2523dee3f8879cfbe342139ea1e5fbcf8382d024beb2c755af2aab0c4aee12",
        "fig3-omega05_sweep_independent.csv":
            "03e4d5c6c2644a1f47f6c1884de7677f5270ebc40d9b6c61e4eca8fa753bf769",
        "summary.json":
            "480b98146562bcc8b036f681409bb5af3c134407d186d202b8b11441895ab024",
    },
    "fig4": {
        "fig4_grid.csv":
            "076902eb39fb744a56dc5837cfd35b135f44b7be67233abeccb8ef4688fea132",
        "summary.json":
            "0e5354a3a2778fc4c36f5c6a548a3fc099e23a3f76e556334daf8f26f4926f7a",
    },
    "fig5": {
        "fig5_grid.csv":
            "a2f7a4c65f75ada76f9fb6a28347d64923444e8c7fac49699b9c0d83dc1d3157",
        "summary.json":
            "14ca1a96b3b8a67955474e73231e953481e3772a42a75ac1bf60e232106f35c6",
    },
    "fig6": {
        "fig6_sweep_clayton_tau0.05.csv":
            "592cc9358ea1507fc46d1cfe3a1144d9c3d5785898bc2f9667158943b4058abb",
        "fig6_sweep_clayton_tau0.25.csv":
            "30859ba8620594f999ab619b9d4617c499372481150f5d63c4374c2eb63b8f96",
        "fig6_sweep_clayton_tau0.5.csv":
            "dd8823eccf92d2f535d522662eb2b3d6d0834f0dfb84f85f71713d02f6bbf868",
        "fig6_sweep_gumbel_tau0.05.csv":
            "5b885b089560079988deda4481485d80107cc7fdcb9b6eba98abbc04b89c8069",
        "fig6_sweep_gumbel_tau0.25.csv":
            "1e95f5fb0124e52f15570e206f199dcaade91a9938c994f3b4913b071b059de4",
        "fig6_sweep_gumbel_tau0.5.csv":
            "5bccb9d742fa0b3247fdad59ecb6fa7fc626fb28e0dbd4369f1ddff0e7e555e5",
        "fig6_sweep_independent.csv":
            "475b47242f0c2575992158064c6f4a8991d593e5d4b55bd148043cb8b203113d",
        "summary.json":
            "a22cba4a9fd3df5a65f5febc2db23be6700f422d4adc97d848416d6f5b36f073",
    },
}


@pytest.mark.parametrize("name", sorted(_REPRODUCE_SHA256))
def test_reproduce_bytes_are_pinned(name, tmp_path):
    assert main(["reproduce", name, "--out-dir", str(tmp_path), "--grid-step", "25",
                 "--sweep-step", "0.05"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / name).iterdir()}
    assert written == _REPRODUCE_SHA256[name]


def test_two_risk_simulate_is_pinned_and_builds_no_grid(tmp_path, monkeypatch):
    # simulate.json of fig5 at 20,000 paths and seed 3 (p = 0.601350), recorded while
    # the command still built the grid decomposition that it never read
    def no_grid(*args, **kwargs):
        raise AssertionError("lundberg simulate built a grid decomposition")

    monkeypatch.setattr("lundberg.cli.decompose", no_grid)
    path = tmp_path / "fig5.json"
    path.write_text(json.dumps(figure_config("fig5")))
    assert main(["simulate", str(path), "--paths", "20000", "--seed", "3",
                 "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "simulate.json").read_bytes()).hexdigest()
    assert digest == "7464cea34f89175d1bc75f389427f62960770d8d6f0558f1ff8f2fc055ad76b6"


def test_two_risk_simulate_without_claims_exits_2(tmp_path):
    cfg = figure_config("fig5")
    cfg["loadings"] = [200.0, 200.0]  # both take rates underflow to 0
    path = tmp_path / "fig5.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", str(path), "--paths", "100", "--out-dir", str(tmp_path)]) == 2


def test_sweep_minimum_skips_infeasible_and_nan_points_and_keeps_the_first_tie(tmp_path):
    thetas = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    ruin = np.array([[0.01, 0.5], [np.nan, 0.25], [0.2, 0.3], [0.2, 0.3], [0.3, 0.6]])
    feasible = np.array([False, True, True, True, True])
    best = _write_sweep(tmp_path / "s.csv", thetas, thetas, ruin, feasible, [100.0, 2000.0])
    assert best == {"100": (0.3, 0.2), "2000": (0.2, 0.25)}
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[:3] == ["theta,profit,ruin_at_100,ruin_at_2000", "0.1,0.1,0.01,0.5", "0.2,0.2,nan,0.25"]


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
