import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lundberg import market, optimize
from lundberg.cli import main
from lundberg.config import config_to_dict, load_config, parse_config
from lundberg.distributions import Gridded
from lundberg.errors import ConfigError
from lundberg.presets import figure_config, preset_names


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


def test_solve_two_risk_decomposes_at_the_requested_grid_step(two_risk_config, tmp_path):
    # the config's step is 2; the market must be discretized on the solver's grid
    out = tmp_path / "out"
    assert main(["solve", str(two_risk_config), "--out-dir", str(out), "--grid-step", "40",
                 "--dump-decomposition"]) == 0
    rows = (out / "ruin_curve_decomposition.csv").read_text().splitlines()[1:]
    x = np.array([float(row.split(",")[0]) for row in rows])
    assert x.size > 2
    assert np.array_equal(x, 40.0 * np.arange(x.size))


def test_solve_sidecar_records_the_settings_that_made_the_curve(fig1_config, tmp_path):
    # the flags set the solver; the echoed config keeps what the file says
    assert main(["solve", str(fig1_config), "--grid-step", "10", "--out-dir", str(tmp_path)]) == 0
    sidecar = json.loads((tmp_path / "ruin_curve.json").read_text())
    assert sidecar["settings"] == {**sidecar["config"]["solver"], "grid_step": 10.0}
    assert sidecar["config"]["solver"]["grid_step"] == 2.0
    x = np.loadtxt(tmp_path / "ruin_curve.csv", delimiter=",", skiprows=1, usecols=0)
    assert np.array_equal(x, 10.0 * np.arange(x.size)) and x[-1] == sidecar["settings"]["x_max"]


def test_out_stem_may_name_a_subdirectory(fig1_config, tmp_path):
    assert main(["solve", str(fig1_config), "--out", "runs/a", "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["a.csv", "a.json"]


def test_solve_series_solver_flag(fig1_config, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", str(fig1_config), "--out-dir", str(out), "--solver", "series",
               "--x-max", "2000"])
    assert rc == 0
    sidecar = json.loads((out / "ruin_curve.json").read_text())
    assert sidecar["solver"] == "series"


def test_solve_dump_decomposition_of_an_independent_market_exits_2(tmp_path, capsys):
    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(figure_config("fig4")))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--grid-step", "25", "--dump-decomposition", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--dump-decomposition" in err and "levy_copula" in err
    assert not out.exists()


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


_ZERO_ATOM = {"kind": "gridded", "atoms": [0.0, 1000.0, 2000.0], "masses": [0.3, 0.4, 0.3]}


def test_solve_takes_a_zero_atom_unless_the_risks_are_coupled(tmp_path, capsys):
    single = figure_config("fig1")
    single["risks"][0]["severity"] = _ZERO_ATOM
    coupled = figure_config("fig5")
    coupled["risks"][0]["severity"] = _ZERO_ATOM
    idle = figure_config("fig5")
    idle["risks"][1]["lambda"] = 0.0
    for name, cfg, code in (("fig1", single, 0), ("fig5", coupled, 2), ("fig5-idle", idle, 2)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path), "--grid-step", "25", "--out-dir", str(tmp_path / name)]) == code
    # a coupled market's checks name the config field they fail at
    err = capsys.readouterr().err.splitlines()
    assert err == ["configuration error: risks: coupled risks need claim sizes without mass at 0",
                   "configuration error: risks: coupled risks need strictly positive intensities"]


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
# leave these bytes alone.  The fig3-omega05, fig5 and fig6 summaries were
# re-recorded when an exchangeable pair's lattice became a half lattice:
# their optima moved in the last digits (at most 5.8e-13 relative).
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
            "cd04749421155b870ad7c7dc92b4770f37d07e0c9e8c70e9619d9415a869bce6",
    },
    "fig3-omega05": {
        "fig3-omega05_sweep_dependent.csv":
            "1d2523dee3f8879cfbe342139ea1e5fbcf8382d024beb2c755af2aab0c4aee12",
        "fig3-omega05_sweep_independent.csv":
            "03e4d5c6c2644a1f47f6c1884de7677f5270ebc40d9b6c61e4eca8fa753bf769",
        "summary.json":
            "ce390de9f3f6da78f1cd0d1c0b1687f121628ebe67e10323ecf67ed5d2fdd561",
    },
    "fig4": {
        "fig4_grid.csv":
            "076902eb39fb744a56dc5837cfd35b135f44b7be67233abeccb8ef4688fea132",
        "summary.json":
            "e8fff2224cc9f6f1e62cafdbd60455b9346ce07038709aa3cc60cfd294bdf554",
    },
    "fig5": {
        "fig5_grid.csv":
            "a2f7a4c65f75ada76f9fb6a28347d64923444e8c7fac49699b9c0d83dc1d3157",
        "summary.json":
            "22d530f316786a8dc4576f7cf4e1567f86e9e4cb56a54b6e3707d57a2a8b8ead",
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
            "2bf3e8ac172b8228eac953d8adb7695cbb223ce9aeb1f6317d4ef690d35d88ed",
    },
}


@pytest.mark.parametrize("name", sorted(_REPRODUCE_SHA256))
def test_reproduce_bytes_are_pinned(name, tmp_path):
    assert main(["reproduce", name, "--out-dir", str(tmp_path), "--grid-step", "25",
                 "--sweep-step", "0.05"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / name).iterdir()}
    assert written == _REPRODUCE_SHA256[name]


def _sha256(path):
    """SHA-256 of a written file; a sidecar is hashed without its generated_at line."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(line for line in lines if not line.startswith(b'  "generated_at": '))
                          ).hexdigest()


# Runs of solve, optimize and simulate on the fig1 and fig3 configs (the fixtures): the config,
# the flags, the SHA-256 of every file written, and the standard output with {out} for the output
# directory.  Moving a command's work into the library must leave these bytes alone.  The solve
# sidecars were re-recorded when they gained the settings, and solve-decomposition's files when an
# exchangeable pair's lattice became a half lattice (sf_sum_both moved by at most 1e-14).
_COMMAND_RUNS = {
    "solve-grid": ("fig1_config", ["solve", "--solver", "grid", "--grid-step", "10"], {
        "ruin_curve.csv":
            "d463b46b25dda38bf46098eab11533980b0dcf8422ef40917e3b81f3f952fa46",
        "ruin_curve.json":
            "77b3f39408645502dadd98f8664b6da0619245b4283947d8bd972e7dbf3f976b",
    }, "wrote {out}/ruin_curve.csv (401 nodes)"),
    "solve-series": ("fig1_config", ["solve", "--solver", "series", "--x-max", "2000"], {
        "ruin_curve.csv":
            "bde97b83ede2f32b652b947babdb291298e667e8ec6760070e058b6267a0cfd6",
        "ruin_curve.json":
            "e1b64daa00a0c8552112082d5dddb34eb3ebf629573d78a96c983c4665a102f0",
    }, "wrote {out}/ruin_curve.csv (1001 nodes)"),
    "solve-decomposition": ("two_risk_config", ["solve", "--dump-decomposition", "--grid-step", "10"], {
        "ruin_curve.csv":
            "7deb8fedeec9fb6901b67629f958bcce196e7f3f08ff8c01287c82adea580791",
        "ruin_curve.json":
            "bfcdd18c69220d7774c7215f3f5ad01100e16d2d0304357626138c1e0c3fdd16",
        "ruin_curve_decomposition.csv":
            "4c4b9ee00b7f6fc694701762cc0ee3a68736a84c2ba3ee74ecafc96a9b25be19",
    }, "wrote {out}/ruin_curve.csv (301 nodes)"),
    "optimize-single-ruin": ("fig1_config", ["optimize", "--mode", "single", "--criterion", "ruin"], {
        "optimize_ruin_single.json":
            "5d620a0b457d1cc654481ed71c5b66e66fbb54152d8f3d4858b0ecd40362ad4e",
    }, "wrote {out}/optimize_ruin_single.json: 0.434858570797"),
    "optimize-single-profit": ("fig1_config", ["optimize", "--mode", "single", "--criterion", "profit"], {
        "optimize_profit_single.json":
            "f06ab4dc5e0f377090962021d113c0f109028b23120812aa58c0c004806d846c",
    }, "wrote {out}/optimize_profit_single.json: 0.358553786016"),
    "optimize-common": ("two_risk_config", ["optimize", "--mode", "common", "--no-refine",
                                            "--sweep-step", "0.05"], {
        "optimize_ruin_common.json":
            "4370792562d169711075c2802a0ba47a80b1e7a26b978d0ba10bd839284bd762",
        "optimize_ruin_common_sweep.csv":
            "b85eca3d6091d1007b824221fdef8b9127d28739d67422a2116266be5e0e143a",
    }, "wrote {out}/optimize_ruin_common.json: loading=0.4"),
    "optimize-separate-profit": ("two_risk_config", ["optimize", "--mode", "separate",
                                                     "--criterion", "profit"], {
        "optimize_profit_separate.json":
            "983854cd20236b2e79376f6fa794e8fce4889ae5c7ad1270a9e74a3898ad51b0",
    }, "wrote {out}/optimize_profit_separate.json: loading=(0.35855378601587434, 0.31871447645855494)"),
    "simulate-times": ("fig1_config", ["simulate", "--paths", "500", "--seed", "7", "--dump-times"], {
        "simulate.json":
            "dc59c784c81b91b950c66561e25a33ac9aaed3027d07ce135e9411a14210e72e",
        "simulate_times.csv":
            "7e6768f92263098ab776148624d69dceb8ce230ce7d270b1a44ea176805c4c05",
    }, "wrote {out}/simulate.json: p=0.704000 [0.649020, 0.753637]"),
}


@pytest.mark.parametrize("run", sorted(_COMMAND_RUNS))
def test_command_bytes_are_pinned(run, request, tmp_path, capsys):
    config, (command, *flags), files, stdout = _COMMAND_RUNS[run]
    out = tmp_path / "out"
    assert main([command, str(request.getfixturevalue(config)), *flags, "--out-dir", str(out)]) == 0
    assert {p.name: _sha256(p) for p in out.iterdir()} == files
    assert capsys.readouterr().out == stdout.format(out=out) + "\n"


def test_reproduce_optimizes_at_the_requested_grid_step(tmp_path, monkeypatch):
    # the optimizer's sweep and refinement solve at the step of the decomposition and the grid CSV
    steps = []
    sweep = optimize._sweep

    def spy(tails, reserves, grid_step):
        steps.append(grid_step)
        return sweep(tails, reserves, grid_step)

    monkeypatch.setattr(optimize, "_sweep", spy)
    assert main(["reproduce", "fig5", "--out-dir", str(tmp_path), "--grid-step", "25",
                 "--sweep-step", "0.05"]) == 0
    assert steps and set(steps) == {25.0}
    summary = json.loads((tmp_path / "fig5" / "summary.json").read_text())
    assert summary["results"]["min_ruin"] == 0.6525285386792077


def test_two_risk_simulate_is_pinned_and_builds_no_grid(tmp_path, monkeypatch):
    # simulate.json of fig5 at 20,000 paths and seed 3 (p = 0.601350); the estimate was
    # recorded while the command still built the grid decomposition that it never read,
    # and the echoed config was re-recorded when the sim entry lost "antithetic": false.
    # No gridded severity or joint lattice may be made, wherever the call comes from.
    def no_grid(*args, **kwargs):
        raise AssertionError("lundberg simulate built a grid")

    monkeypatch.setattr(Gridded, "from_survival", no_grid)
    monkeypatch.setattr(market, "sum_distribution", no_grid)
    path = tmp_path / "fig5.json"
    path.write_text(json.dumps(figure_config("fig5")))
    assert main(["simulate", str(path), "--paths", "20000", "--seed", "3",
                 "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "simulate.json").read_bytes()).hexdigest()
    assert digest == "2cf21e4bb84a477b54203226954ec284b388d8236c2fa04a47eedbce26f7b02a"


def test_two_risk_simulate_without_claims_exits_2(tmp_path, capsys):
    cfg = figure_config("fig5")
    cfg["loadings"] = [200.0, 200.0]  # both take rates underflow to 0
    path = tmp_path / "fig5.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", str(path), "--paths", "100", "--out-dir", str(tmp_path)]) == 2
    assert "company claim intensity must be positive and finite" in capsys.readouterr().err


def test_series_accuracy_failure_exits_4(fig1_config, tmp_path):
    cfg = json.loads(fig1_config.read_text())
    cfg["solver"]["series_terms"] = 1
    cfg["solver"]["x_max"] = 20_000.0
    path = tmp_path / "short_series.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", str(path), "--solver", "series", "--out-dir", str(tmp_path)]) == 4


@pytest.mark.parametrize("flag, step", [("--sweep-step", "-0.01"), ("--sweep-step", "0"),
                                        ("--sweep-step", "nan"), ("--grid-step", "0")])
def test_reproduce_rejects_a_step_that_is_not_positive(tmp_path, capsys, flag, step):
    assert main(["reproduce", "fig1", "--out-dir", str(tmp_path), flag, step]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_reproduce_unknown_figure(tmp_path, capsys):
    assert main(["reproduce", "fig99", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'fig99'" in err and f"known: {', '.join(preset_names())}" in err


# ---------------------------------------------------------------------------
# configuration round trip and validation
# ---------------------------------------------------------------------------

def test_config_round_trip_all_presets():
    for name in preset_names():
        cfg = parse_config(figure_config(name))
        echoed = config_to_dict(cfg)
        again = config_to_dict(parse_config(echoed))
        assert echoed == again
    # a minimal config echoes the dataclass defaults
    echoed = config_to_dict(parse_config({
        "risks": [{"lambda": 1.0, "severity": {"kind": "exponential", "mean": 1.0}}],
        "premium_rate": 2.0, "reserves": [1.0],
    }))
    assert echoed["solver"]["series_terms"] == 400
    assert echoed["sim"] == {"paths": 100_000, "horizon": None, "seed": 0}
    # each ordinary family echoes its parameter as omega; a Gumbel omega of 1 is independence
    for copula, described in [
        ({"family": "clayton", "tau": 0.5}, {"family": "clayton", "omega": 2.0}),
        ({"family": "gumbel", "tau": 0.3}, {"family": "gumbel", "omega": 1.4285714285714286}),
        ({"family": "frank", "tau": 0.5}, {"family": "frank", "omega": 5.736282706991311}),
        ({"family": "frank", "omega": -3.0}, {"family": "frank", "omega": -3.0}),
        ({"family": "gumbel", "omega": 1.0}, {"family": "independence"}),
    ]:
        echoed = config_to_dict(parse_config(_edited("fig5", ("acquisition_copula",), copula)))
        assert echoed["acquisition_copula"] == described
        assert config_to_dict(parse_config(echoed)) == echoed


def _edited(name, path, value):
    """Preset ``name`` with the entry at ``path`` set to ``value``, read back from JSON text."""
    cfg = figure_config(name)
    *parents, key = path
    target = cfg
    for step in parents:
        target = target[step]
    target[key] = value
    return json.loads(json.dumps(cfg))


_MIXTURE = {"kind": "mixture", "weights": ["1"], "components": [{"kind": "exponential", "mean": 1.0}]}


@pytest.mark.parametrize("name, path, value, field", [
    ("fig1", ("solver", "x_max"), float("inf"), "solver.x_max"),
    ("fig1", ("solver", "x_max"), "NaN", "solver.x_max"),
    ("fig1", ("sim", "paths"), "1000", "sim.paths"),
    ("fig1", ("loadings",), ["0.4"], "loadings[0]"),
    ("fig1", ("reserves",), [100.0, "2000"], "reserves[1]"),
    ("fig1", ("demand", 0, "fixed_cost"), "64000", "demand[0].fixed_cost"),
    ("fig5", ("levy_copula", "omega"), "1.0", "levy_copula.omega"),
    ("fig5", ("acquisition_copula",), {"family": "clayton", "omega": "2"}, "acquisition_copula.omega"),
    ("fig1", ("risks", 0, "severity"), {"kind": "gridded", "atoms": ["1"], "masses": [1.0]},
     "risks[0].severity.atoms[0]"),
    ("fig1", ("risks", 0, "severity"), _MIXTURE, "risks[0].severity.weights[0]"),
    ("fig1", ("loadings",), 0.4, "loadings"),
    ("fig1", ("sim", "antithetic"), False, "sim.antithetic"),  # an entry older versions read
    ("fig1", ("sim", "paths"), True, "sim.paths"),
    ("fig1", ("solver", "grid_stp"), 2.0, "solver.grid_stp"),
    ("fig1", ("risks", 0, "lamda"), 800.0, "risks[0].lamda"),
    ("fig1", ("sim", "seed"), -1, "sim"),
])
def test_config_rejects_a_bad_entry_and_names_it(name, path, value, field):
    with pytest.raises(ConfigError) as err:
        parse_config(_edited(name, path, value))
    assert err.value.field == field


@pytest.mark.parametrize("argv", [
    ["solve", "--grid-step", "0"], ["solve", "--x-max", "inf"], ["simulate", "--paths", "0"],
    ["simulate", "--seed", "-1"],
])
def test_flags_pass_the_checks_of_file_values(fig1_config, tmp_path, capsys, argv):
    assert main([argv[0], str(fig1_config), *argv[1:], "--out-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_rejects_tau_and_omega_together():
    cfg = figure_config("fig3")
    cfg["acquisition_copula"] = {"family": "clayton", "tau": 0.5, "omega": 1.0}
    message = "^acquisition_copula: specify either omega or tau, not both$"
    with pytest.raises(ConfigError, match=message) as err:
        parse_config(cfg)
    assert err.value.field == "acquisition_copula"


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


def test_load_config_reports_an_unreadable_path(tmp_path):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"notes": "\xe9"}')
    for path in (tmp_path, undecodable):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(path)
        assert main(["solve", str(path), "--out-dir", str(tmp_path)]) == 2


def _fresh(code):
    """Standard output of ``code`` run in a new interpreter that imports this checkout."""
    import lundberg

    env = dict(os.environ, PYTHONPATH=str(Path(lundberg.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


_SCIPY_WATCHED = ("scipy.stats", "scipy.signal", "scipy.optimize", "scipy.integrate", "scipy.fft")


def _scipy_loaded_after(code):
    return set(_fresh(f"import sys; {code}; "
                      f"print(*[m for m in {_SCIPY_WATCHED!r} if m in sys.modules])").split())


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats and scipy.signal each add about half a second to start-up; the baselines are what
    # numpy and the scipy modules lundberg needs load on their own in this scipy version
    base = _scipy_loaded_after("import numpy, scipy.special")
    base_fft = _scipy_loaded_after("import numpy, scipy.special, scipy.fft")
    assert "scipy.fft" in base_fft and base_fft.isdisjoint({"scipy.stats", "scipy.signal"})
    # public names load their submodule on first use, so simulating skips scipy.optimize,
    # scipy.integrate and scipy.fft
    assert _scipy_loaded_after("import lundberg") <= base
    assert _scipy_loaded_after("import lundberg as lb; lb.SimConfig, lb.simulate_ruin, "
                               "lb.simulate_bivariate_market, lb.decompose") <= base
    solving = _scipy_loaded_after("import lundberg as lb; lb.solve_survival")
    assert "scipy.fft" in solving and solving <= base_fft
    # the CLI imports every command module up front, scipy.optimize with optimize
    cli = _scipy_loaded_after("import lundberg.cli")
    assert "scipy.optimize" in cli and cli.isdisjoint({"scipy.stats", "scipy.signal"})
    # a submodule resolves as a package attribute before anything imported it
    assert _fresh("import lundberg; print(lundberg.market.Decomposition.__name__)") == "Decomposition"
