from dataclasses import replace

import numpy as np
import pytest

from lundberg import optimize_config, reproduce_figure, simulate_config, solve_config
from lundberg.cli import write_csv, write_json
from lundberg.config import load_config
from lundberg.figures import _sweep_table
from lundberg.presets import preset_names
from test_cli import _COMMAND_RUNS, _REPRODUCE_SHA256, _sha256


# each recipe's call that gives the files of a pinned command run: its config fixture, the call,
# and the pinned digests
@pytest.mark.parametrize("config, call, files", [
    pytest.param(None, lambda cfg: reproduce_figure("fig1", 0.05, 25.0), _REPRODUCE_SHA256["fig1"],
                 id="reproduce"),
    pytest.param("two_risk_config", lambda cfg: solve_config(cfg, replace(cfg.solver, grid_step=10.0),
                                                             dump_decomposition=True),
                 _COMMAND_RUNS["solve-decomposition"][2], id="solve"),
    pytest.param("two_risk_config", lambda cfg: optimize_config(cfg, "ruin", "common", sweep_step=0.05,
                                                                refine=False),
                 _COMMAND_RUNS["optimize-common"][2], id="optimize"),
    pytest.param("fig1_config", lambda cfg: simulate_config(cfg, replace(cfg.sim, paths=500, seed=7),
                                                            dump_times=True),
                 _COMMAND_RUNS["simulate-times"][2], id="simulate"),
])
def test_recipe_tables_are_the_pinned_bytes_and_nothing_is_written(config, call, files, request, tmp_path,
                                                                   monkeypatch):
    cfg = config and load_config(request.getfixturevalue(config))
    run_dir, out = tmp_path / "run", tmp_path / "out"
    run_dir.mkdir()
    before = sorted(tmp_path.iterdir())
    monkeypatch.chdir(run_dir)
    monkeypatch.setenv("LUNDBERG_OUTDIR", str(run_dir))
    tables, sidecar = call(cfg)
    assert sorted(tmp_path.iterdir()) == before and list(run_dir.iterdir()) == []
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    [sidecar_name] = [name for name in files if name.endswith(".json")]
    write_json(out / sidecar_name, sidecar)
    assert {path.name: _sha256(path) for path in out.iterdir()} == files


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_names_the_files_that_reproduce_writes(name):
    tables, summary = reproduce_figure(name, 0.05, 25.0)
    assert sorted([*tables, "summary.json"]) == sorted(_REPRODUCE_SHA256[name])
    assert summary["figure"] == name and summary["preset"]["preset"] == name


def test_sweep_minimum_skips_infeasible_and_nan_points_and_keeps_the_first_tie(tmp_path):
    thetas = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    ruin = np.array([[0.01, 0.5], [np.nan, 0.25], [0.2, 0.3], [0.2, 0.3], [0.3, 0.6]])
    feasible = np.array([False, True, True, True, True])
    (header, rows), best = _sweep_table(thetas, thetas, ruin, feasible, [100.0, 2000.0])
    assert best == {"100": (0.3, 0.2), "2000": (0.2, 0.25)}
    write_csv(tmp_path / "s.csv", header, rows)
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[:3] == ["theta,profit,ruin_at_100,ruin_at_2000", "0.1,0.1,0.01,0.5", "0.2,0.2,nan,0.25"]
