import hashlib

import numpy as np
import pytest

from lundberg import reproduce_figure
from lundberg.cli import write_csv, write_json
from lundberg.figures import _sweep_table
from lundberg.presets import preset_names
from test_cli import _REPRODUCE_SHA256


def test_fig1_tables_are_the_pinned_reproduce_bytes_and_nothing_is_written(tmp_path, monkeypatch):
    run_dir, out = tmp_path / "run", tmp_path / "out"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    monkeypatch.setenv("LUNDBERG_OUTDIR", str(run_dir))
    tables, summary = reproduce_figure("fig1", 0.05, 25.0)
    assert list(tmp_path.iterdir()) == [run_dir] and list(run_dir.iterdir()) == []
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    write_json(out / "summary.json", summary)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == _REPRODUCE_SHA256["fig1"]


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
