"""Tests of the benchmark itself: span arithmetic, tracing and output checks.

    python3 -m pytest bench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import lundberg as lb
import run
import spans
import workloads
from lundberg import cli, optimize

ROOT = run.ROOT


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------

def _span(name, parent, start, end, op="op", **counts):
    return spans.Span(name, parent, op, start, end, counts)


def test_self_time_subtracts_direct_children_only():
    s = [
        _span("a", -1, 0.0, 10.0),
        _span("b", 0, 1.0, 4.0),
        _span("c", 0, 5.0, 9.0),
        _span("d", 2, 6.0, 7.0),
    ]
    totals = spans.layer_totals(s)
    assert totals["a"]["self_s"] == pytest.approx(3.0)
    assert totals["c"]["self_s"] == pytest.approx(3.0)
    assert totals["d"]["self_s"] == pytest.approx(1.0)
    assert totals["a"]["busy_s"] == pytest.approx(10.0)
    assert totals["c"]["calls"] == 1


def test_recursive_spans_count_busy_time_and_counts_once():
    s = [
        _span("distributions.sample", -1, 0.0, 5.0, draws=100),
        _span("distributions.sample", 0, 1.0, 2.0, draws=40),
        _span("distributions.sample", 0, 2.0, 4.0, draws=60),
    ]
    t = spans.layer_totals(s)["distributions.sample"]
    assert t["calls"] == 1
    assert t["busy_s"] == pytest.approx(5.0)
    assert t["draws"] == 100
    assert t["self_s"] == pytest.approx(2.0 + 1.0 + 2.0)


def test_sampler_draws_become_claims_of_the_enclosing_simulator():
    s = [
        _span("simulate.simulate_bivariate_market", -1, 0.0, 10.0),
        _span("market.decompose", 0, 0.0, 2.0, nodes=5, joint_cells=25),
        _span("market.sample", 0, 3.0, 4.0, draws=256),
        _span("market.sample", 0, 5.0, 6.0, draws=128),
        _span("simulate.simulate_ruin", -1, 11.0, 12.0),
        _span("distributions.sample", 4, 11.0, 11.5, draws=512),
        _span("distributions.sample", 5, 11.1, 11.2, draws=7),
    ]
    totals = spans.layer_totals(s)
    assert totals["simulate.simulate_bivariate_market"]["claims"] == 384
    assert totals["simulate.simulate_bivariate_market"]["self_s"] == pytest.approx(6.0)
    assert totals["simulate.simulate_ruin"]["claims"] == 512
    metrics = spans.layer_metrics(totals)
    assert metrics["simulate.simulate_ruin.claims_per_s"] == pytest.approx(512.0)
    assert metrics["market.sample.draws"] == 384
    assert metrics["ruin.solve_survival.busy_s"] == 0.0


def test_totals_can_be_restricted_to_one_operation():
    s = [_span("x", -1, 0.0, 1.0, op="first"), _span("x", -1, 1.0, 4.0, op="second")]
    assert spans.layer_totals(s, "second")["x"]["busy_s"] == pytest.approx(3.0)


# --------------------------------------------------------------------------
# tracing passes data through unchanged
# --------------------------------------------------------------------------

def _traced(fn):
    tracer = spans.Tracer()
    tracer.op = "test"
    uninstall = spans.install(tracer)
    try:
        return fn(), tracer
    finally:
        uninstall()


def _reproduce(out, *extra):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reproduce", *extra, "--out-dir", str(out)]) == 0
    return workloads.read_outputs(out)


@pytest.mark.parametrize("figure, options", [
    ("fig1", ["--grid-step", "50", "--sweep-step", "0.05"]),
    ("fig5", ["--grid-step", "50", "--sweep-step", "0.1"]),
])
def test_traced_reproduce_writes_identical_bytes(tmp_path, figure, options):
    plain = _reproduce(tmp_path / "plain", figure, *options)
    traced, tracer = _traced(lambda: _reproduce(tmp_path / "traced", figure, *options))
    assert traced == plain
    names = {s.name for s in tracer.spans}
    # cli holds its own bindings of the sweep functions; they must be traced too
    assert "optimize.sweep_single_loading" in names or "optimize.company_ruin_at" in names
    assert "cli.write_csv" in names and "cli.cmd_reproduce" in names
    if figure == "fig5":
        parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent >= 0}
        assert parents["distributions.sum_distribution"] == "market.decompose"
        assert "copulas.cdf" in names and "distributions.tails" in names


def test_traced_simulations_give_the_same_ruined_counts():
    gamma = lb.Gamma(2.0, 500.0)
    risk = lb.CompoundPoissonSpec(800.0, gamma)
    market = lb.MarketSpec(risk, risk, lb.ClaytonLevyCopula(1.0))
    decomposition = lb.decompose(market, 25.0)
    sim = lb.SimConfig(paths=3000, seed=7)
    shares = lb.AcquisitionShares.monopoly()

    def both():
        single = lb.simulate_ruin(400.0, gamma, 480_000.0, 500.0, sim)
        company = lb.simulate_bivariate_market(market, shares, 1_920_000.0, 500.0, sim,
                                               decomposition=decomposition)
        return single.ruined, company.ruined

    plain = both()
    traced, tracer = _traced(both)
    assert traced == plain
    totals = spans.layer_totals(tracer.spans)
    assert totals["simulate.simulate_ruin"]["claims"] > 0
    assert totals["simulate.simulate_bivariate_market"]["claims"] > 0


def test_uninstall_restores_every_binding():
    before = (cli.sweep_single_loading, cli.company_ruin_at, optimize.decompose,
              lb.distributions.integrated_tails, lb.Gamma.sample, lb.Decomposition.sample_only1)
    _traced(lambda: None)
    after = (cli.sweep_single_loading, cli.company_ruin_at, optimize.decompose,
             lb.distributions.integrated_tails, lb.Gamma.sample, lb.Decomposition.sample_only1)
    assert all(a is b for a, b in zip(before, after))


# --------------------------------------------------------------------------
# output checks fail on perturbed outputs
# --------------------------------------------------------------------------

def _reference_files(figure):
    return workloads.read_outputs(workloads.REFERENCES / figure)


@pytest.mark.parametrize("figure", ["fig1", "fig5"])
def test_reproduce_check_accepts_the_reference(figure):
    assert workloads.check_reproduce(figure, _reference_files(figure)) == []


def _perturb_csv(data: bytes, row: int, col: int, change) -> bytes:
    lines = data.decode().splitlines()
    cells = lines[row].split(",")
    cells[col] = change(cells[col])
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("change", [
    lambda v: repr(float(v) + 1e-9),
    lambda v: "nan",
])
def test_csv_check_fails_on_a_shifted_or_nan_value(change):
    files = _reference_files("fig5")
    files["fig5_grid.csv"] = _perturb_csv(files["fig5_grid.csv"], 7, 2, change)
    assert workloads.check_reproduce("fig5", files)


@pytest.mark.parametrize("figure, edit", [
    ("fig1", lambda r: r["sweep_argmin_by_reserve"].update({"5000": 0.5})),
    ("fig1", lambda r: r.update(theta_ruin=r["theta_ruin"] + 2e-6)),
    ("fig5", lambda r: r.update(ruin_optimum=[r["ruin_optimum"][0] + 2e-6, r["ruin_optimum"][1]])),
    ("fig5", lambda r: r.update(grid_optimum=[0.3, 0.3])),
    ("fig5", lambda r: r.update(min_ruin=float("nan"))),
])
def test_summary_check_fails_on_a_changed_optimum(figure, edit):
    files = _reference_files(figure)
    summary = json.loads(files["summary.json"])
    edit(summary["results"])
    files["summary.json"] = json.dumps(summary).encode()
    assert workloads.check_reproduce(figure, files)


def test_company_curve_check():
    ref = np.load(workloads.REFERENCES / "company_survival.npy")
    assert workloads.check_company_curve(ref.copy(), ref) == []
    assert workloads.check_company_curve(ref + 1e-9, ref)
    bad = ref.copy()
    bad[100] = np.nan
    assert workloads.check_company_curve(bad, ref)


def test_oracle_check():
    ref = np.load(workloads.REFERENCES / "company_survival.npy")
    assert workloads.check_oracle(ref + 1e-4, ref) == []
    assert workloads.check_oracle(ref + 6e-3, ref)
    bad = ref.copy()
    bad[-1] = np.nan
    assert workloads.check_oracle(bad, ref)


def test_long_curve_check():
    x = 2.0 * np.arange(40_001)
    exact = workloads.exponential_survival(x)
    assert workloads.check_long_curve(x, exact) == []
    assert workloads.check_long_curve(x, exact + 2e-6)
    bad = exact.copy()
    bad[0] = np.nan
    assert workloads.check_long_curve(x, bad)


def test_estimate_check():
    assert workloads.check_estimate("t", (1000, 100_000), 0.01) == []
    assert workloads.check_estimate("t", (1000, 100_000), 0.012)
    assert workloads.check_estimate("t", (1000, 100_000), float("nan"))


def test_each_call_is_an_operation_checked_against_the_first_output():
    outputs = iter([1, 1, 2, 1])
    repeated = workloads.Op("a", lambda: next(outputs), lambda v: v, lambda v: [])
    other = workloads.Op("b", lambda: 0, lambda v: v, lambda v: [])
    runner = run.Runner([repeated, other, repeated])
    first = runner.one_pass()
    assert len(first.seconds["a"]) == 2 and len(first.seconds["b"]) == 1
    assert (runner.attempted, runner.failed) == (3, 0)
    runner.one_pass()  # the third output of "a" differs from its first, the fourth does not
    assert (runner.attempted, runner.failed) == (6, 1)
    assert first.wall_s == pytest.approx(sum(first.seconds["a"]) + first.seconds["b"][0])


def test_call_times_are_taken_relative_to_the_median_probe():
    probes = iter([1.0, 4.0, 2.0])
    sleeper = workloads.Op("a", lambda: time.sleep(0.01), lambda v: v, lambda v: [])
    run_probe, run.probe = run.probe, lambda: next(probes)
    try:
        p = run.Runner([sleeper, sleeper]).one_pass()
    finally:
        run.probe = run_probe
    assert p.probe_s == [1.0, 4.0, 2.0]
    assert p.rel["a"] == pytest.approx([t / 2.0 for t in p.seconds["a"]])
    assert p.wall_rel == pytest.approx(p.wall_s / 2.0)


def test_same_output_is_exact():
    a = np.linspace(0.0, 1.0, 11)
    assert run.same_output({"x": (a, 3)}, {"x": (a.copy(), 3)})
    assert not run.same_output({"x": (a, 3)}, {"x": (np.nextafter(a, 2.0), 3)})
    assert not run.same_output({"f": b"1,2\n"}, {"f": b"1,3\n"})


# --------------------------------------------------------------------------
# the benchmark definition and the command line
# --------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.RESULT_LAYER_METRICS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_METRICS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
