"""The benchmark's workloads: their inputs, timed operations and output checks.

Each workload is a closed loop with one caller: its operations call the
public lundberg API one after another, from a single process.  Every
workload has one single-risk operation and one company (two-risk
market) operation; their times are the ``single_risk_rel`` and
``company_rel`` end-to-end metrics.

* ``sweeps`` runs ``lundberg reproduce fig1`` and ``fig5`` in-process.
  The batched grid recursion under ``optimize`` does nearly all of the
  work, in two shapes: 191 one-component loadings over 10,000 nodes
  (fig1), and 10,897 five-component pairs over 2,500 nodes plus the
  single-pair L-BFGS objective calls (fig5).
* ``curves`` builds criterion 9's fine company curve (decomposition,
  exposure, grid solve), checks it with the Picard series, and solves
  criterion 5's exponential model on 40,000 nodes.  The joint-lattice
  convolution in ``sum_distribution`` and the single-curve O(n^2)
  recursion dominate.
* ``mc`` simulates the fig1 single risk and the dependent company at
  reserve 5000.  The simulators and their samplers do the work; the
  recursion does none.

Only ``mc`` draws random numbers, so the seed changes its sample paths;
the other workloads have fixed inputs.

A pass calls the single-risk operation, the shorter one, first and
last, and its metric is the median (for two calls, the mean) of both
times.  The machine's speed changes in spells of a few seconds, so one
short call reads whatever speed the machine had at that moment; two
calls half a minute apart narrow the run-to-run spread (README.md,
"Machine speed").
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references"

# Output tolerances.  The CLI prints 12 significant digits, so CSV and
# summary values are compared to 1e-10 absolute; refined optima come
# out of an L-BFGS polish and are compared to 1e-6.
CSV_TOL = 1e-10
OPTIMUM_TOL = 1e-6
PARITY_TOL = 1e-12
ORACLE_TOL = 5e-3
CLOSED_FORM_TOL = 1e-6
WILSON_CONFIDENCE = 1.0 - 1e-6

MC_PATHS = 50_000
MC_RESERVE = 5000.0
SINGLE_LOADING = 0.435
COMPANY_LOADINGS = (0.4, 0.4)


@dataclass
class Op:
    """One timed operation.

    ``run`` is timed and returns a value; ``collect`` (untimed) turns it
    into the output that ``check`` judges and that traced and untraced
    passes must reproduce exactly; ``check`` returns a list of problems.
    """

    name: str
    run: Callable[[], Any]
    collect: Callable[[Any], Any]
    check: Callable[[Any], list]


@dataclass(frozen=True)
class Workload:
    """``build(seed, workdir)`` returns the calls of one pass, in order."""

    name: str
    single_risk: str
    company: str
    build: Callable[[int, Path], list]


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# --------------------------------------------------------------------------
# Shared model inputs
# --------------------------------------------------------------------------

def _market_inputs():
    import lundberg as lb

    risk = lb.CompoundPoissonSpec(800.0, lb.Gamma(2.0, 500.0))
    dependent = lb.MarketSpec(risk, risk, lb.ClaytonLevyCopula(1.0))
    demands = (
        lb.DemandSpec(beta0=-0.6, beta1=4.0, fixed_cost=64_000.0),
        lb.DemandSpec(beta0=-0.6, beta1=4.5, fixed_cost=64_000.0),
    )
    shares = lb.acquisition_shares(lb.IndependenceCopula(), demands[0], demands[1],
                                   *COMPANY_LOADINGS)
    return dependent, demands, shares


def single_risk_model():
    """(intensity, severity, premium rate) of fig1's risk at loading 0.435."""
    import lundberg as lb

    demand = lb.DemandSpec(beta0=-0.6, beta1=4.0, fixed_cost=64_000.0)
    lam = 800.0 * float(demand.take_rate(SINGLE_LOADING))
    premium = float(demand.premium_rate(800.0, 1000.0, SINGLE_LOADING))
    return lam, lb.Gamma(2.0, 500.0), premium


def fine_company_curve():
    """Criterion 9's company curve on the fine decomposition; returns (exposure, curve)."""
    import lundberg as lb

    dependent, demands, shares = _market_inputs()
    decomposition = lb.decompose(dependent, 0.0625, joint_step=0.5, joint_tail_mass=1e-8)
    exposure = lb.company_exposure(dependent, shares, COMPANY_LOADINGS, demands, (0.0,),
                                   decomposition=decomposition)
    curve = lb.solve_survival(exposure.intensity, exposure.severity, exposure.premium_rate,
                              lb.SolverConfig(grid_step=2.0, x_max=20_000.0))
    return exposure, curve


def _finite(name, values) -> list:
    values = np.asarray(values, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    return [f"{name}: {bad} non-finite values"] if bad else []


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def read_outputs(directory: Path) -> dict:
    """Every file under ``directory``, by relative path, as bytes."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def _take_outputs(directory: Path) -> dict:
    """Read a pass's output files, then delete them so the next pass starts clean."""
    files = read_outputs(directory)
    shutil.rmtree(directory)
    return files


def _parse_csv(data: bytes):
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def compare_csv(name: str, got: bytes, want: bytes) -> list:
    header, rows = _parse_csv(got)
    ref_header, ref_rows = _parse_csv(want)
    if header != ref_header or rows.shape != ref_rows.shape:
        return [f"{name}: header or shape differs from the reference"]
    nan, ref_nan = np.isnan(rows), np.isnan(ref_rows)
    problems = []
    if not np.array_equal(nan, ref_nan):
        problems.append(f"{name}: NaN positions differ from the reference")
    if np.any(np.isinf(rows)):
        problems.append(f"{name}: infinite values")
    both = ~(nan | ref_nan)
    err = float(np.max(np.abs(rows[both] - ref_rows[both]), initial=0.0))
    if not err <= CSV_TOL:
        problems.append(f"{name}: max abs difference {err:.3g} > {CSV_TOL:g}")
    return problems


def _compare_values(name, got, want, tol) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    problems = _finite(name, got)
    if got.shape != want.shape:
        return problems + [f"{name}: shape {got.shape} != {want.shape}"]
    if not problems and not float(np.max(np.abs(got - want), initial=0.0)) <= tol:
        problems.append(f"{name}: {got.tolist()} differs from {want.tolist()} by more than {tol:g}")
    return problems


def check_fig1_summary(got: dict, want: dict) -> list:
    g, w = got["results"], want["results"]
    problems = [] if _same(got["preset"], want["preset"]) else ["fig1: preset differs"]
    if not _same(g["sweep_argmin_by_reserve"], w["sweep_argmin_by_reserve"]):
        problems.append("fig1: sweep argmins differ from the reference")
    for key in ("theta_ruin", "theta_profit"):
        problems += _compare_values(f"fig1 {key}", g[key], w[key], OPTIMUM_TOL)
    problems += _compare_values("fig1 max_expected_profit", g["max_expected_profit"],
                                w["max_expected_profit"], CSV_TOL * max(1.0, abs(w["max_expected_profit"])))
    return problems


def check_fig5_summary(got: dict, want: dict) -> list:
    g, w = got["results"], want["results"]
    problems = [] if _same(got["preset"], want["preset"]) else ["fig5: preset differs"]
    if not _same(g["grid_optimum"], w["grid_optimum"]):
        problems.append("fig5: sweep argmin (grid_optimum) differs from the reference")
    for key in ("ruin_optimum", "profit_optimum"):
        problems += _compare_values(f"fig5 {key}", g[key], w[key], OPTIMUM_TOL)
    problems += _compare_values("fig5 min_ruin", g["min_ruin"], w["min_ruin"], CSV_TOL)
    return problems


_SUMMARY_CHECKS = {"fig1": check_fig1_summary, "fig5": check_fig5_summary}


def check_reproduce(figure: str, files: dict, reference: Path = REFERENCES) -> list:
    """Compare a ``reproduce`` output directory with the recorded one."""
    want = read_outputs(reference / figure)
    if sorted(files) != sorted(want):
        return [f"{figure}: output files {sorted(files)} != {sorted(want)}"]
    problems = []
    for rel, data in files.items():
        if rel.endswith(".csv"):
            problems += compare_csv(f"{figure} {rel}", data, want[rel])
    problems += _SUMMARY_CHECKS[figure](json.loads(files["summary.json"]),
                                        json.loads(want["summary.json"]))
    return problems


def _build_sweeps(seed: int, workdir: Path) -> list:
    from lundberg import cli

    def reproduce(figure):
        out = workdir / figure

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["reproduce", figure, "--out-dir", str(out)])
            if code != 0:
                raise RuntimeError(f"lundberg reproduce {figure} exited with {code}")
            return out / figure

        return Op(f"reproduce_{figure}_s", run, _take_outputs,
                  lambda files: check_reproduce(figure, files))

    fig1 = reproduce("fig1")
    return [fig1, reproduce("fig5"), fig1]


# --------------------------------------------------------------------------
# curves
# --------------------------------------------------------------------------

def exponential_survival(x, mean=1000.0, loading=0.2):
    """Closed-form survival of the exponential model (criterion 5)."""
    return 1.0 - np.exp(-loading * x / ((1.0 + loading) * mean)) / (1.0 + loading)


def check_company_curve(survival, reference) -> list:
    problems = _finite("company curve", survival)
    if survival.shape != reference.shape:
        return problems + [f"company curve: shape {survival.shape} != {reference.shape}"]
    err = float(np.max(np.abs(survival - reference)))
    if not err <= PARITY_TOL:
        problems.append(f"company curve: max difference {err:.3g} from the reference > {PARITY_TOL:g}")
    return problems


def check_oracle(series, survival) -> list:
    problems = _finite("series oracle", series)
    err = float(np.max(np.abs(series - survival)))
    if not err <= ORACLE_TOL:
        problems.append(f"series oracle: max difference {err:.3g} from the grid curve > {ORACLE_TOL:g}")
    return problems


def check_long_curve(x, survival) -> list:
    problems = _finite("long curve", survival)
    err = float(np.max(np.abs(survival - exponential_survival(x))))
    if not err <= CLOSED_FORM_TOL:
        problems.append(f"long curve: max difference {err:.3g} from the closed form > {CLOSED_FORM_TOL:g}")
    return problems


def _build_curves(seed: int, workdir: Path) -> list:
    import lundberg as lb

    exponential = lb.Exponential(1000.0)
    long_config = lb.SolverConfig(grid_step=2.0, x_max=80_000.0)
    company = {}

    def company_curve():
        company.clear()
        company["exposure"], company["curve"] = fine_company_curve()
        return company["curve"]

    def oracle():
        exposure, curve = company["exposure"], company["curve"]
        return lb.solve_series(exposure.intensity, exposure.severity, exposure.premium_rate,
                               curve.config)

    def long_curve():
        return lb.solve_survival(1.0, exponential, 1200.0, long_config)

    def reference():
        return np.load(REFERENCES / "company_survival.npy")

    long = Op("long_curve_s", long_curve, lambda c: (c.x, c.survival),
              lambda xs: check_long_curve(*xs))
    return [
        long,
        Op("company_curve_s", company_curve, lambda c: c.survival,
           lambda s: check_company_curve(s, reference())),
        Op("oracle_s", oracle, lambda c: c.survival,
           lambda s: check_oracle(s, company["curve"].survival)),
        long,
    ]


# --------------------------------------------------------------------------
# mc
# --------------------------------------------------------------------------

def check_estimate(name, estimate, grid_value) -> list:
    """The grid value must lie in the wide Wilson interval of the estimate."""
    from lundberg import wilson_interval

    ruined, paths = estimate
    if not math.isfinite(grid_value):
        return [f"{name}: grid value {grid_value} is not finite"]
    lo, hi = wilson_interval(ruined, paths, confidence=WILSON_CONFIDENCE)
    if not lo <= grid_value <= hi:
        return [f"{name}: grid value {grid_value:.6g} outside [{lo:.6g}, {hi:.6g}] "
                f"({ruined}/{paths} ruined)"]
    return []


def single_grid_value() -> float:
    """Grid ruin probability of the single risk at the reserve, h = 2."""
    import lundberg as lb

    lam, gamma, premium = single_risk_model()
    curve = lb.solve_survival(lam, gamma, premium, lb.SolverConfig(grid_step=2.0, x_max=MC_RESERVE))
    return float(curve.ruin_at(MC_RESERVE))


def company_grid_value() -> float:
    """Ruin at the reserve on the recorded fine-decomposition company curve."""
    survival = np.load(REFERENCES / "company_survival.npy")
    x = 2.0 * np.arange(survival.size)
    return float(1.0 - np.interp(MC_RESERVE, x, survival))


def _build_mc(seed: int, workdir: Path) -> list:
    import lundberg as lb

    dependent, demands, shares = _market_inputs()
    lam, gamma, premium = single_risk_model()
    company_premium = float(sum(
        d.premium_rate(800.0, 1000.0, t) for d, t in zip(demands, COMPANY_LOADINGS)))
    sim = lb.SimConfig(paths=MC_PATHS, seed=seed)

    def counts(estimate):
        return (estimate.ruined, estimate.paths)

    single = Op("sim_single_s", lambda: lb.simulate_ruin(lam, gamma, premium, MC_RESERVE, sim),
                counts, lambda e: check_estimate("single risk", e, single_grid_value()))
    return [
        single,
        Op("sim_bivariate_s",
           lambda: lb.simulate_bivariate_market(dependent, shares, company_premium, MC_RESERVE,
                                                sim, decomposition=None),
           counts, lambda e: check_estimate("company", e, company_grid_value())),
        single,
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("sweeps", "reproduce_fig1_s", "reproduce_fig5_s", _build_sweeps),
        Workload("curves", "long_curve_s", "company_curve_s", _build_curves),
        Workload("mc", "sim_single_s", "sim_bivariate_s", _build_mc),
    )
}
