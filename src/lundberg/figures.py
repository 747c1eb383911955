"""Command recipes: each returns the ``(tables, sidecar)`` that a ``lundberg`` command writes, and
writes nothing.  ``tables`` maps each CSV file name (from ``stem``, the ``--out`` flag) to its
(header, rows); the sidecar echoes the config as given, and a ``solve`` sidecar records beside it the
``settings`` that made its curve.  A preset runs the figure recipe of its family (``fig1-alt`` is a
fig1); :mod:`lundberg.presets` lists them.
"""

from dataclasses import asdict, replace

import numpy as np

from .config import ModelConfig, config_to_dict, parse_config
from .copulas import make_ordinary
from .demand import acquisition_shares
from .errors import ConfigError, _positive
from .market import _premium_rate, company_exposure, decompose
from .optimize import (_grid_points, _loading_grid, _sweep_argmin, company_ruin_at, optimize_joint_profit,
                       optimize_joint_ruin, profit_optimal_loading, ruin_optimal_loading,
                       sweep_single_loading, weighted_average_loading)
from .presets import figure_config
from .ruin import solve_series, solve_survival
from .simulate import simulate_bivariate_market, simulate_ruin

__all__ = ["solve_config", "optimize_config", "simulate_config", "reproduce_figure"]


def _single_model(cfg: ModelConfig):
    """Company-level (intensity, severity, premium rate, loading) of a single-risk config."""
    risk = cfg.risks[0]
    if cfg.premium_rate is not None:
        return risk.intensity, risk.severity, cfg.premium_rate, None
    if cfg.loadings is None:
        raise ConfigError("single-risk solve needs loadings with demand pricing", field="loadings")
    theta, demand = cfg.loadings[0], cfg.demands[0]
    return (risk.intensity * float(demand.take_rate(theta)), risk.severity,
            float(demand.premium_rate(risk.intensity, risk.severity.mean, theta)), theta)


def _company_shares(cfg: ModelConfig):
    """Acquisition shares of a two-risk config at its loadings."""
    if cfg.loadings is None:
        raise ConfigError("two-risk solve needs loadings", field="loadings")
    return acquisition_shares(cfg.acquisition, *cfg.demands, *cfg.loadings)


def solve_config(cfg: ModelConfig, settings, solver="grid", dump_decomposition=False, stem="ruin_curve"):
    """``lundberg solve``: the ruin curve of ``cfg`` by the ``"grid"`` or ``"series"`` solver on the
    :class:`SolverConfig` ``settings`` (``cfg.solver`` with any flags applied); for two risks, on
    request, the company model's decomposition."""
    solve = solve_series if solver == "series" else solve_survival
    tables = {}
    if cfg.is_single:
        lam, sev, c, theta = _single_model(cfg)
        curve = solve(lam, sev, c, settings)
        extra = {"loading": theta}
    else:
        if dump_decomposition and cfg.levy is None:
            raise ConfigError("--dump-decomposition needs a coupled market; an independent market has no "
                              "decomposition grid", field="levy_copula")
        market = cfg.market()
        d = decompose(market, settings.grid_step)
        exposure = company_exposure(market, _company_shares(cfg), tuple(cfg.loadings), tuple(cfg.demands),
                                    tuple(cfg.reserves), decomposition=d)
        curve = solve(exposure.intensity, exposure.severity, exposure.premium_rate, settings)
        extra = {"loadings": list(cfg.loadings), "intensity_independent": exposure.intensity_indep,
                 "lambda_both": d.lambda_both}
        if dump_decomposition:
            columns = {"sf_only1": d.sev1_only, "sf_only2": d.sev2_only, "sf_both1": d.sev1_both,
                       "sf_both2": d.sev2_both, "sf_sum_both": d.sev_sum_both}
            tables[f"{stem}_decomposition.csv"] = (["x", *columns], list(zip(
                d.nodes.tolist(), *(sev.sf(d.nodes).tolist() for sev in columns.values()))))
    tables[f"{stem}.csv"] = (["x", "survival", "ruin"],
                             list(zip(curve.x.tolist(), curve.survival.tolist(), curve.ruin.tolist())))
    return tables, {"config": config_to_dict(cfg), "settings": asdict(settings), "solver": curve.solver,
                    "fingerprint": curve.fingerprint, "intensity": curve.intensity,
                    "premium_rate": curve.premium_rate, **extra}


def optimize_config(cfg: ModelConfig, criterion="ruin", mode="single", reserve=None, sweep_step=0.01,
                    refine=True, stem=None):
    """``lundberg optimize``: the ``"ruin"`` or ``"profit"`` optimal loadings of ``cfg``, each risk's
    (``mode`` ``"single"``) or joint (``"common"``, ``"separate"``), and a joint ruin optimization's
    sweep at ``reserve`` (``cfg``'s largest by default), ``{stem}_sweep.csv``."""
    stem = stem or f"optimize_{criterion}_{mode}"
    reserve = max(cfg.reserves) if reserve is None else reserve
    if cfg.demands is None:
        raise ConfigError("optimization needs demand curves", field="demand")
    sidecar = {"config": config_to_dict(cfg), "criterion": criterion, "mode": mode, "reserve": reserve}
    if mode == "single" or cfg.is_single:
        fn = ruin_optimal_loading if criterion == "ruin" else profit_optimal_loading
        results = (fn(d, r.intensity, r.severity.mean) for r, d in zip(cfg.risks, cfg.demands))
        sidecar["results"] = [dict(loading=res.loading, value=res.value, expected_profit=res.expected_profit)
                              for res in results]
        return {}, sidecar
    demands, tables = tuple(cfg.demands), {}
    if criterion == "profit":
        res = optimize_joint_profit(demands, tuple(r.intensity for r in cfg.risks),
                                    tuple(r.severity.mean for r in cfg.risks), mode=mode)
    else:
        res = optimize_joint_ruin(cfg.market(), demands, cfg.acquisition, reserve, mode=mode,
                                  grid_step=cfg.solver.grid_step, sweep_step=sweep_step, refine=refine)
        sweep = dict(res.sweep, feasible=res.sweep["feasible"].astype(int))
        tables[f"{stem}_sweep.csv"] = (list(sweep), list(zip(*(c.tolist() for c in sweep.values()))))
    sidecar.update(loading=res.loading, value=res.value, grid_loading=res.grid_loading,
                   expected_profit=res.expected_profit, diagnostics=res.diagnostics)
    return tables, sidecar


def simulate_config(cfg: ModelConfig, settings, dump_times=False, stem="simulate"):
    """``lundberg simulate``: the Monte Carlo ruin estimate of ``cfg`` at its largest reserve on the
    :class:`SimConfig` ``settings`` (``cfg.sim`` with any flags applied), and on request each path's
    ruin time."""
    reserve = max(cfg.reserves)
    if cfg.is_single:
        lam, sev, c, _ = _single_model(cfg)
        est = simulate_ruin(lam, sev, c, reserve, settings)
    else:
        # the simulator builds its own copula samplers; no grid is needed
        market, shares = cfg.market(), _company_shares(cfg)
        _positive("company claim intensity",
                  shares.p1 * market.risk1.intensity + shares.p2 * market.risk2.intensity)
        est = simulate_bivariate_market(
            market, shares, float(_premium_rate(market, cfg.demands, *cfg.loadings)), reserve, settings)
    times = est.diagnostics["ruin_times"]
    tables = ({f"{stem}_times.csv": (["path", "ruin_time"], list(enumerate(times.tolist())))}
              if dump_times else {})
    return tables, {"estimate": est.to_dict(), "config": config_to_dict(cfg)}


# (summary key, file label, config changes) of each sweep of a common-loading figure
_CLAIM_VARIANTS = [("dependent", "_dependent", {}), ("independent", "_independent", {"levy": None})]
_ACQUISITIONS = [("independent", "_independent", {"acquisition": make_ordinary("independence")})] + [
    (f"{family}_tau_{tau}", f"_{family}_tau{tau}", {"acquisition": make_ordinary(family, tau=tau)})
    for family in ("clayton", "gumbel") for tau in (0.05, 0.25, 0.5)
]


def _sweep_table(thetas, profit, ruin, feasible, reserves):
    """The theta,profit,ruin_at_* table of one column per sorted reserve, and its (theta, ruin) minima."""
    labels = [f"{r:.12g}" for r in reserves]
    best, _ = _sweep_argmin(ruin, feasible)
    table = (["theta", "profit"] + [f"ruin_at_{r}" for r in labels],
             list(zip(thetas.tolist(), profit.tolist(), *ruin.T.tolist())))
    return table, {r: (float(thetas[k]), float(ruin[k, j])) for j, (r, k) in enumerate(zip(labels, best))}


def _single(cfg, sweep_step, grid_step):
    risk, demand = cfg.risks[0], cfg.demands[0]
    thetas = _loading_grid(0.05, 1.0, sweep_step)
    sweep = sweep_single_loading(demand, risk.intensity, risk.severity, cfg.reserves, thetas, grid_step)
    table, best = _sweep_table(*(sweep[k] for k in ("theta", "profit", "ruin", "feasible", "reserves")))
    ruin_res = ruin_optimal_loading(demand, risk.intensity, risk.severity.mean)
    profit_res = profit_optimal_loading(demand, risk.intensity, risk.severity.mean)
    return {"_sweep": table}, {
        "theta_ruin": ruin_res.loading, "theta_profit": profit_res.loading,
        "max_expected_profit": profit_res.value, "weighted_average_hint": None,
        "sweep_argmin_by_reserve": {r: theta for r, (theta, _) in best.items()},
    }


def _common(cfg, sweep_step, grid_step, variants):
    """One common-loading sweep per row of ``variants``; rows with one claim copula share its grid."""
    thetas = _loading_grid(0.05, 1.0, sweep_step)
    tables, results, decompositions = {}, {}, {}
    for key, label, changes in variants:
        variant = replace(cfg, **changes)
        market, reserves = variant.market(), sorted(variant.reserves)
        if variant.levy not in decompositions:
            decompositions[variant.levy] = decompose(market, grid_step)
        ruin, profit, feasible = company_ruin_at(
            market, tuple(variant.demands), variant.acquisition, reserves,
            np.column_stack([thetas, thetas]), grid_step, decompositions[variant.levy],
        )
        tables[f"_sweep{label}"], best = _sweep_table(thetas, profit, ruin, feasible, reserves)
        results[key] = {r: {"argmin": theta, "min_ruin": value} for r, (theta, value) in best.items()}
    return tables, results


def _claim_dependence(cfg, sweep_step, grid_step):
    """fig3's sweeps, and the two single-risk optima averaged with their take rates at loading 0.4."""
    tables, results = _common(cfg, sweep_step, grid_step, _CLAIM_VARIANTS)
    r1, r2 = (ruin_optimal_loading(d, r.intensity, r.severity.mean) for d, r in zip(cfg.demands, cfg.risks))
    results["theta_weighted"] = weighted_average_loading(
        r1.loading, r2.loading, float(cfg.demands[0].take_rate(0.4)), float(cfg.demands[1].take_rate(0.4)))
    return tables, results


def _separate(cfg, sweep_step, grid_step):
    market, demands, reserve = cfg.market(), tuple(cfg.demands), max(cfg.reserves)
    decomposition = decompose(market, grid_step)
    res = optimize_joint_ruin(market, demands, cfg.acquisition, reserve, mode="separate",
                              grid_step=grid_step, sweep_step=sweep_step, decomposition=decomposition,
                              window=True)
    profit_res = optimize_joint_profit(demands, tuple(r.intensity for r in cfg.risks),
                                       tuple(r.severity.mean for r in cfg.risks), mode="separate")
    thetas = _loading_grid(0.2, 0.6, sweep_step)
    pairs = _grid_points(thetas, thetas)
    ruin, profit, _ = company_ruin_at(market, demands, cfg.acquisition, [reserve], pairs, grid_step,
                                      decomposition)
    grid = (["theta1", "theta2", "ruin", "profit"],
            list(zip(*pairs.T.tolist(), ruin[:, 0].tolist(), profit.tolist())))
    return {"_grid": grid}, {
        "ruin_optimum": list(res.loading), "min_ruin": res.value,
        "grid_optimum": list(res.grid_loading), "profit_optimum": list(profit_res.loading),
    }


# family -> (recipe(config, sweep step, grid step) -> (tables, results), default loading step)
_FIGURES = {"fig1": (_single, 0.005), "fig2": (_single, 0.005), "fig3": (_claim_dependence, 0.01),
            "fig4": (_separate, 0.01), "fig5": (_separate, 0.01),
            "fig6": (lambda *args: _common(*args, _ACQUISITIONS), 0.01)}


def reproduce_figure(name: str, sweep_step: float | None = None, grid_step: float | None = None):
    """``lundberg reproduce``: the tables and the summary (``figure``, ``preset`` and ``results``) of
    the preset figure ``name``.  The steps default to the family's loading step and the preset's grid
    step.  An unknown name raises ``ConfigError``, a step that is not positive and finite
    ``ValidationError``."""
    raw = figure_config(name)
    cfg = parse_config(raw)
    recipe, default_step = _FIGURES[name.split("-")[0]]
    tables, results = recipe(cfg, default_step if sweep_step is None else sweep_step,
                             cfg.solver.grid_step if grid_step is None else grid_step)
    return ({f"{name}{suffix}.csv": table for suffix, table in tables.items()},
            {"figure": name, "preset": raw, "results": results})
