"""Figure recipes: the tables and the summary behind each ``lundberg reproduce`` preset.

A preset runs the recipe of its family (``fig1-alt`` is a fig1); :mod:`lundberg.presets` lists them.
"""

from dataclasses import replace

import numpy as np

from .config import parse_config
from .copulas import make_ordinary
from .market import decompose
from .optimize import (_loading_grid, _sweep_argmin, company_ruin_at, optimize_joint_profit,
                       optimize_joint_ruin, profit_optimal_loading, ruin_optimal_loading,
                       sweep_single_loading, weighted_average_loading)
from .presets import figure_config

__all__ = ["reproduce_figure"]

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
                              grid_step=grid_step, sweep_step=sweep_step, decomposition=decomposition)
    profit_res = optimize_joint_profit(demands, tuple(r.intensity for r in cfg.risks),
                                       tuple(r.severity.mean for r in cfg.risks), mode="separate")
    thetas = _loading_grid(0.2, 0.6, sweep_step)
    pairs = np.stack(np.meshgrid(thetas, thetas, indexing="ij"), axis=-1).reshape(-1, 2)
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
    """The tables and the summary of the preset figure ``name``; nothing is written.

    Returns ``(tables, summary)``: ``tables`` maps each CSV file name to its
    (header, rows), and ``summary`` is the ``summary.json`` payload (``figure``,
    ``preset`` and ``results``).  The steps default to the family's loading step
    and the preset's grid step.  An unknown name raises ``ConfigError``, a step
    that is not positive and finite ``ValidationError``.
    """
    raw = figure_config(name)
    cfg = parse_config(raw)
    recipe, default_step = _FIGURES[name.split("-")[0]]
    tables, results = recipe(cfg, default_step if sweep_step is None else sweep_step,
                             cfg.solver.grid_step if grid_step is None else grid_step)
    return ({f"{name}{suffix}.csv": table for suffix, table in tables.items()},
            {"figure": name, "preset": raw, "results": results})
