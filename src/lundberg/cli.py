"""Command-line interface.

Four commands drive the library against JSON model configurations:

    lundberg solve      path/to/config.json   # ruin curve CSV + sidecar
    lundberg optimize   path/to/config.json   # loading optimization
    lundberg simulate   path/to/config.json   # Monte Carlo estimate
    lundberg reproduce  fig1|...|fig6         # preset experiment bundles

Outputs are written atomically (temp file, then rename) with '.'
decimals and LF line endings, so identical inputs give identical bytes;
wall-clock timestamps appear only in the ``generated_at`` field of
solve/optimize sidecars.  The default output directory is the current
directory or ``$LUNDBERG_OUTDIR``.

Exit codes: 0 success, 2 configuration error, 3 model precondition
failure (the net-profit margin is printed), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ModelConfig, config_to_dict, load_config, parse_config
from .demand import acquisition_shares
from .errors import (AccuracyError, ConfigError, InstabilityError, LundbergError, NetProfitError,
                     ValidationError, _positive)
from .market import _premium_rate, company_exposure, decompose
from .copulas import make_ordinary
from .optimize import (
    _loading_grid,
    _sweep_argmin,
    company_ruin_at,
    optimize_joint_profit,
    optimize_joint_ruin,
    profit_optimal_loading,
    ruin_optimal_loading,
    sweep_single_loading,
    weighted_average_loading,
)
from .presets import figure_config
from .ruin import RuinCurve, solve_series, solve_survival
from .simulate import simulate_bivariate_market, simulate_ruin

_FLOAT_FMT = "%.12g"


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header: list, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload: dict):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get("LUNDBERG_OUTDIR") or "."
    return Path(base)


def _sidecar(cfg: ModelConfig, extra: dict) -> dict:
    payload = {"config": config_to_dict(cfg), "generated_at": datetime.now(timezone.utc).isoformat()}
    payload.update(extra)
    return payload


def _single_model(cfg: ModelConfig):
    """Company-level (intensity, severity, premium) of a single-risk config."""
    risk = cfg.risks[0]
    if cfg.premium_rate is not None:
        return risk.intensity, risk.severity, cfg.premium_rate, None
    if cfg.loadings is None:
        raise ConfigError("single-risk solve needs loadings with demand pricing", field="loadings")
    theta = cfg.loadings[0]
    demand = cfg.demands[0]
    lam = risk.intensity * float(demand.take_rate(theta))
    c = float(demand.premium_rate(risk.intensity, risk.severity.mean, theta))
    return lam, risk.severity, c, theta


def _company_shares(cfg: ModelConfig):
    """Acquisition shares of a two-risk config at its loadings."""
    if cfg.loadings is None:
        raise ConfigError("two-risk solve needs loadings", field="loadings")
    return acquisition_shares(cfg.acquisition, *cfg.demands, *cfg.loadings)


def _given_flags(args, *names) -> dict:
    """The named flags that the command line gives; they pass the same checks as file values."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _curve_rows(curve: RuinCurve):
    return zip(curve.x.tolist(), curve.survival.tolist(), curve.ruin.tolist())


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    solver = replace(cfg.solver, **_given_flags(args, "grid_step", "x_max"))
    out = _out_dir(args)
    stem = args.out or "ruin_curve"
    solve = solve_series if args.solver == "series" else solve_survival
    extra = {}
    if cfg.is_single:
        lam, sev, c, theta = _single_model(cfg)
        curve = solve(lam, sev, c, solver)
        extra["loading"] = theta
    else:
        market = cfg.market()
        decomposition = decompose(market, solver.grid_step)
        exposure = company_exposure(
            market, _company_shares(cfg), tuple(cfg.loadings), tuple(cfg.demands), tuple(cfg.reserves),
            decomposition=decomposition,
        )
        curve = solve(exposure.intensity, exposure.severity, exposure.premium_rate, solver)
        extra.update({
            "loadings": list(exposure.loadings),
            "intensity": exposure.intensity,
            "intensity_independent": exposure.intensity_indep,
            "lambda_both": exposure.lambda_both,
        })
        if args.dump_decomposition:
            nodes = decomposition.nodes
            write_csv(
                out / f"{stem}_decomposition.csv",
                ["x", "sf_only1", "sf_only2", "sf_both1", "sf_both2", "sf_sum_both"],
                zip(
                    nodes.tolist(),
                    decomposition.sev1_only.sf(nodes).tolist(),
                    decomposition.sev2_only.sf(nodes).tolist(),
                    decomposition.sev1_both.sf(nodes).tolist(),
                    decomposition.sev2_both.sf(nodes).tolist(),
                    decomposition.sev_sum_both.sf(nodes).tolist(),
                ),
            )
    write_csv(out / f"{stem}.csv", ["x", "survival", "ruin"], _curve_rows(curve))
    write_json(out / f"{stem}.json", _sidecar(cfg, {
        "fingerprint": curve.fingerprint,
        "solver": curve.solver,
        "intensity": curve.intensity,
        "premium_rate": curve.premium_rate,
        **extra,
    }))
    print(f"wrote {out / f'{stem}.csv'} ({curve.x.size} nodes)")
    return 0


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    stem = args.out or f"optimize_{args.criterion}_{args.mode}"
    reserve = args.reserve if args.reserve is not None else max(cfg.reserves)
    if cfg.demands is None:
        raise ConfigError("optimization needs demand curves", field="demand")
    payload = {"criterion": args.criterion, "mode": args.mode, "reserve": reserve}

    if args.mode == "single" or cfg.is_single:
        results = []
        for risk, demand in zip(cfg.risks, cfg.demands):
            fn = ruin_optimal_loading if args.criterion == "ruin" else profit_optimal_loading
            res = fn(demand, risk.intensity, risk.severity.mean)
            results.append({
                "loading": res.loading, "value": res.value, "expected_profit": res.expected_profit,
            })
        payload["results"] = results
        write_json(out / f"{stem}.json", _sidecar(cfg, payload))
        print(f"wrote {out / f'{stem}.json'}: " + ", ".join(
            _FLOAT_FMT % r["loading"] for r in results))
        return 0

    market = cfg.market()
    demands = tuple(cfg.demands)
    if args.criterion == "profit":
        res = optimize_joint_profit(
            demands, (market.risk1.intensity, market.risk2.intensity),
            (market.risk1.severity.mean, market.risk2.severity.mean), mode=args.mode,
        )
    else:
        res = optimize_joint_ruin(
            market, demands, cfg.acquisition, reserve, mode=args.mode,
            grid_step=cfg.solver.grid_step, sweep_step=args.sweep_step, refine=not args.no_refine,
        )
        sweep = dict(res.sweep, feasible=res.sweep["feasible"].astype(int))
        write_csv(out / f"{stem}_sweep.csv", list(sweep), zip(*(c.tolist() for c in sweep.values())))
    payload.update({
        "loading": res.loading, "value": res.value, "grid_loading": res.grid_loading,
        "expected_profit": res.expected_profit, "diagnostics": res.diagnostics,
    })
    write_json(out / f"{stem}.json", _sidecar(cfg, payload))
    print(f"wrote {out / f'{stem}.json'}: loading={res.loading}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    stem = args.out or "simulate"
    sim = replace(cfg.sim, **_given_flags(args, "paths", "horizon", "seed"))
    reserve = max(cfg.reserves)
    if cfg.is_single:
        lam, sev, c, _ = _single_model(cfg)
        est = simulate_ruin(lam, sev, c, reserve, sim)
    else:
        # the simulator builds its own copula samplers; no grid is needed
        market = cfg.market()
        shares = _company_shares(cfg)
        _positive("company claim intensity",
                  shares.p1 * market.risk1.intensity + shares.p2 * market.risk2.intensity)
        est = simulate_bivariate_market(
            market, shares, float(_premium_rate(market, cfg.demands, *cfg.loadings)), reserve, sim)
    payload = {"estimate": est.to_dict(), "config": config_to_dict(cfg)}
    write_json(out / f"{stem}.json", payload)
    if args.dump_times:
        times = est.diagnostics["ruin_times"]
        write_csv(out / f"{stem}_times.csv", ["path", "ruin_time"],
                  ((i, t) for i, t in enumerate(times.tolist())))
    print(f"wrote {out / f'{stem}.json'}: p={est.probability:.6f} "
          f"[{est.ci_low:.6f}, {est.ci_high:.6f}]")
    return 0


def _write_sweep(path, thetas, profit, ruin, feasible, reserves):
    """Write a theta,profit,ruin_at_* CSV; return (theta, ruin) at each reserve's minimum.

    ``ruin`` holds one column per sorted reserve; ``_sweep_argmin`` picks the minima.
    """
    header = ["theta", "profit"] + [f"ruin_at_{_FLOAT_FMT % r}" for r in reserves]
    write_csv(path, header, zip(thetas.tolist(), profit.tolist(), *ruin.T.tolist()))
    best, _ = _sweep_argmin(ruin, feasible)
    return {_FLOAT_FMT % r: (float(thetas[k]), float(ruin[k, j]))
            for j, (r, k) in enumerate(zip(reserves, best))}


def _reproduce_single(name, cfg, out, sweep_step, grid_step):
    risk, demand = cfg.risks[0], cfg.demands[0]
    thetas = _loading_grid(0.05, 1.0, sweep_step)
    sweep = sweep_single_loading(demand, risk.intensity, risk.severity, cfg.reserves, thetas, grid_step)
    best = _write_sweep(out / f"{name}_sweep.csv", sweep["theta"], sweep["profit"], sweep["ruin"],
                        sweep["feasible"], sweep["reserves"])
    ruin_res = ruin_optimal_loading(demand, risk.intensity, risk.severity.mean)
    profit_res = profit_optimal_loading(demand, risk.intensity, risk.severity.mean)
    return {
        "theta_ruin": ruin_res.loading,
        "theta_profit": profit_res.loading,
        "max_expected_profit": profit_res.value,
        "sweep_argmin_by_reserve": {r: theta for r, (theta, _) in best.items()},
    }


def _reproduce_common(name, cfg, out, sweep_step, grid_step, acquisition=None, label="",
                      decomposition=None):
    market = cfg.market()
    if decomposition is None:
        decomposition = decompose(market, grid_step)
    thetas = _loading_grid(0.05, 1.0, sweep_step)
    reserves = sorted(cfg.reserves)
    ruin, profit, feasible = company_ruin_at(
        market, tuple(cfg.demands), acquisition or cfg.acquisition, reserves,
        np.column_stack([thetas, thetas]), grid_step, decomposition,
    )
    best = _write_sweep(out / f"{name}_sweep{label}.csv", thetas, profit, ruin, feasible, reserves)
    return {r: {"argmin": theta, "min_ruin": value} for r, (theta, value) in best.items()}


def cmd_reproduce(args) -> int:
    name = args.figure
    raw = figure_config(name)
    cfg = parse_config(raw)
    out = _out_dir(args) / name
    sweep_step = args.sweep_step
    if sweep_step is None:
        sweep_step = 0.005 if name.startswith(("fig1", "fig2")) else 0.01
    grid_step = cfg.solver.grid_step if args.grid_step is None else args.grid_step
    summary = {"figure": name, "preset": raw}

    if name.startswith(("fig1", "fig2")):
        summary["results"] = _reproduce_single(name, cfg, out, sweep_step, grid_step)
        summary["results"]["weighted_average_hint"] = None
    elif name.startswith("fig3"):
        indep_cfg = parse_config({**raw, "levy_copula": {"family": "independence"}})
        dep = _reproduce_common(name, cfg, out, sweep_step, grid_step, label="_dependent")
        ind = _reproduce_common(name, indep_cfg, out, sweep_step, grid_step, label="_independent")
        r1 = ruin_optimal_loading(cfg.demands[0], cfg.risks[0].intensity, cfg.risks[0].severity.mean)
        r2 = ruin_optimal_loading(cfg.demands[1], cfg.risks[1].intensity, cfg.risks[1].severity.mean)
        ref = 0.4
        summary["results"] = {
            "dependent": dep,
            "independent": ind,
            "theta_weighted": weighted_average_loading(
                r1.loading, r2.loading,
                float(cfg.demands[0].take_rate(ref)), float(cfg.demands[1].take_rate(ref)),
            ),
        }
    elif name in ("fig4", "fig5"):
        market = cfg.market()
        demands = tuple(cfg.demands)
        reserve = max(cfg.reserves)
        decomposition = decompose(market, grid_step)
        res = optimize_joint_ruin(
            market, demands, cfg.acquisition, reserve, mode="separate", grid_step=grid_step,
            sweep_step=sweep_step, decomposition=decomposition,
        )
        profit_res = optimize_joint_profit(
            demands, (market.risk1.intensity, market.risk2.intensity),
            (market.risk1.severity.mean, market.risk2.severity.mean), mode="separate",
        )
        thetas = _loading_grid(0.2, 0.6, sweep_step)
        pairs = np.stack(np.meshgrid(thetas, thetas, indexing="ij"), axis=-1).reshape(-1, 2)
        ruin, profit, _ = company_ruin_at(
            market, demands, cfg.acquisition, [reserve], pairs, grid_step, decomposition
        )
        write_csv(out / f"{name}_grid.csv", ["theta1", "theta2", "ruin", "profit"],
                  zip(*pairs.T.tolist(), ruin[:, 0].tolist(), profit.tolist()))
        summary["results"] = {
            "ruin_optimum": list(res.loading), "min_ruin": res.value,
            "grid_optimum": list(res.grid_loading),
            "profit_optimum": list(profit_res.loading),
        }
    else:  # fig6
        decomposition = decompose(cfg.market(), grid_step)
        acquisitions = {"independent": ("_independent", make_ordinary("independence"))}
        for family in ("clayton", "gumbel"):
            for tau in (0.05, 0.25, 0.5):
                acquisitions[f"{family}_tau_{tau}"] = (f"_{family}_tau{tau}", make_ordinary(family, tau=tau))
        summary["results"] = {
            key: _reproduce_common(name, cfg, out, sweep_step, grid_step, acquisition=acq,
                                   label=label, decomposition=decomposition)
            for key, (label, acq) in acquisitions.items()
        }

    write_json(out / "summary.json", summary)
    print(f"wrote {out / 'summary.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lundberg",
        description="Ruin probabilities and optimal premium loadings for compound Poisson surplus processes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a ruin curve for a model config")
    p.add_argument("config")
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--solver", choices=("grid", "series"), default="grid")
    p.add_argument("--out", default=None, help="output file stem")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--dump-decomposition", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("optimize", help="optimize security loadings")
    p.add_argument("config")
    p.add_argument("--criterion", choices=("ruin", "profit"), default="ruin")
    p.add_argument("--mode", choices=("single", "common", "separate"), default="single")
    p.add_argument("--reserve", type=float, default=None)
    p.add_argument("--sweep-step", type=float, default=0.01)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo ruin estimate")
    p.add_argument("config")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dump-times", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="emit the data behind a preset figure")
    p.add_argument("figure")
    p.add_argument("--sweep-step", type=float, default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NetProfitError as exc:
        print(f"model precondition failed: {exc}", file=sys.stderr)
        return 3
    except (InstabilityError, AccuracyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except LundbergError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
