"""Command-line interface.

Four commands drive the library against JSON model configurations; ``reproduce``
writes the tables and the summary that :func:`lundberg.reproduce_figure` returns:

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

from . import __version__
from .config import ModelConfig, config_to_dict, load_config
from .demand import acquisition_shares
from .errors import (AccuracyError, ConfigError, InstabilityError, LundbergError, NetProfitError,
                     ValidationError, _positive)
from .figures import reproduce_figure
from .market import _premium_rate, company_exposure, decompose
# bench/spans.py and bench/tests read cli.sweep_single_loading and cli.company_ruin_at (ROADMAP item 8)
from .optimize import (company_ruin_at, optimize_joint_profit, optimize_joint_ruin, profit_optimal_loading,
                       ruin_optimal_loading, sweep_single_loading)
from .ruin import solve_series, solve_survival
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
    return {"config": config_to_dict(cfg), "generated_at": datetime.now(timezone.utc).isoformat(), **extra}


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
            nodes, d = decomposition.nodes, decomposition
            columns = {"sf_only1": d.sev1_only, "sf_only2": d.sev2_only, "sf_both1": d.sev1_both,
                       "sf_both2": d.sev2_both, "sf_sum_both": d.sev_sum_both}
            write_csv(out / f"{stem}_decomposition.csv", ["x", *columns],
                      zip(nodes.tolist(), *(sev.sf(nodes).tolist() for sev in columns.values())))
    write_csv(out / f"{stem}.csv", ["x", "survival", "ruin"],
              zip(curve.x.tolist(), curve.survival.tolist(), curve.ruin.tolist()))
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


def cmd_reproduce(args) -> int:
    out = _out_dir(args) / args.figure
    tables, summary = reproduce_figure(args.figure, args.sweep_step, args.grid_step)
    for file_name, (header, rows) in tables.items():
        write_csv(out / file_name, header, rows)
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
