"""Command-line interface.

Each command writes the tables and the sidecar that its recipe in :mod:`lundberg.figures` returns:

    lundberg solve      path/to/config.json   # ruin curve CSV + sidecar (solve_config)
    lundberg optimize   path/to/config.json   # loading optimization (optimize_config)
    lundberg simulate   path/to/config.json   # Monte Carlo estimate (simulate_config)
    lundberg reproduce  fig1|...|fig6         # preset experiment bundles (reproduce_figure)

Outputs are written atomically (temp file, then rename) with '.' decimals and LF line endings,
so identical inputs give identical bytes; wall-clock timestamps appear only in the
``generated_at`` field of solve/optimize sidecars.  A sidecar echoes the config file, not the
flags that override it.  The default output directory is the current directory or
``$LUNDBERG_OUTDIR``.

Exit codes: 0 success, 2 configuration error, 3 model precondition
failure (the net-profit margin is printed), 4 numerical failure.
"""

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import load_config
from .errors import (AccuracyError, ConfigError, InstabilityError, LundbergError, NetProfitError,
                     ValidationError)
from .figures import optimize_config, reproduce_figure, simulate_config, solve_config
# bench/spans.py and bench/tests read cli.sweep_single_loading and cli.company_ruin_at (ROADMAP item 8)
from .optimize import company_ruin_at, sweep_single_loading  # noqa: F401

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


def _write(args, tables: dict, name: str, sidecar: dict, stamp: bool = False, folder: str = "") -> Path:
    """Write a recipe's tables and its sidecar (stamped on request) as ``name`` in the output ``folder``."""
    out = Path(args.out_dir or os.environ.get("LUNDBERG_OUTDIR") or ".", folder)
    for file_name, (header, rows) in tables.items():
        write_csv(out / file_name, header, rows)
    path = out / name
    if stamp:
        sidecar = {**sidecar, "generated_at": datetime.now(timezone.utc).isoformat()}
    write_json(path, sidecar)
    return path


def _given_flags(args, *names) -> dict:
    """The named flags that the command line gives; they pass the same checks as file values."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_solve(args):
    cfg = load_config(args.config)
    solver = replace(cfg.solver, **_given_flags(args, "grid_step", "x_max"))
    stem = args.out or "ruin_curve"
    tables, sidecar = solve_config(cfg, solver, args.solver, args.dump_decomposition, stem)
    path = _write(args, tables, f"{stem}.json", sidecar, stamp=True)
    print(f"wrote {path.with_suffix('.csv')} ({len(tables[f'{stem}.csv'][1])} nodes)")


def cmd_optimize(args):
    stem = args.out or f"optimize_{args.criterion}_{args.mode}"
    tables, sidecar = optimize_config(load_config(args.config), args.criterion, args.mode, args.reserve,
                                      args.sweep_step, not args.no_refine, stem)
    path = _write(args, tables, f"{stem}.json", sidecar, stamp=True)
    if "results" in sidecar:
        print(f"wrote {path}: " + ", ".join(_FLOAT_FMT % r["loading"] for r in sidecar["results"]))
    else:
        print(f"wrote {path}: loading={sidecar['loading']}")


def cmd_simulate(args):
    cfg = load_config(args.config)
    sim = replace(cfg.sim, **_given_flags(args, "paths", "horizon", "seed"))
    stem = args.out or "simulate"
    tables, sidecar = simulate_config(cfg, sim, args.dump_times, stem)
    path = _write(args, tables, f"{stem}.json", sidecar)
    est = sidecar["estimate"]
    print(f"wrote {path}: p={est['probability']:.6f} [{est['ci_low']:.6f}, {est['ci_high']:.6f}]")


def cmd_reproduce(args):
    tables, summary = reproduce_figure(args.figure, args.sweep_step, args.grid_step)
    print(f"wrote {_write(args, tables, 'summary.json', summary, folder=args.figure)}")


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
        args.func(args)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
