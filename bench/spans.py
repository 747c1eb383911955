"""In-memory span tracer for the benchmark's traced runs.

``install`` wraps the public functions of each lundberg layer, and the
methods named below, so that every call records a span: its name,
start, end, parent span and the operation it belongs to, plus counts
taken from its arguments and result.  Wrappers call the original and
return its result untouched, so traced and untraced runs compute the
same values.

A function imported by name into another module is a separate binding
there (``cli`` imports ``sweep_single_loading``, ``optimize`` and
``simulate`` import ``decompose``, ``market`` imports
``sum_distribution``), so each wrapper replaces every binding of the
original in every loaded ``lundberg`` module.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Span names whose draws count as claims of an enclosing simulator span.
_SAMPLERS = ("distributions.sample", "market.sample")
_SIMULATORS = ("simulate.simulate_ruin", "simulate.simulate_bivariate_market")


@dataclass
class Span:
    name: str
    parent: int
    op: str | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``op`` labels the spans of the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, count=None):
        span = Span(name, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span.counts = count(result, *args, **kwargs)
        return result

    def dump(self) -> list:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
             **s.counts}
            for s in self.spans
        ]


# --------------------------------------------------------------------------
# Counters: called as count(result, *args, **kwargs) after the wrapped call.
# --------------------------------------------------------------------------

def _cells(n: int) -> int:
    return n * (n - 1) // 2


def _recursion_nodes(reserves, grid_step) -> int:
    top = max(float(r) for r in np.atleast_1d(reserves))
    return max(int(np.ceil(top / grid_step - 1e-9)), 1)


def _count_company_ruin_at(result, market, demands, acquisition, reserve, theta_pairs,
                           grid_step, decomposition=None):
    ruin, _, feasible = result
    points = int(np.atleast_2d(np.asarray(theta_pairs, dtype=float)).shape[0])
    live = int(np.count_nonzero(feasible))
    nan_rows = np.isnan(ruin) if ruin.ndim == 1 else np.isnan(ruin).any(axis=1)
    return {
        "points": points,
        "feasible_points": live,
        "nan_points": int(np.count_nonzero(nan_rows)),
        "single_point_calls": int(points == 1),
        "direct_macs": live * _cells(_recursion_nodes(reserve, grid_step)),
    }


def _count_sweep_single(result, demand, intensity, severity, reserves, thetas, grid_step):
    live = int(np.count_nonzero(result["feasible"]))
    return {
        "points": int(np.asarray(thetas).size),
        "direct_macs": live * _cells(_recursion_nodes(reserves, grid_step)),
    }


def _count_solve_survival(result, intensity, severity, premium_rate, config):
    n = config.n_cells
    return {"nodes": n + 1, "direct_macs": _cells(n) if intensity > 0 else 0}


def _count_solve_series(result, *args, **kwargs):
    return {"terms": int(result.diagnostics.get("terms", 0))}


def _count_decompose(result, *args, **kwargs):
    nodes = 0 if result.nodes is None else int(result.nodes.size)
    joint = 0 if result.joint_both is None else result.joint_both.ncells ** 2
    return {"nodes": nodes, "joint_cells": joint}


def _count_sum_distribution(result, joint, chunk=256):
    return {"cells": joint.ncells ** 2}


def _count_write_csv(result, path, header, rows):
    return {"bytes": os.path.getsize(path)}


def _count_draws(result, *args, **kwargs):
    first = result[0] if isinstance(result, tuple) else result
    return {"draws": int(np.size(first))}


def _count_points(result, x):
    return {"points": int(np.size(x))}


# (module, attribute, span name, counter) for module-level functions.
FUNCTIONS = [
    ("lundberg.cli", "cmd_reproduce", "cli.cmd_reproduce", None),
    ("lundberg.cli", "write_csv", "cli.write_csv", _count_write_csv),
    ("lundberg.cli", "write_json", "cli.write_json", None),
    ("lundberg.optimize", "company_ruin_at", "optimize.company_ruin_at", _count_company_ruin_at),
    ("lundberg.optimize", "optimize_joint_ruin", "optimize.optimize_joint_ruin", None),
    ("lundberg.optimize", "sweep_single_loading", "optimize.sweep_single_loading", _count_sweep_single),
    ("lundberg.ruin", "solve_survival", "ruin.solve_survival", _count_solve_survival),
    ("lundberg.ruin", "solve_series", "ruin.solve_series", _count_solve_series),
    ("lundberg.market", "decompose", "market.decompose", _count_decompose),
    ("lundberg.market", "company_exposure", "market.company_exposure", None),
    ("lundberg.distributions", "sum_distribution", "distributions.sum_distribution",
     _count_sum_distribution),
    ("lundberg.simulate", "simulate_ruin", "simulate.simulate_ruin", None),
    ("lundberg.simulate", "simulate_bivariate_market", "simulate.simulate_bivariate_market", None),
]


def _method_targets():
    """(class, method name, span name, counter) for patched methods."""
    from lundberg import copulas, distributions, market

    targets = [
        (distributions.SeverityModel, "fingerprint", "distributions.fingerprint", None),
        (copulas.OrdinaryCopula, "cdf", "copulas.cdf", None),
        (copulas.ClaytonLevyCopula, "cdf", "copulas.cdf", None),
    ]
    pending = list(distributions.SeverityModel.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "sample" in vars(cls):
            targets.append((cls, "sample", "distributions.sample", _count_draws))
    for meth in ("sample_only1", "sample_only2", "sample_both1", "sample_both2", "sample_pair_both"):
        targets.append((market.Decomposition, meth, "market.sample", _count_draws))
    return targets


def _wrap(tracer, name, fn, count):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _lundberg_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "lundberg" or n.startswith("lundberg."))]


def install(tracer: Tracer):
    """Patch every binding of the traced functions; returns an undo callable."""
    from lundberg import distributions

    undo = []

    def rebind_everywhere(original, replacement):
        for module in _lundberg_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    undo.append((module, attr, original))

    for module_name, attr, name, count in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        rebind_everywhere(original, _wrap(tracer, name, original, count))

    for cls, attr, name, count in _method_targets():
        original = vars(cls)[attr]
        setattr(cls, attr, _wrap(tracer, name, original, count))
        undo.append((cls, attr, original))

    original_tails = distributions.integrated_tails

    def traced_tails(model):
        tails = original_tails(model)
        return distributions.IntegratedTails(
            sbar=_wrap(tracer, "distributions.tails", tails.sbar, _count_points),
            ssbar=_wrap(tracer, "distributions.tails", tails.ssbar, _count_points),
            mean=tails.mean,
        )

    rebind_everywhere(original_tails, traced_tails)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------

# Every per-layer metric the traced run reports: span name -> fields.
LAYER_METRICS = {
    "optimize.company_ruin_at": ["calls", "busy_s", "self_s", "points", "feasible_points",
                                 "nan_points", "single_point_calls", "direct_macs_per_s"],
    "optimize.optimize_joint_ruin": ["busy_s", "self_s"],
    "optimize.sweep_single_loading": ["calls", "busy_s", "points", "direct_macs_per_s"],
    "ruin.solve_survival": ["calls", "busy_s", "self_s", "nodes", "direct_macs_per_s"],
    "ruin.solve_series": ["calls", "busy_s", "terms"],
    "market.decompose": ["calls", "busy_s", "self_s", "nodes", "joint_cells"],
    "market.company_exposure": ["calls", "busy_s"],
    "market.sample": ["draws", "busy_s"],
    "distributions.sum_distribution": ["busy_s", "cells"],
    "distributions.tails": ["busy_s", "points"],
    "distributions.fingerprint": ["calls", "busy_s"],
    "distributions.sample": ["draws", "busy_s"],
    "simulate.simulate_ruin": ["busy_s", "self_s", "claims", "claims_per_s"],
    "simulate.simulate_bivariate_market": ["busy_s", "self_s", "claims", "claims_per_s"],
    "cli.cmd_reproduce": ["busy_s", "self_s"],
    "cli.write_csv": ["calls", "busy_s", "bytes"],
    "cli.write_json": ["busy_s"],
    "copulas.cdf": ["calls", "busy_s"],
}


def unit_of(field_name: str) -> str:
    if field_name.endswith("_per_s"):
        return "1/s"
    if field_name.endswith("_s"):
        return "s"
    return "count"


def _ancestor_named(spans: list[Span], i: int, names) -> int | None:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return p
        p = spans[p].parent
    return None


def layer_totals(spans: list[Span], op: str | None = None) -> dict:
    """Per span name: calls, busy, self time and summed counts.

    Busy time and counts take only the outermost span of each name, so
    a call that recurses into itself (a mixture sampling its components)
    is not counted twice.  Self time is a span's duration minus the
    time its direct children cover, summed over every span of the name.
    ``op`` restricts the totals to the spans of one operation.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    totals: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if op is not None and s.op != op:
            continue
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["self_s"] += s.duration - child_time[i]
        if _ancestor_named(spans, i, (s.name,)) is not None:
            continue
        t["calls"] += 1
        t["busy_s"] += s.duration
        for key, value in s.counts.items():
            t[key] = t.get(key, 0) + value
        if s.name in _SAMPLERS and _ancestor_named(spans, i, _SAMPLERS) is None:
            sim = _ancestor_named(spans, i, _SIMULATORS)
            if sim is not None:
                owner = totals.setdefault(spans[sim].name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                owner["claims"] = owner.get("claims", 0) + s.counts["draws"]
    return totals


def layer_metrics(totals: dict) -> dict:
    """Flatten ``layer_totals`` into the named per-layer metrics."""
    out = {}
    for name, fields in LAYER_METRICS.items():
        t = totals.get(name, {})
        busy = t.get("busy_s", 0.0)
        for f in fields:
            if f.endswith("_per_s"):
                work = t.get(f[: -len("_per_s")], 0)
                value = work / busy if busy > 0 else 0.0
            else:
                value = t.get(f, 0.0 if f.endswith("_s") else 0)
            out[f"{name}.{f}"] = value
    return out
