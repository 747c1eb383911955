"""JSON model configuration: parsing, validation, serialization.

A configuration describes either a single risk or a two-risk market,
optional demand curves and loadings, the dependence copulas, reserves,
and solver/simulation parameters.  ``parse_config`` builds live model
objects and a canonical dict so that parse -> serialize -> parse is the
identity; all validation failures raise :class:`ConfigError` carrying
the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .copulas import ClaytonLevyCopula, OrdinaryCopula, make_ordinary
from .demand import DemandSpec
from .distributions import Exponential, Gamma, Gridded, SeverityModel, mixture
from .errors import ConfigError, ValidationError
from .market import CompoundPoissonSpec, MarketSpec
from .ruin import SolverConfig
from .simulate import SimConfig

__all__ = ["ModelConfig", "parse_config", "load_config", "config_to_dict"]


def _require(data: dict, key: str, kind, field: str):
    if key not in data:
        raise ConfigError("missing required entry", field=f"{field}.{key}")
    value = data[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"expected a number, got {value!r}", field=f"{field}.{key}")
        return float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__}", field=f"{field}.{key}")
    return value


def severity_from_dict(data: dict, field: str = "severity") -> SeverityModel:
    if not isinstance(data, dict):
        raise ConfigError("severity must be an object", field=field)
    kind = data.get("kind")
    try:
        if kind == "exponential":
            return Exponential(_require(data, "mean", float, field))
        if kind == "gamma":
            return Gamma(_require(data, "shape", float, field), _require(data, "scale", float, field))
        if kind == "mixture":
            weights = _require(data, "weights", list, field)
            comps = _require(data, "components", list, field)
            return mixture(
                [float(w) for w in weights],
                [severity_from_dict(c, f"{field}.components[{i}]") for i, c in enumerate(comps)],
            )
        if kind == "gridded":
            return Gridded(_require(data, "atoms", list, field), _require(data, "masses", list, field))
    except ValidationError as exc:
        raise ConfigError(str(exc), field=field) from exc
    raise ConfigError(f"unknown severity kind {kind!r}", field=f"{field}.kind")


def _copula_from_dict(data: dict, field: str) -> OrdinaryCopula:
    if not isinstance(data, dict):
        raise ConfigError("copula must be an object", field=field)
    family = data.get("family")
    if family is None:
        raise ConfigError("missing copula family", field=f"{field}.family")
    try:
        return make_ordinary(family, omega=data.get("omega"), tau=data.get("tau"))
    except ValidationError as exc:
        raise ConfigError(str(exc), field=field) from exc


def _levy_from_dict(data: dict, field: str) -> ClaytonLevyCopula | None:
    if not isinstance(data, dict):
        raise ConfigError("copula must be an object", field=field)
    family = data.get("family")
    if family == "independence":
        return None
    if family != "clayton":
        raise ConfigError(f"Levy copula family must be clayton or independence, got {family!r}",
                          field=f"{field}.family")
    omega = data.get("omega")
    tau = data.get("tau")
    if omega is not None and tau is not None:
        raise ConfigError("specify either omega or tau, not both", field=field)
    if omega is None:
        raise ConfigError("clayton Levy copula needs omega", field=field)
    try:
        return ClaytonLevyCopula(float(omega))
    except ValidationError as exc:
        raise ConfigError(str(exc), field=field) from exc


@dataclass
class ModelConfig:
    """Parsed model configuration with live objects and a canonical echo."""

    risks: list
    demands: list
    levy: ClaytonLevyCopula | None
    acquisition: OrdinaryCopula
    reserves: list
    loadings: list | None
    premium_rate: float | None
    solver: SolverConfig
    sim: SimConfig
    preset: str | None
    notes: str | None

    @property
    def is_single(self) -> bool:
        return len(self.risks) == 1

    def market(self) -> MarketSpec:
        if self.is_single:
            raise ConfigError("two risks are required for a market model", field="risks")
        return MarketSpec(self.risks[0], self.risks[1], self.levy)


def parse_config(data: dict) -> ModelConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object", field="$")
    known = {
        "risks", "demand", "levy_copula", "acquisition_copula", "reserves",
        "loadings", "premium_rate", "solver", "sim", "preset", "notes",
    }
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown entry {key!r}", field=key)

    raw_risks = _require(data, "risks", list, "$")
    if len(raw_risks) not in (1, 2):
        raise ConfigError(f"need exactly 1 or 2 risks, got {len(raw_risks)}", field="risks")
    risks = []
    for i, r in enumerate(raw_risks):
        if not isinstance(r, dict):
            raise ConfigError("risk must be an object", field=f"risks[{i}]")
        lam = _require(r, "lambda", float, f"risks[{i}]")
        sev = severity_from_dict(r.get("severity"), field=f"risks[{i}].severity")
        try:
            risks.append(CompoundPoissonSpec(lam, sev))
        except ValidationError as exc:
            raise ConfigError(str(exc), field=f"risks[{i}]") from exc

    demands = None
    if "demand" in data:
        raw_d = _require(data, "demand", list, "$")
        if len(raw_d) != len(risks):
            raise ConfigError("need one demand spec per risk", field="demand")
        demands = []
        for i, d in enumerate(raw_d):
            if not isinstance(d, dict):
                raise ConfigError("demand must be an object", field=f"demand[{i}]")
            try:
                demands.append(DemandSpec(
                    beta0=_require(d, "beta0", float, f"demand[{i}]"),
                    beta1=_require(d, "beta1", float, f"demand[{i}]"),
                    fixed_cost=float(d.get("fixed_cost", 0.0)),
                ))
            except ValidationError as exc:
                raise ConfigError(str(exc), field=f"demand[{i}]") from exc

    premium_rate = None
    if "premium_rate" in data:
        if demands is not None:
            raise ConfigError("give either demand curves or a raw premium_rate, not both",
                              field="premium_rate")
        if len(risks) != 1:
            raise ConfigError("raw premium_rate applies to single-risk models only",
                              field="premium_rate")
        premium_rate = _require(data, "premium_rate", float, "$")
    if demands is None and premium_rate is None:
        raise ConfigError("configuration needs demand curves or a premium_rate", field="$")

    levy = None
    if "levy_copula" in data:
        if len(risks) == 1:
            raise ConfigError("levy_copula applies to two-risk models only", field="levy_copula")
        levy = _levy_from_dict(data["levy_copula"], "levy_copula")
    acquisition = make_ordinary("independence")
    if "acquisition_copula" in data:
        if len(risks) == 1:
            raise ConfigError("acquisition_copula applies to two-risk models only",
                              field="acquisition_copula")
        acquisition = _copula_from_dict(data["acquisition_copula"], "acquisition_copula")

    reserves = [float(x) for x in _require(data, "reserves", list, "$")]
    if not reserves or any(x < 0 for x in reserves):
        raise ConfigError("reserves must be a nonempty list of nonnegative numbers", field="reserves")

    loadings = None
    if data.get("loadings") is not None:
        loadings = [float(x) for x in data["loadings"]]
        if len(loadings) != len(risks):
            raise ConfigError("need one loading per risk", field="loadings")

    mean_scale = max(r.severity.mean for r in risks)
    solver_raw = data.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ConfigError("solver must be an object", field="solver")
    try:
        solver = SolverConfig(
            grid_step=float(solver_raw.get("grid_step", mean_scale / 500.0)),
            x_max=float(solver_raw.get("x_max", max(max(reserves), mean_scale * 20.0))),
            series_terms=int(solver_raw.get("series_terms", 400)),
        )
    except ValidationError as exc:
        raise ConfigError(str(exc), field="solver") from exc

    sim_raw = data.get("sim", {})
    if not isinstance(sim_raw, dict):
        raise ConfigError("sim must be an object", field="sim")
    try:
        sim = SimConfig(
            paths=int(sim_raw.get("paths", 100_000)),
            horizon=None if sim_raw.get("horizon") is None else float(sim_raw["horizon"]),
            seed=int(sim_raw.get("seed", 0)),
            antithetic=bool(sim_raw.get("antithetic", False)),
        )
    except ValidationError as exc:
        raise ConfigError(str(exc), field="sim") from exc

    return ModelConfig(
        risks=risks, demands=demands, levy=levy, acquisition=acquisition,
        reserves=reserves, loadings=loadings, premium_rate=premium_rate,
        solver=solver, sim=sim, preset=data.get("preset"), notes=data.get("notes"),
    )


def load_config(path) -> ModelConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"cannot read {path}", field="$") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                          field=str(path)) from exc
    return parse_config(data)


def config_to_dict(cfg: ModelConfig) -> dict:
    """Canonical serialized form; parsing it back yields an identical model."""
    out = {
        "risks": [
            {"lambda": r.intensity, "severity": r.severity.describe()} for r in cfg.risks
        ],
        "reserves": list(cfg.reserves),
        "solver": {
            "grid_step": cfg.solver.grid_step,
            "x_max": cfg.solver.x_max,
            "series_terms": cfg.solver.series_terms,
        },
        "sim": {
            "paths": cfg.sim.paths,
            "horizon": cfg.sim.horizon,
            "seed": cfg.sim.seed,
            "antithetic": cfg.sim.antithetic,
        },
    }
    if cfg.demands is not None:
        out["demand"] = [
            {"beta0": d.beta0, "beta1": d.beta1, "fixed_cost": d.fixed_cost} for d in cfg.demands
        ]
    if cfg.premium_rate is not None:
        out["premium_rate"] = cfg.premium_rate
    if not cfg.is_single:
        out["levy_copula"] = cfg.levy.describe() if cfg.levy else {"family": "independence"}
        out["acquisition_copula"] = cfg.acquisition.describe()
    if cfg.loadings is not None:
        out["loadings"] = list(cfg.loadings)
    if cfg.preset:
        out["preset"] = cfg.preset
    if cfg.notes:
        out["notes"] = cfg.notes
    return out
