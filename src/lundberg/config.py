"""JSON model configuration: parsing, validation, serialization.

A configuration describes either a single risk or a two-risk market,
optional demand curves and loadings, the dependence copulas, reserves,
and solver/simulation parameters.  ``parse_config`` builds live model
objects and a canonical dict so that parse -> serialize -> parse is the
identity.

Every entry is read by :func:`_get`: numbers must be finite JSON numbers
(not booleans), counts must be whole, and every object rejects keys it
does not know.  The solver, simulation and demand entries that a file
leaves out take the defaults of :class:`SolverConfig`, :class:`SimConfig`
and :class:`DemandSpec`; the solver's grid step and ``x_max`` default to
the model's scale.  All validation failures raise :class:`ConfigError`
carrying the offending field path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .copulas import ClaytonLevyCopula, OrdinaryCopula, make_ordinary
from .demand import DemandSpec
from .distributions import Exponential, Gamma, Gridded, SeverityModel, mixture
from .errors import ConfigError, ValidationError
from .market import CompoundPoissonSpec, MarketSpec
from .ruin import SolverConfig
from .simulate import SimConfig

__all__ = ["ModelConfig", "parse_config", "load_config", "config_to_dict"]

_REQUIRED = object()

_SEVERITIES = {
    "exponential": (Exponential, {"mean": float}),
    "gamma": (Gamma, {"shape": float, "scale": float}),
    "mixture": (mixture, {"weights": [float], "components": list}),
    "gridded": (Gridded, {"atoms": [float], "masses": [float]}),
}


def _number(value, kind, field: str):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max or kind is int and value != int(value)):
        raise ConfigError(f"expected a {'whole' if kind is int else 'finite'} number, got {value!r}",
                          field=field)
    return kind(value)


def _get(data: dict, key: str, kind, field: str, default=_REQUIRED):
    """Entry ``key`` of the object at ``field``, checked against ``kind``.

    ``float`` and ``int`` take finite JSON numbers only, and an ``int``
    must be whole; ``[float]`` is a list of such numbers; any other kind
    is an ``isinstance`` check.  An absent entry takes ``default``, and
    a null one does too where ``default`` is None.
    """
    name = key if field == "$" else f"{field}.{key}"
    value = data.get(key)
    if value is None and (key not in data or default is None):
        if default is _REQUIRED:
            raise ConfigError("missing required entry", field=name)
        return default
    if kind in (float, int):
        return _number(value, kind, name)
    if kind == [float]:
        if not isinstance(value, list):
            raise ConfigError(f"expected a list of numbers, got {value!r}", field=name)
        return [_number(v, float, f"{name}[{i}]") for i, v in enumerate(value)]
    if not isinstance(value, kind):
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__}", field=name)
    return value


def _object(data, field: str, known) -> dict:
    """``data`` if it is a JSON object with no key outside ``known``."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object, got {type(data).__name__}", field=field)
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown entry {key!r}", field=key if field == "$" else f"{field}.{key}")
    return data


def _given(data: dict, field: str, kinds: dict) -> dict:
    """The entries of ``kinds`` that ``data`` gives, not null; the rest keep their dataclass defaults."""
    return {key: _get(data, key, kind, field) for key, kind in kinds.items() if data.get(key) is not None}


def _build(field: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with its :class:`ValidationError` reported at ``field``."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ConfigError(str(exc), field=field) from exc


def severity_from_dict(data: dict, field: str = "severity") -> SeverityModel:
    kind = _get(_object(data, field, data), "kind", str, field)  # its keys are checked below
    if kind not in _SEVERITIES:
        raise ConfigError(f"unknown severity kind {kind!r}", field=f"{field}.kind")
    make, entries = _SEVERITIES[kind]
    _object(data, field, {"kind", *entries})
    args = [_get(data, key, entry, field) for key, entry in entries.items()]
    if kind == "mixture":
        args[1] = [severity_from_dict(c, f"{field}.components[{i}]") for i, c in enumerate(args[1])]
    return _build(field, make, *args)


def _copula_from_dict(data: dict, field: str) -> OrdinaryCopula:
    _object(data, field, ("family", "omega", "tau"))
    return _build(field, make_ordinary, _get(data, "family", str, field),
                  omega=_get(data, "omega", float, field, None), tau=_get(data, "tau", float, field, None))


def _levy_from_dict(data: dict, field: str) -> ClaytonLevyCopula | None:
    family = _get(_object(data, field, ("family", "omega")), "family", str, field)
    if family == "independence":
        _object(data, field, ("family",))
        return None
    if family != "clayton":
        raise ConfigError(f"Levy copula family must be clayton or independence, got {family!r}",
                          field=f"{field}.family")
    return _build(field, ClaytonLevyCopula, _get(data, "omega", float, field))


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
        return _build("risks", MarketSpec, self.risks[0], self.risks[1], self.levy)


def parse_config(data: dict) -> ModelConfig:
    _object(data, "$", ("risks", "demand", "levy_copula", "acquisition_copula", "reserves",
                        "loadings", "premium_rate", "solver", "sim", "preset", "notes"))
    raw_risks = _get(data, "risks", list, "$")
    if len(raw_risks) not in (1, 2):
        raise ConfigError(f"need exactly 1 or 2 risks, got {len(raw_risks)}", field="risks")
    risks = []
    for i, r in enumerate(raw_risks):
        field = f"risks[{i}]"
        _object(r, field, ("lambda", "severity"))
        sev = severity_from_dict(_get(r, "severity", dict, field), field=f"{field}.severity")
        risks.append(_build(field, CompoundPoissonSpec, _get(r, "lambda", float, field), sev))

    demands = None
    if "demand" in data:
        raw_d = _get(data, "demand", list, "$")
        if len(raw_d) != len(risks):
            raise ConfigError("need one demand spec per risk", field="demand")
        demands = []
        for i, d in enumerate(raw_d):
            field = f"demand[{i}]"
            _object(d, field, ("beta0", "beta1", "fixed_cost"))
            demands.append(_build(field, DemandSpec, _get(d, "beta0", float, field),
                                  _get(d, "beta1", float, field),
                                  **_given(d, field, {"fixed_cost": float})))

    premium_rate = None
    if "premium_rate" in data:
        if demands is not None:
            raise ConfigError("give either demand curves or a raw premium_rate, not both",
                              field="premium_rate")
        if len(risks) != 1:
            raise ConfigError("raw premium_rate applies to single-risk models only",
                              field="premium_rate")
        premium_rate = _get(data, "premium_rate", float, "$")
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

    reserves = _get(data, "reserves", [float], "$")
    if not reserves or any(x < 0 for x in reserves):
        raise ConfigError("reserves must be a nonempty list of nonnegative numbers", field="reserves")

    loadings = _get(data, "loadings", [float], "$", None)
    if loadings is not None and len(loadings) != len(risks):
        raise ConfigError("need one loading per risk", field="loadings")

    mean_scale = max(r.severity.mean for r in risks)
    solver_raw = _object(data.get("solver", {}), "solver", ("grid_step", "x_max", "series_terms"))
    solver = _build("solver", SolverConfig, **{
        "grid_step": mean_scale / 500.0, "x_max": max(max(reserves), mean_scale * 20.0),
        **_given(solver_raw, "solver", {"grid_step": float, "x_max": float, "series_terms": int})})
    sim_raw = _object(data.get("sim", {}), "sim", ("paths", "horizon", "seed"))
    sim = _build("sim", SimConfig,
                 **_given(sim_raw, "sim", {"paths": int, "horizon": float, "seed": int}))

    return ModelConfig(
        risks=risks, demands=demands, levy=levy, acquisition=acquisition,
        reserves=reserves, loadings=loadings, premium_rate=premium_rate,
        solver=solver, sim=sim, preset=_get(data, "preset", str, "$", None),
        notes=_get(data, "notes", str, "$", None),
    )


def load_config(path) -> ModelConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}", field="$") from exc
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
        "solver": asdict(cfg.solver),
        "sim": asdict(cfg.sim),
    }
    if cfg.demands is not None:
        out["demand"] = [asdict(d) for d in cfg.demands]
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
