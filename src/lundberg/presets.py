"""Built-in experiment configurations.

The reference setting is a two-risk gamma market: shape 2, scale 500
(mean claim 1000), market claim intensity 800 per risk.  Demand is logit
with intercept -0.6 and slopes 4.0 (risk 1) and 4.5 (risk 2); the fixed
cost is 20% of the pure premium at a 40% exposure, 0.4 * 0.2 * 2 * 500 *
800 = 64000 per risk.  Claim dependence uses a Clayton Lévy copula; the
headline parameter is omega = 1.0, with omega = 0.5 available as a
variant because both parameterizations of this benchmark circulate
(fig3's reported dependent minimum matches omega = 0.5).  An alternative
demand parameterization (intercept -0.5, slopes swapped) also circulates
and is kept runnable as the ``-alt`` variants; the default values are
the ones consistent with the reference optima 0.435/0.358/0.359/0.319.

``figure_config(name)`` returns a plain configuration dict for the named
figure of the reference study layout:

    fig1/fig2  single-risk loading sweeps (ruin and profit optima)
    fig3       aggregated pair, common loading, independent vs dependent
    fig4/fig5  separate loadings at reserve 5000 (independent/dependent)
    fig6       acquisition dependence: Clayton vs Gumbel across tau
"""

from __future__ import annotations

import copy

from .errors import ConfigError

__all__ = ["figure_config", "preset_names"]

GAMMA_SHAPE = 2.0
GAMMA_SCALE = 500.0
MARKET_INTENSITY = 800.0
BETA0 = -0.6
BETA1_RISK1 = 4.0
BETA1_RISK2 = 4.5
FIXED_COST = 0.4 * 0.2 * GAMMA_SHAPE * GAMMA_SCALE * MARKET_INTENSITY
LEVY_OMEGA = 1.0

_GAMMA = {"kind": "gamma", "shape": GAMMA_SHAPE, "scale": GAMMA_SCALE}


def _risk():
    return {"lambda": MARKET_INTENSITY, "severity": copy.deepcopy(_GAMMA)}


def _demand(beta1, beta0=BETA0):
    return {"beta0": beta0, "beta1": beta1, "fixed_cost": FIXED_COST}


def _single(beta1, beta0=BETA0):
    return {
        "risks": [_risk()],
        "demand": [_demand(beta1, beta0)],
        "reserves": [100.0, 1000.0, 5000.0, 20000.0],
        "loadings": [0.4],
        "solver": {"grid_step": 2.0, "x_max": 20000.0},
        "sim": {"paths": 100_000, "seed": 0},
    }


def _two_risk(levy, acquisition=None, reserves=(5000.0,)):
    cfg = {
        "risks": [_risk(), _risk()],
        "demand": [_demand(BETA1_RISK1), _demand(BETA1_RISK2)],
        "levy_copula": levy,
        "acquisition_copula": acquisition or {"family": "independence"},
        "reserves": list(reserves),
        "loadings": [0.4, 0.4],
        "solver": {"grid_step": 2.0, "x_max": 20000.0},
        "sim": {"paths": 100_000, "seed": 0},
    }
    return cfg


PRESETS = {
    "fig1": _single(BETA1_RISK1),
    "fig2": _single(BETA1_RISK2),
    "fig1-alt": _single(BETA1_RISK2, beta0=-0.5),
    "fig2-alt": _single(BETA1_RISK1, beta0=-0.5),
    "fig3": _two_risk({"family": "clayton", "omega": LEVY_OMEGA}, reserves=(1000.0, 5000.0, 15000.0)),
    "fig3-omega05": _two_risk({"family": "clayton", "omega": 0.5}, reserves=(1000.0, 5000.0, 15000.0)),
    "fig4": _two_risk({"family": "independence"}),
    "fig5": _two_risk({"family": "clayton", "omega": LEVY_OMEGA}),
    "fig6": _two_risk({"family": "clayton", "omega": LEVY_OMEGA}),
}

for _name, _cfg in PRESETS.items():
    _cfg["preset"] = _name


def preset_names():
    return sorted(PRESETS)


def figure_config(name: str) -> dict:
    """Deep copy of a named preset configuration."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return copy.deepcopy(PRESETS[name])
