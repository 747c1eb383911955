"""Monte Carlo estimation of ruin probabilities.

Paths are simulated at claim epochs only: the surplus increases between
claims, so checking ruin when a claim lands is exact and needs no time
discretization.  The premium rate must therefore be nonnegative.  Claims
are drawn in fixed-size blocks of paths with one generator per block,
seeded as ``SeedSequence((seed, block_index))``; identical seeds
therefore reproduce estimates bit for bit.  The blocks run through
:func:`lundberg._pool.map`: with more than one block and more than one
usable CPU they run in forked worker processes, one per CPU, and are
joined in path order, so the result does not depend on the number
of workers.  Simulation blocks always clear the pool's work floor;
without ``fork`` (or inside a daemonic process) the blocks run in the
calling process.  The copula samplers look their tables up in sorted
order, which leaves the stream unchanged.  Superposed streams are drawn
by the composition method: the weighted-part draw of ``Mixture.sampler``
picks each claim's stream against the cumulative rates.

The default horizon is chosen in the claim-count clock: (80 + 8u/E[Y])
divided by eta expected claims per path, where eta is the relative
safety loading and u the starting reserve.  The first term covers the
mixing scale of the surplus walk, the second the longer ruin times of
well-capitalized companies; past that point the remaining ruin mass is
negligible against the Monte Carlo noise, which the horizon-doubling
test in the suite verifies per model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import ndtri

from . import _pool
from .demand import AcquisitionShares
from .distributions import SeverityModel, _weighted_draw
from .errors import ValidationError, _count, _nonnegative, _positive
from .market import Decomposition, MarketSpec, _company_streams, _shares_in_range

__all__ = [
    "SimConfig",
    "RuinEstimate",
    "wilson_interval",
    "simulate_ruin",
    "simulate_bivariate_market",
]

_BLOCK = 8192
_CHUNK = 256
_BASE_CLAIMS = 80.0
_CLAIMS_PER_RESERVE = 8.0
_FALLBACK_CLAIMS = 4000.0


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.

    ``horizon`` is in time units; None picks the claim-count default
    described in the module docstring.
    """

    paths: int = 100_000
    horizon: float | None = None
    seed: int = 0

    def __post_init__(self):
        _count("paths", self.paths, 1)
        if self.horizon is not None:
            _positive("horizon", self.horizon)
        _count("seed", self.seed, 0)


@dataclass(frozen=True)
class RuinEstimate:
    """Point estimate with a 99% Wilson interval."""

    probability: float
    ci_low: float
    ci_high: float
    paths: int
    ruined: int
    horizon: float
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but ``diagnostics``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "diagnostics"}


def wilson_interval(successes: int, trials: int, confidence: float = 0.99):
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValidationError("wilson interval needs 0 <= successes <= trials, trials >= 1")
    if not 0 < confidence < 1:
        raise ValidationError(f"confidence must be strictly between 0 and 1, got {confidence}")
    z = float(ndtri(0.5 + confidence / 2.0))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _default_horizon(intensity: float, mean_claim: float, premium_rate: float, reserve: float) -> float:
    eta = premium_rate / (intensity * mean_claim) - 1.0
    if eta <= 0:
        return _FALLBACK_CLAIMS / intensity
    claims = _BASE_CLAIMS + _CLAIMS_PER_RESERVE * reserve / mean_claim
    return claims / (eta * intensity)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(block))))


def _run_block(n, rng, horizon, premium_rate, reserve, draw):
    """Simulate one block of paths to ruin or horizon; returns ruin times."""
    t_cur = np.zeros(n)
    l_cur = np.zeros(n)
    ruin_time = np.full(n, np.nan)
    alive = np.arange(n)
    while alive.size:
        waits, sizes = draw(rng, (alive.size, _CHUNK))
        tt = t_cur[alive, None] + np.cumsum(waits, axis=1)
        ll = l_cur[alive, None] + np.cumsum(sizes, axis=1)
        hit = (reserve + premium_rate * tt - ll <= 0.0) & (tt <= horizon)
        any_hit = hit.any(axis=1)
        if any_hit.any():
            rows = np.nonzero(any_hit)[0]
            first = np.argmax(hit[rows], axis=1)
            ruin_time[alive[rows]] = tt[rows, first]
        t_cur[alive] = tt[:, -1]
        l_cur[alive] = ll[:, -1]
        alive = alive[~any_hit]
        alive = alive[t_cur[alive] < horizon]
    return ruin_time


def _run_paths(config, rate, mean_claim, premium_rate, reserve, draw, diagnostics):
    """Run all paths in seeded blocks and return the estimate.

    ``rate`` is the total claim rate and ``mean_claim`` the mean claim
    size, which set the default horizon; without claims no path is
    ruined.
    """
    _nonnegative("claim intensity", rate)
    _nonnegative("premium rate", premium_rate)  # ruin between claims would go unseen below 0
    _nonnegative("reserve", reserve)
    total = config.paths
    starts = range(0, total, _BLOCK)
    horizon = config.horizon
    if rate <= 0:  # no claims: nothing to run
        starts, horizon = [], horizon or np.inf
    elif horizon is None:
        horizon = _default_horizon(rate, mean_claim, premium_rate, reserve)

    def run(start):
        return _run_block(min(_BLOCK, total - start), _block_rng(config.seed, start // _BLOCK),
                          horizon, premium_rate, reserve, draw)

    blocks = list(_pool.map(run, starts))  # in path order
    all_times = np.concatenate(blocks) if blocks else np.full(total, np.nan)
    ruined_total = int(np.count_nonzero(~np.isnan(all_times)))
    diagnostics["ruin_times"] = all_times
    lo, hi = wilson_interval(ruined_total, total)
    return RuinEstimate(
        probability=ruined_total / total, ci_low=lo, ci_high=hi, paths=total,
        ruined=ruined_total, horizon=horizon, seed=config.seed, diagnostics=diagnostics,
    )


def simulate_ruin(
    intensity: float,
    severity: SeverityModel,
    premium_rate: float,
    reserve: float,
    config: SimConfig,
) -> RuinEstimate:
    """Estimate the ruin probability of one compound Poisson surplus process.

    The estimate's ``diagnostics["ruin_times"]`` holds each path's ruin
    time, NaN for survivors.
    """
    sample = severity.sampler()  # its tables once per run, not once per draw
    def draw(rng, shape):
        return rng.exponential(1.0 / intensity, shape), sample(rng, shape)

    return _run_paths(config, intensity, severity.mean, premium_rate, reserve, draw, {})


def _company_draw(d: Decomposition, shares: AcquisitionShares):
    """The company's three stream rates, mean claim and claim draw (rng, shape) -> (waits, sizes)."""
    p1, p2, both = _shares_in_range(shares)
    parts = [r for _, r in _company_streams(d, p1, p2, both)] + [0.0] * 3  # two if independent
    # risk 1's exclusive and one-sided simultaneous claims, risk 2's, the summed pairs
    rates = np.array([parts[0] + parts[2], parts[1] + parts[3], parts[4]])
    total = float(rates.sum())
    if not total > 0:  # no claims: nothing is drawn
        return rates, None, None
    if d.lambda_both:  # each risk's exclusive, then one-sided simultaneous claims (rate 0: never drawn)
        leaves = ((d.sample_only1, d.sample_both1), (d.sample_only2, d.sample_both2))
        one_sided = [_weighted_draw((parts[i] / r, parts[i + 2] / r) if r else (0.0, 0.0), leaves[i])
                     for i, r in enumerate(rates[:2])]
    else:
        first = d.market.risk1.severity.sampler()
        one_sided = [first, first if d.exchangeable else d.market.risk2.severity.sampler()]
    pick = _weighted_draw(rates / total, (*one_sided, lambda rng, n: np.add(*d.sample_pair_both(rng, n))))

    def draw(rng, shape):
        waits = rng.random(shape)  # -log1p(-u) / total, in place
        np.divide(np.negative(np.log1p(np.negative(waits, out=waits), out=waits), out=waits), total, out=waits)
        return waits, pick(rng, shape)

    # share-weighted marginal cost rates: exact for any dependence
    cost_rate = p1 * d.market.risk1.mean_claim_rate + p2 * d.market.risk2.mean_claim_rate
    return rates, cost_rate / total, draw


def simulate_bivariate_market(
    market: MarketSpec,
    shares: AcquisitionShares,
    premium_rate: float,
    reserve: float,
    config: SimConfig,
    decomposition: Decomposition | None = None,
) -> RuinEstimate:
    """Estimate company ruin by simulating the decomposed claim streams.

    Three Poisson streams are superposed by one weighted-part draw: each
    risk's one-sided claims (a draw over its exclusive and simultaneous
    claims) and simultaneous claims drawn as exact copula pairs (both
    coordinates added).  Severities come from the continuous copula
    inversion, not from the gridded mixtures, so this estimator is a
    route independent of the grid solvers.  Without a ``decomposition``
    only the stream intensities and the samplers are built, no grids.
    The estimate's ``diagnostics`` hold the ``stream_rates`` and ``ruin_times``.
    """
    if decomposition is None:
        decomposition = Decomposition(market, grid_step=None)
    if market.levy is not None:  # built once, before the workers fork, and kept by the caller
        decomposition._inverse_tables()
    rates, mean_claim, draw = _company_draw(decomposition, shares)
    return _run_paths(config, float(rates.sum()), mean_claim, premium_rate, reserve, draw,
                      {"stream_rates": rates.tolist()})
