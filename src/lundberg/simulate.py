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
order, which leaves the stream unchanged.

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
from .distributions import SeverityModel
from .errors import ValidationError, _count, _nonnegative, _positive
from .market import Decomposition, MarketSpec, _company_streams

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


class _StreamSampler:
    """Claim draws for the superposed three-stream company process."""

    def __init__(self, decomp: Decomposition, shares: AcquisitionShares):
        d = decomp
        self.decomp = d
        parts = [r for _, r in _company_streams(d, shares.p1, shares.p2, shares.only1, shares.only2,
                                                shares.both)] + [0.0] * 3  # independent: two streams
        # risk 1's exclusive and one-sided simultaneous claims, risk 2's, the summed pairs
        self.rates = np.array([parts[0] + parts[2], parts[1] + parts[3], parts[4]])
        self.total_rate = float(self.rates.sum())
        self.type_cum = self.mean_claim = None
        if self.total_rate > 0:  # the last positive-rate stream takes all above its cut
            self.type_cum = np.cumsum(self.rates / self.total_rate)
            self.type_cum[np.flatnonzero(self.rates)[-1]:] = np.inf
            # share-weighted marginal cost rates: exact for any dependence
            cost_rate = shares.p1 * d.market.risk1.mean_claim_rate + shares.p2 * d.market.risk2.mean_claim_rate
            self.mean_claim = cost_rate / self.total_rate
        self.w_excl1 = parts[0] / self.rates[0] if self.rates[0] > 0 else 0.0
        self.w_excl2 = parts[1] / self.rates[1] if self.rates[1] > 0 else 0.0
        first = d.market.risk1.severity.sampler()
        self.risk_samplers = (first, first if d.exchangeable else d.market.risk2.severity.sampler())

    def _one_sided(self, rng, m, which):
        d = self.decomp
        if d.lambda_both == 0.0:
            return self.risk_samplers[which - 1](rng, m)
        w_excl, only, both = ((self.w_excl1, d.sample_only1, d.sample_both1) if which == 1
                              else (self.w_excl2, d.sample_only2, d.sample_both2))
        excl = rng.random(m) < w_excl
        vals = np.empty(m)
        for picked, sample in ((excl, only), (~excl, both)):
            idx = np.flatnonzero(picked)
            if idx.size:
                vals[idx] = sample(rng, idx.size)
        return vals

    def draw(self, rng, shape):
        uw = rng.random(shape)
        ut = rng.random(shape).ravel()
        waits = -np.log1p(-uw) / self.total_rate
        past0, past1 = ut > self.type_cum[0], ut > self.type_cum[1]
        del uw, ut  # freed before the severity draws
        sizes = np.empty(past0.size)
        for which, picked in ((1, ~past0), (2, past0 ^ past1)):
            idx = np.flatnonzero(picked)
            if idx.size:
                sizes[idx] = self._one_sided(rng, idx.size, which)
        idx = np.flatnonzero(past1)
        if idx.size:
            y1, y2 = self.decomp.sample_pair_both(rng, idx.size)
            sizes[idx] = y1 + y2
        return waits, sizes.reshape(shape)


def simulate_bivariate_market(
    market: MarketSpec,
    shares: AcquisitionShares,
    premium_rate: float,
    reserve: float,
    config: SimConfig,
    decomposition: Decomposition | None = None,
) -> RuinEstimate:
    """Estimate company ruin by simulating the decomposed claim streams.

    Three independent Poisson streams are superposed: exclusive claims of
    each risk and simultaneous claims drawn as exact copula pairs (both
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
    sampler = _StreamSampler(decomposition, shares)
    return _run_paths(config, sampler.total_rate, sampler.mean_claim, premium_rate, reserve,
                      sampler.draw, {"stream_rates": sampler.rates.tolist()})
