"""Market risk models and the market-to-company exposure mapping.

A market risk is a compound Poisson claim process (intensity, severity).
Two dependent risks are coupled through a Clayton Lévy copula acting on
their tail integrals U_i(x) = lambda_i * F̄_i(x); the coupled pair splits
into three independent compound Poisson streams: claims hitting only
risk 1, only risk 2, or both at once.  With

    lambda_both       = C(lambda_1, lambda_2)
    lambda_i_only     = lambda_i - lambda_both
    P(Y_1only >= x)   = (U_1(x) - C(U_1(x), lambda_2)) / lambda_1_only
    P(pair >= (x, y)) = C(U_1(x), U_2(y)) / lambda_both

all recomposition identities hold exactly at the grid nodes, which keeps
the discretized component severities consistent with their inputs and
makes the mean of the company claim distribution match its
independence approximation to rounding error.

A company holding market shares (p1, p2) with joint-policy share
``both`` sees thinned streams and a five-part severity mixture; see
:func:`company_exposure`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import ClaytonLevyCopula
from .demand import AcquisitionShares, DemandSpec
from .distributions import Gridded, JointGridded, SeverityModel, mixture, sum_distribution
from .errors import ValidationError

__all__ = [
    "CompoundPoissonSpec",
    "MarketSpec",
    "Decomposition",
    "CompanyExposure",
    "decompose",
    "company_exposure",
]

_INTENSITY_TOL = 1e-9
_TAIL_MASS = 1e-12  # marginal probability allowed beyond the component grid


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """One market risk: claim intensity and severity distribution."""

    intensity: float
    severity: SeverityModel

    def __post_init__(self):
        if self.intensity < 0:
            raise ValidationError(f"claim intensity must be nonnegative, got {self.intensity}")

    def tail_integral(self, x):
        """U(x) = intensity * P(Y >= x), the jump measure of [x, inf)."""
        return self.intensity * self.severity.sf(x)

    @property
    def mean_claim_rate(self) -> float:
        """Expected claim cost per unit time (the pure premium)."""
        return self.intensity * self.severity.mean


@dataclass(frozen=True)
class MarketSpec:
    """Two market risks plus their claim-dependence structure.

    ``levy`` is None for independent risks, otherwise the Clayton Lévy
    copula coupling the two claim processes.
    """

    risk1: CompoundPoissonSpec
    risk2: CompoundPoissonSpec
    levy: ClaytonLevyCopula | None = None

    def __post_init__(self):
        if self.levy is not None and (self.risk1.intensity <= 0 or self.risk2.intensity <= 0):
            raise ValidationError("coupled risks need strictly positive intensities")


def _ordered_interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, fp)`` for 1-D float64 x, looked up in ascending order of x.

    np.interp searches from the previous value's cell, so sorted queries walk the
    table in step; any order gives the same bits.  Sort key: top bits of x, then index.
    """
    bits = max((x.size - 1).bit_length(), 1)
    order = x.view(np.int64) >> bits << bits | np.arange(x.size)
    order.sort()
    order &= (1 << bits) - 1
    vals = x[order]
    vals[order] = np.interp(vals, xp, fp)
    return vals


class Decomposition:
    """Split of a coupled claim pair into independent component streams.

    Component severities are discretized on a uniform node grid (cells
    carry their mass at the right endpoint).  Exact continuous samplers,
    driven by the copula identities rather than the grid, back the Monte
    Carlo cross-checks; ``grid_step`` None builds only them (grids None).

    Attributes:
        lambda1_only, lambda2_only, lambda_both: component intensities.
        sev1_only, sev2_only: severities of single-risk claims.
        sev1_both, sev2_both: marginal severities of simultaneous claims.
        sev_sum_both: severity of the summed simultaneous claim.
        joint_both: cell masses of the simultaneous pair.
        sev1_gridded, sev2_gridded: the input marginals discretized on
            the same grid (used by the independence approximation).
        degenerate1, degenerate2: True when the matching exclusive
            stream has zero intensity (complete dependence).
    """

    _TABLE_SIZE = 1 << 18

    def __init__(self, market: MarketSpec, grid_step: float | None, *,
                 joint_step: float | None = None, joint_tail_mass: float | None = None):
        self.market = market
        lam1, lam2 = market.risk1.intensity, market.risk2.intensity
        self.lambda1, self.lambda2 = lam1, lam2
        self._tables = None
        self.nodes = self.joint_both = None
        self.sev1_both = self.sev2_both = self.sev_sum_both = None
        levy = market.levy
        if levy is None:
            self.lambda_both = 0.0
            self.lambda1_only, self.lambda2_only = lam1, lam2
            self.degenerate1 = self.degenerate2 = False
            self.sev1_only, self.sev2_only = market.risk1.severity, market.risk2.severity
            self.sev1_gridded, self.sev2_gridded = market.risk1.severity, market.risk2.severity
            return

        lam_both = float(levy.cdf(lam1, lam2))
        if lam_both > min(lam1, lam2) + _INTENSITY_TOL:
            raise ValidationError("joint intensity exceeds a marginal intensity")
        lam_both = min(lam_both, min(lam1, lam2))
        only1 = lam1 - lam_both
        only2 = lam2 - lam_both
        self.lambda_both = lam_both
        self.degenerate1 = only1 <= _INTENSITY_TOL * lam1
        self.degenerate2 = only2 <= _INTENSITY_TOL * lam2
        self.lambda1_only = 0.0 if self.degenerate1 else only1
        self.lambda2_only = 0.0 if self.degenerate2 else only2
        if grid_step is None:
            self.sev1_only = self.sev2_only = self.sev1_gridded = self.sev2_gridded = None
            return

        n = max(int(np.ceil(self._extent(_TAIL_MASS) / grid_step - 1e-9)), 2)
        self.nodes = nodes = grid_step * np.arange(n + 1)

        u1, u2 = self._tail_integrals(nodes)
        c1, c2 = self._simultaneous_tails(u1, u2)

        self.sev1_both = Gridded.from_survival(nodes, c1 / lam_both)
        self.sev2_both = Gridded.from_survival(nodes, c2 / lam_both)
        self.sev1_gridded = Gridded.from_survival(nodes, u1 / lam1)
        self.sev2_gridded = Gridded.from_survival(nodes, u2 / lam2)
        if self.degenerate1:
            self.sev1_only = self.sev1_gridded
        else:
            self.sev1_only = Gridded.from_survival(nodes, (u1 - c1) / self.lambda1_only)
        if self.degenerate2:
            self.sev2_only = self.sev2_gridded
        else:
            self.sev2_only = Gridded.from_survival(nodes, (u2 - c2) / self.lambda2_only)

        # Joint cell masses from rectangle increments of the composed tail
        # integral; the final column/row edge is closed at zero so residual
        # mass beyond the grid folds into the last cell, keeping marginal
        # row/column sums exactly equal to the one-dimensional masses.
        # The lattice may use its own (coarser) step and a shorter tail,
        # since the summed severity carries a small mixture weight; with
        # the defaults it shares the component grid and the consistency
        # identities are exact.
        joint_step = grid_step if joint_step is None else joint_step
        jtm = _TAIL_MASS if joint_tail_mass is None else joint_tail_mass
        nj = max(int(np.ceil(self._extent(jtm) / joint_step - 1e-9)), 2)
        jnodes = joint_step * np.arange(nj + 1)
        e1, e2 = self._tail_integrals(jnodes)
        e1[-1] = 0.0
        e2[-1] = 0.0
        harmonic = levy.omega == 1.0
        zero2 = np.flatnonzero(e2 == 0.0)

        def row_masses(a: int, b: int) -> np.ndarray:
            rows = e1[a : b + 1][:, None]
            if harmonic:
                # rows*e2/(rows+e2) in place; 0 where both tails are 0.
                block = rows * e2
                with np.errstate(invalid="ignore", divide="ignore"):
                    block /= rows + e2
                block[np.ix_(np.flatnonzero(rows[:, 0] == 0.0), zero2)] = 0.0
            else:
                block = np.asarray(levy.cdf(rows, e2[None, :]), dtype=float)
            rect = np.diff(np.diff(block, axis=0), axis=1)
            rect /= lam_both
            return np.maximum(rect, 0.0, out=rect)

        self.joint_both = JointGridded(jnodes, row_masses)
        self.sev_sum_both = sum_distribution(self.joint_both)

    def _extent(self, tail_mass: float) -> float:
        """Smallest abscissa beyond which both marginals keep at most ``tail_mass``."""
        return max(float(self.market.risk1.severity.isf(tail_mass)),
                   float(self.market.risk2.severity.isf(tail_mass)))

    def _tail_integrals(self, xs: np.ndarray):
        """U_1(xs) and U_2(xs)."""
        return (np.asarray(self.market.risk1.tail_integral(xs), dtype=float),
                np.asarray(self.market.risk2.tail_integral(xs), dtype=float))

    def _simultaneous_tails(self, u1: np.ndarray, u2: np.ndarray):
        """C(U_1, lambda_2) and C(lambda_1, U_2): the marginal tails of simultaneous claims."""
        levy = self.market.levy
        return (np.asarray(levy.cdf(u1, np.full_like(u1, self.lambda2)), dtype=float),
                np.asarray(levy.cdf(np.full_like(u2, self.lambda1), u2), dtype=float))

    # ------------------------------------------------------------------
    # Exact continuous samplers (independent of the grid discretization)
    # ------------------------------------------------------------------

    def _inverse_tables(self):
        """Tabulated inverse transforms on a fine abscissa, built lazily."""
        if self.market.levy is None:
            raise ValidationError("independent markets have no simultaneous-claim samplers")
        if self._tables is not None:
            return self._tables
        lam_both = self.lambda_both
        xs = np.linspace(0.0, self._extent(1e-14), self._TABLE_SIZE)
        u1, u2 = self._tail_integrals(xs)
        c1, c2 = self._simultaneous_tails(u1, u2)
        tables = {
            "xs": xs[::-1].copy(),
            "u1": u1[::-1].copy(), "u2": u2[::-1].copy(),
            "both1": (c1 / lam_both)[::-1].copy(),
            "both2": (c2 / lam_both)[::-1].copy(),
        }
        # u - C(u, lam) cancels to noise far out (below 1e-23 on the reference
        # market); a running maximum keeps lookups independent of their order
        if not self.degenerate1:
            tables["only1"] = np.maximum.accumulate(((u1 - c1) / self.lambda1_only)[::-1])
        if not self.degenerate2:
            tables["only2"] = np.maximum.accumulate(((u2 - c2) / self.lambda2_only)[::-1])
        self._tables = tables
        return tables

    def _interp_inverse(self, key: str, w: np.ndarray) -> np.ndarray:
        t = self._inverse_tables()
        return _ordered_interp(w, t[key], t["xs"])

    def sample_only1(self, rng, size):
        """Severities of claims hitting only risk 1."""
        if self.degenerate1:
            raise ValidationError("risk 1 has no exclusive claims (complete dependence)")
        return self._interp_inverse("only1", rng.random(size))

    def sample_only2(self, rng, size):
        if self.degenerate2:
            raise ValidationError("risk 2 has no exclusive claims (complete dependence)")
        return self._interp_inverse("only2", rng.random(size))

    def sample_both1(self, rng, size):
        """First-coordinate severities of simultaneous claims."""
        return self._interp_inverse("both1", rng.random(size))

    def sample_both2(self, rng, size):
        return self._interp_inverse("both2", rng.random(size))

    def sample_pair_both(self, rng, size):
        """Simultaneous claim pairs, by conditional inversion of the copula.

        The first coordinate is drawn from its marginal through the tail
        integral; the second from the closed-form conditional of the
        Clayton family.  No gridding is involved, so this sampler is a
        route independent of the discretized joint masses.
        """
        omega = self.market.levy.omega
        lam, lam1, lam2 = self.lambda_both, self.lambda1, self.lambda2
        w1 = 1.0 - rng.random(size)
        w2 = rng.random(size)
        q = lam * w1
        with np.errstate(divide="ignore", over="ignore"):
            s1 = q * np.power(1.0 - np.power(q / lam2, omega), -1.0 / omega)
        s1 = np.minimum(s1, lam1)
        x1 = self._interp_inverse("u1", s1)
        k = q * np.power(w2, 1.0 / (1.0 + omega))
        with np.errstate(divide="ignore", over="ignore"):
            v = k * np.power(1.0 - np.power(k / s1, omega), -1.0 / omega)
        v = np.minimum(v, lam2)
        x2 = self._interp_inverse("u2", v)
        return x1, x2


def decompose(market: MarketSpec, grid_step: float, *, joint_step: float | None = None,
              joint_tail_mass: float | None = None) -> Decomposition:
    """Decompose a two-risk market into independent component streams.

    ``grid_step`` sets the severity discretization cell width (by default
    solvers reuse their own reserve step here); the grid ends where each
    marginal keeps at most 1e-12 of its mass beyond, which folds into the
    last cell.  ``joint_step``/``joint_tail_mass`` optionally coarsen the
    quadratic-cost lattice of the simultaneous pair; with the defaults the
    lattice shares the component grid and all cross-consistency identities
    are exact.  Independent markets (no Lévy copula) decompose trivially
    with a zero simultaneous intensity.
    """
    return Decomposition(market, grid_step, joint_step=joint_step, joint_tail_mass=joint_tail_mass)


@dataclass(frozen=True)
class CompanyExposure:
    """Company-level claim process implied by market shares.

    ``intensity``/``severity`` describe the company claim stream with the
    simultaneous-claim dependence kept; ``intensity_indep``/
    ``severity_indep`` are the marginal-only approximation that prices
    the same mean claim rate but ignores joint jumps.
    """

    intensity: float
    severity: SeverityModel
    premium_rate: float
    reserve: float
    intensity_indep: float
    severity_indep: SeverityModel
    shares: AcquisitionShares
    lambda_both: float
    loadings: tuple
    market: MarketSpec

    @property
    def mean_claim_rate(self) -> float:
        return self.intensity * self.severity.mean

    @property
    def expected_profit(self) -> float:
        """Expected profit per unit time, net of fixed costs."""
        return self.premium_rate - self.mean_claim_rate


def _company_streams(decomp: Decomposition, p1, p2, only1, only2, both):
    """The company's claim streams as (severity, intensity) pairs.

    Independent markets give one stream per risk; coupled markets give
    the five-part split into exclusive, one-sided simultaneous and
    summed simultaneous claims.  Shares may be scalars or arrays (one
    entry per loading of a sweep).
    """
    if decomp.lambda_both == 0.0:
        return [
            (decomp.market.risk1.severity, p1 * decomp.lambda1),
            (decomp.market.risk2.severity, p2 * decomp.lambda2),
        ]
    lam_b = decomp.lambda_both
    return [
        (decomp.sev1_only, p1 * decomp.lambda1_only),
        (decomp.sev2_only, p2 * decomp.lambda2_only),
        (decomp.sev1_both, only1 * lam_b),
        (decomp.sev2_both, only2 * lam_b),
        (decomp.sev_sum_both, both * lam_b),
    ]


def _company_claim_model(decomp: Decomposition, shares: AcquisitionShares):
    """Thinned intensity and severity mixtures for a share profile.

    Returns (intensity, severity, intensity_indep, severity_indep).
    """
    lam1, lam2 = decomp.lambda1, decomp.lambda2
    p1, p2, both = shares.p1, shares.p2, shares.both
    lam_tilde = p1 * lam1 + p2 * lam2 - both * decomp.lambda_both
    if lam_tilde <= 0:
        raise ValidationError("company claim intensity must be positive; increase shares")
    lam_hat = p1 * lam1 + p2 * lam2
    severities, rates = zip(*_company_streams(decomp, p1, p2, shares.only1, shares.only2, both))
    if decomp.lambda_both == 0.0:
        sev_hat = mixture([r / lam_hat for r in rates], severities)
        return lam_tilde, sev_hat, lam_hat, sev_hat
    sev_tilde = mixture(np.array(rates) / lam_tilde, severities)
    sev_hat = mixture(
        [p1 * lam1 / lam_hat, p2 * lam2 / lam_hat],
        [decomp.sev1_gridded, decomp.sev2_gridded],
    )
    return lam_tilde, sev_tilde, lam_hat, sev_hat


def _premium_rate(market: MarketSpec, demands, theta1, theta2):
    """Company premium rate: the two per-risk demand premiums at their loadings, summed."""
    d1, d2 = demands
    return (d1.premium_rate(market.risk1.intensity, market.risk1.severity.mean, theta1)
            + d2.premium_rate(market.risk2.intensity, market.risk2.severity.mean, theta2))


def company_exposure(
    market: MarketSpec,
    shares: AcquisitionShares,
    loadings: tuple,
    demands: tuple[DemandSpec, DemandSpec],
    reserves: tuple,
    decomposition: Decomposition | None = None,
    grid_step: float = None,
) -> CompanyExposure:
    """Build the company claim model, premium rate, and reserve.

    The claim stream thins the market decomposition by the acquisition
    shares: intensity p1*lambda1 + p2*lambda2 - both*lambda_both, and a
    five-part severity mixture over exclusive, one-sided simultaneous,
    and summed simultaneous claims.  The premium rate adds the two
    per-risk demand premiums at the given loadings; the reserve adds the
    two per-risk reserves.  The marginal-only approximation (hat model)
    is carried alongside; both have the same mean claim rate.
    """
    if decomposition is None:
        if grid_step is None:
            raise ValidationError("company_exposure needs a decomposition or a grid step")
        decomposition = decompose(market, grid_step)
    theta1, theta2 = loadings
    lam_tilde, sev_tilde, lam_hat, sev_hat = _company_claim_model(decomposition, shares)
    premium = float(_premium_rate(market, demands, theta1, theta2))
    reserve = float(np.sum(reserves))
    if reserve < 0:
        raise ValidationError(f"reserve must be nonnegative, got {reserve}")
    return CompanyExposure(
        intensity=lam_tilde,
        severity=sev_tilde,
        premium_rate=premium,
        reserve=reserve,
        intensity_indep=lam_hat,
        severity_indep=sev_hat,
        shares=shares,
        lambda_both=decomposition.lambda_both,
        loadings=(float(theta1), float(theta2)),
        market=market,
    )
