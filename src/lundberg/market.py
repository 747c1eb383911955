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
from .errors import ValidationError, _nonnegative, _positive, _step_grid

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
        _nonnegative("claim intensity", self.intensity)

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
        if self.levy is not None and max(self.risk1.severity.cdf(0.0), self.risk2.severity.cdf(0.0)) > 0:
            raise ValidationError("coupled risks need claim sizes without mass at 0")  # U(0) must be lambda


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
    carry their mass at the right endpoint): each owns one node-sized
    array, its masses, and views ``nodes`` as its atoms.  Exact continuous
    samplers, driven by the copula identities rather than the grid, back
    the Monte Carlo cross-checks (tables built on first use); ``grid_step``
    None builds only them (grids None).

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
        exchangeable: True when both risks have one intensity and one
            claim law; risk 2's grids and sampler tables are then risk 1's.
    """

    _TABLE_SIZE = 1 << 18

    def __init__(self, market: MarketSpec, grid_step: float | None, *,
                 joint_step: float | None = None, joint_tail_mass: float | None = None):
        for name, step in (("grid step", grid_step), ("joint step", joint_step)):
            if step is not None:
                _positive(name, step)
        if joint_tail_mass is not None and not 0 < joint_tail_mass < 1:
            raise ValidationError(f"joint tail mass must be in (0, 1), got {joint_tail_mass}")
        self.market = market
        lam1, lam2 = market.risk1.intensity, market.risk2.intensity
        self.lambda1, self.lambda2 = lam1, lam2
        # one intensity and one claim law: C is symmetric, so risk 2's parts are bit for bit risk 1's
        sev1, sev2 = market.risk1.severity, market.risk2.severity
        self.exchangeable = lam1 == lam2 and (sev1 is sev2 or (
            type(sev1) is type(sev2) and sev1.fingerprint() == sev2.fingerprint()))
        self._tables = None
        self.nodes = self.joint_both = self.sev1_both = self.sev2_both = self.sev_sum_both = None
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

        extent = self._extent(_TAIL_MASS)
        with _step_grid("grid step", grid_step):
            n = max(int(np.ceil(extent / grid_step - 1e-9)), 2)
            self.nodes = nodes = grid_step * np.arange(n + 1)

        self.sev1_both, self.sev1_gridded, self.sev1_only = self._components(0, nodes)
        self.sev2_both, self.sev2_gridded, self.sev2_only = (
            (self.sev1_both, self.sev1_gridded, self.sev1_only) if self.exchangeable
            else self._components(1, nodes))

        # Joint cell masses from rectangle increments of the composed tail integral; the final
        # column/row edge is closed at zero so residual mass beyond the grid folds into the last
        # cell, keeping marginal row/column sums exactly equal to the one-dimensional masses. The
        # lattice may use its own (coarser) step and a shorter tail, since the summed severity
        # carries a small mixture weight; with the defaults it shares the component grid and the
        # consistency identities are exact.  Lattice row i is the column difference of the corner
        # rows C(e1[i+1], e2) - C(e1[i], e2) over lambda_both, checked by JointGridded.rows:
        # rounding dust reads 0, and the cell of a NaN or non-monotone tail integral raises.  A
        # chunk's rows are streamed one at a time through a few buffers that stay in cache, carrying
        # the previous corner row, so each corner row is evaluated once (and once more where a chunk
        # starts).  An exchangeable pair's lattice is symmetric (e2 is e1, and C is symmetric bit
        # for bit), so sum_distribution asks for half rows: row i from its first column i on, on the
        # corner columns e2[i:], the carried corner row dropping one column per row, divided by
        # lambda_both / 2 (each cell doubled exactly above the subnormal range) and its diagonal
        # cell halved back.
        joint_step = grid_step if joint_step is None else joint_step
        jtm = _TAIL_MASS if joint_tail_mass is None else joint_tail_mass
        extent = self._extent(jtm)
        with _step_grid("joint step", joint_step):
            nj = max(int(np.ceil(extent / joint_step - 1e-9)), 2)
            edges = joint_step * np.arange(nj + 1)
        e1 = np.asarray(market.risk1.tail_integral(edges), dtype=float)
        e2 = e1 if self.exchangeable else np.asarray(market.risk2.tail_integral(edges), dtype=float)
        e1[-1] = e2[-1] = 0.0
        harmonic = levy.omega == 1.0

        def rows(a: int, b: int, half: bool = False):
            corners = np.empty(nj + 1), np.empty(nj + 1)
            d0 = np.empty(nj + 1)
            rect = np.empty(nj)
            scale = lam_both / 2.0 if half else lam_both
            for k, x in enumerate(e1[a : b + 1].tolist()):
                first = a + max(k - 1, 0) if half else 0  # row a + k - 1's first column (row a's at k = 0)
                cols = e2[first:]
                m = cols.size
                if not harmonic:
                    high = np.asarray(levy.cdf(x, cols), dtype=float)
                elif x == 0.0:
                    # x*e2/(x+e2) is 0, and 0 (not 0/0) where both tails are 0.
                    high = corners[k % 2][:m]
                    high.fill(0.0)
                else:
                    high = np.multiply(x, cols, out=corners[k % 2][:m])
                    high /= np.add(x, cols, out=d0[:m])
                if k:
                    np.subtract(high, low[first - low_first:], out=d0[:m])
                    row = np.subtract(d0[1:m], d0[: m - 1], out=rect[: m - 1])
                    row /= scale
                    if half:
                        row[0] *= 0.5  # the diagonal cell, once
                    yield row
                low, low_first = high, first

        self.joint_both = JointGridded(joint_step, nj, rows, symmetric=self.exchangeable)
        self.sev_sum_both = sum_distribution(self.joint_both)

    def _extent(self, tail_mass: float) -> float:
        """Smallest abscissa beyond which both marginals keep at most ``tail_mass``."""
        return max(float(self.market.risk1.severity.isf(tail_mass)),
                   float(self.market.risk2.severity.isf(tail_mass)))

    def _tails(self, i: int, xs: np.ndarray):
        """Risk i + 1's U_i(xs) and C(U_1, lambda_2) or C(lambda_1, U_2) there, as new arrays."""
        u = np.asarray((self.market.risk1, self.market.risk2)[i].tail_integral(xs), dtype=float)
        pair = (u, self.lambda2) if i == 0 else (self.lambda1, u)
        return u, np.asarray(self.market.levy.cdf(*pair), dtype=float)

    def _components(self, i: int, nodes: np.ndarray):
        """Risk i + 1's (simultaneous, input marginal, exclusive) severities from one (U_i, C_i) pair."""
        u, c = self._tails(i, nodes)
        gridded = only = Gridded.from_survival(nodes, u / (self.lambda1, self.lambda2)[i])
        if not (self.degenerate1, self.degenerate2)[i]:
            u -= c
            u /= (self.lambda1_only, self.lambda2_only)[i]
            only = Gridded.from_survival(nodes, u)
        del u  # freed before the last component: one node array less at the peak
        c /= self.lambda_both
        return Gridded.from_survival(nodes, c), gridded, only

    # ------------------------------------------------------------------
    # Exact continuous samplers (independent of the grid discretization)
    # ------------------------------------------------------------------

    def _inverse_tables(self):
        """Tabulated inverse transforms on a fine abscissa, built lazily."""
        if self.market.levy is None:
            raise ValidationError("independent markets have no simultaneous-claim samplers")
        if self._tables is not None:
            return self._tables
        xs = np.linspace(0.0, self._extent(1e-14), self._TABLE_SIZE)
        tables = {"xs": xs[::-1].copy()}
        # One risk at a time, each table written once; an exchangeable pair's risk 2 reads risk 1's.
        # u - C(u, lam) cancels to noise far out (below 1e-23 on the reference market); a running
        # maximum keeps lookups independent of their order.
        for i, only in enumerate((self.lambda1_only, self.lambda2_only)[: 2 - self.exchangeable]):
            u, c = self._tails(i, xs)
            tables[f"u{i + 1}"] = u[::-1].copy()
            if not (self.degenerate1, self.degenerate2)[i]:
                u -= c
                u /= only
                tables[f"only{i + 1}"] = np.maximum.accumulate(u[::-1], out=np.empty_like(u))
            c /= self.lambda_both
            tables[f"both{i + 1}"] = c[::-1].copy()
            del u, c  # freed before the next risk's pair is made
        if self.exchangeable:
            tables.update({key[:-1] + "2": table for key, table in tables.items() if key != "xs"})
        self._tables = tables
        return tables

    def _interp_inverse(self, key: str, w: np.ndarray) -> np.ndarray:
        """Inverse transform of the table ``key`` at ``w``; a degenerate stream has no ``only{i}`` table."""
        t = self._inverse_tables()
        if key not in t:
            raise ValidationError(f"risk {key[-1]} has no exclusive claims (complete dependence)")
        return _ordered_interp(w, t[key], t["xs"])

    def sample_only1(self, rng, size):
        """Severities of claims hitting only risk 1."""
        return self._interp_inverse("only1", rng.random(size))

    def sample_only2(self, rng, size):
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
    """Company-level claim process implied by market shares, in six fields.

    ``intensity``/``severity`` describe the company claim stream with the simultaneous-claim
    dependence kept, ``premium_rate`` its premium income and ``reserve`` the sum of the reserves
    given to :func:`company_exposure`; ``intensity_indep``/``severity_indep`` are the
    marginal-only approximation that prices the same mean claim rate but ignores joint jumps.
    """

    intensity: float
    severity: SeverityModel
    premium_rate: float
    reserve: float
    intensity_indep: float
    severity_indep: SeverityModel

    @property
    def expected_profit(self) -> float:
        """Expected profit per unit time, net of fixed costs."""
        return self.premium_rate - self.intensity * self.severity.mean


def _company_severities(decomp: Decomposition) -> tuple:
    """The severities of the company's claim streams, in the order of :func:`_company_streams`."""
    parts = (decomp.sev1_only, decomp.sev2_only, decomp.sev1_both, decomp.sev2_both, decomp.sev_sum_both)
    return parts if decomp.lambda_both else parts[:2]


def _company_streams(decomp: Decomposition, p1, p2, both):
    """The company's claim streams as (severity, intensity) pairs.

    Coupled markets give the five-part split into exclusive, one-sided simultaneous
    (shares ``p1 - both`` and ``p2 - both``) and summed simultaneous claims; independent
    markets give its first two, each risk's own claims.  Shares may be scalars or
    arrays (one entry per loading of a sweep).
    """
    lam_b = decomp.lambda_both
    rates = (p1 * decomp.lambda1_only, p2 * decomp.lambda2_only, (p1 - both) * lam_b, (p2 - both) * lam_b,
             both * lam_b)
    return list(zip(_company_severities(decomp), rates))


def _shares_in_range(shares: AcquisitionShares) -> tuple:
    """(p1, p2, both), each moved onto the bound it may miss by 1e-12: p_i >= 0, 0 <= both <= min(p1, p2)."""
    p1, p2 = max(shares.p1, 0.0), max(shares.p2, 0.0)
    return p1, p2, min(max(shares.both, 0.0), p1, p2)


def _company_claim_model(decomp: Decomposition, shares: AcquisitionShares):
    """Thinned intensity and severity mixtures for a share profile.

    Returns (intensity, severity, intensity_indep, severity_indep).
    """
    lam1, lam2 = decomp.lambda1, decomp.lambda2
    p1, p2, both = _shares_in_range(shares)
    lam_tilde = _positive("company claim intensity", p1 * lam1 + p2 * lam2 - both * decomp.lambda_both)
    lam_hat = p1 * lam1 + p2 * lam2
    severities, rates = zip(*_company_streams(decomp, p1, p2, both))
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
    decomposition: Decomposition,
) -> CompanyExposure:
    """Build the company claim model, premium rate, and reserve.

    The claim stream thins the market decomposition by the acquisition shares: intensity
    p1*lambda1 + p2*lambda2 - both*lambda_both, and a five-part severity mixture over exclusive,
    one-sided simultaneous, and summed simultaneous claims.  The premium rate adds the two
    per-risk demand premiums at the given loadings.  The reserve is the sum of ``reserves``, which
    a config gives as evaluation points (fig3 stores 21,000); nothing in the package reads it, and
    ROADMAP item 8 drops it.  The marginal-only approximation (hat model) is carried alongside;
    both have the same mean claim rate.  ``decomposition`` is the market's :func:`decompose` on
    the solver grid.
    """
    lam_tilde, sev_tilde, lam_hat, sev_hat = _company_claim_model(decomposition, shares)
    premium = float(_premium_rate(market, demands, *loadings))
    reserve = _nonnegative("reserve", float(np.sum(reserves)))
    return CompanyExposure(
        intensity=lam_tilde,
        severity=sev_tilde,
        premium_rate=premium,
        reserve=reserve,
        intensity_indep=lam_hat,
        severity_indep=sev_hat,
    )
