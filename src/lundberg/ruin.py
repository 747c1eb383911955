"""Infinite-horizon survival and ruin probability solvers.

Two independent routes compute the survival probability of a compound
Poisson surplus process ``u + c*t - S_t``:

* :func:`solve_survival` discretizes the renewal-type integral equation

      Vbar(x) - Vbar(0+) = (lambda/c) * integral of Vbar(x-y)*F̄(y) dy

  on a uniform grid with a piecewise-linear ansatz for ``Vbar``.  Every
  segment integral is evaluated exactly through the integrated tails
  ``sbar``/``ssbar``, so the only approximation is the interpolation of
  ``Vbar`` itself.  The node equations form a lower-triangular Toeplitz
  system, i.e. a quotient of power series, which one kernel solves in
  O(n log n) per curve by Newton iteration for the series inverse
  (Brent & Kung 1978): :func:`_recursion_coefficients` builds its
  per-component rows and :func:`survival_batch` solves any number of
  curves together.  A single curve is a batch of one; the loading
  sweeps of :mod:`lundberg.optimize` are batches of hundreds.

* :func:`solve_series` sums the Picard series of the equivalent fixed
  point equation V = alpha*(g + L V), where ``L`` is the tail
  convolution operator and ``alpha = lambda/c``.  Operator powers are
  contractions with norm growth (2x)^n/n!, which gives a computable
  truncation bound.  This solver is slower and serves as an oracle for
  the grid recursion.

Both enforce the net profit condition ``c > lambda*E[Y]`` and pin the
boundary value ``Vbar(0+) = 1 - lambda*E[Y]/c``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .distributions import SeverityModel, integrated_tails
from .errors import AccuracyError, InstabilityError, NetProfitError, ValidationError

__all__ = [
    "SolverConfig",
    "RuinCurve",
    "solve_survival",
    "solve_series",
    "independence_gap_bound",
]

_NEGATIVE_TOL = 1e-9
_SERIES_TAIL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Grid and series parameters for the ruin solvers.

    Attributes:
        grid_step: uniform reserve step h.
        x_max: last grid node (rounded up to a whole number of steps).
        series_terms: cap on operator powers for the series solver.
    """

    grid_step: float
    x_max: float
    series_terms: int = 400

    def __post_init__(self):
        if not self.grid_step > 0:
            raise ValidationError(f"grid step must be positive, got {self.grid_step}")
        if self.x_max < self.grid_step:
            raise ValidationError("x_max must be at least one grid step")
        if self.series_terms < 1:
            raise ValidationError("series_terms must be at least 1")

    @property
    def n_cells(self) -> int:
        return max(int(math.ceil(self.x_max / self.grid_step - 1e-9)), 1)

    def nodes(self) -> np.ndarray:
        return self.grid_step * np.arange(self.n_cells + 1)


@dataclass
class RuinCurve:
    """Survival/ruin probabilities on a reserve grid.

    ``survival`` is nondecreasing along the grid for a well-resolved
    solve and starts at the exact boundary value 1 - lambda*E[Y]/c.
    """

    x: np.ndarray
    survival: np.ndarray
    intensity: float
    premium_rate: float
    config: SolverConfig
    solver: str
    fingerprint: str = ""
    diagnostics: dict = field(default_factory=dict)

    @property
    def ruin(self) -> np.ndarray:
        return 1.0 - self.survival

    def survival_at(self, x):
        return np.interp(x, self.x, self.survival)

    def ruin_at(self, x):
        return 1.0 - self.survival_at(x)


def _solve(solver, intensity, severity, premium_rate, config, curve) -> RuinCurve:
    """The entry both solvers share.

    Checks the intensity, returns the certain-survival curve without
    claims and enforces the net profit condition; otherwise
    ``curve(tails, nodes)`` returns the survival values and diagnostics.
    """
    if intensity < 0:
        raise ValidationError(f"claim intensity must be nonnegative, got {intensity}")
    nodes = config.nodes()
    payload = f"{intensity!r}|{severity.fingerprint()}|{premium_rate!r}|{config.grid_step!r}|{config.x_max!r}"
    survival, diagnostics = np.ones_like(nodes), {}
    if intensity != 0.0:
        tails = integrated_tails(severity)
        margin = premium_rate - intensity * tails.mean
        if margin <= 0:
            raise NetProfitError(margin)
        survival, diagnostics = curve(tails, nodes)
    return RuinCurve(
        x=nodes, survival=survival, intensity=intensity, premium_rate=premium_rate, config=config,
        solver=solver, fingerprint=hashlib.sha1(payload.encode()).hexdigest()[:12],
        diagnostics=diagnostics,
    )


def _recursion_coefficients(tails, nodes: np.ndarray, h: float):
    """Per-component coefficient rows of the grid recursion.

    For segment j (between nodes j-1 and j) the exact integral of
    ``Vbar(x_i - y) F̄(y)`` for a piecewise-linear ``Vbar`` contributes

        c1_j = sbar(x_j) - sbar(x_j-1)
        c2_j = ssbar(x_j) - ssbar(x_j-1) - h * sbar(x_j-1)

    against the left value (``c1_j``) and the forward difference
    (``c2_j / h``).  Collecting the two neighbours of every node gives,
    per severity component (one row each), the weight ``w`` of the
    boundary value, the convolution kernel ``d``, the self weight ``v1``
    of the new node, and the component mean.  A company of several
    claim streams scales each row by its stream's intensity over the
    premium rate, so these rows serve every loading of a sweep.
    """
    sb = np.stack([t.sbar(nodes) for t in tails])
    ssb = np.stack([t.ssbar(nodes) for t in tails])
    c1 = np.diff(sb, axis=1)
    v = (np.diff(ssb, axis=1) - h * sb[:, :-1]) / h
    w = c1 - v
    return w, w[:, :-1] + v[:, 1:], v[:, 0], np.array([t.mean for t in tails])


def survival_batch(a: np.ndarray, coefficients, n: int):
    """Solve the grid recursion for a batch of component weightings.

    ``a`` holds one row per curve: each component's claim intensity over
    the premium rate.  Returns the unclipped survival curves on nodes
    0..n, shape (rows, n + 1), and a per-row flag that is True when the
    whole curve lies within (-1e-9, 1 + 1e-9).  A row whose recursion
    denominator is not positive, or whose values leave that range,
    indicates a grid step too coarse for the claim frequency.

    With ``u[m] = Vbar(x_{m+1})`` the recursion is the lower-triangular
    Toeplitz system ``D(z) U(z) = B(z) mod z^n`` with ``D = denom - z AD(z)``
    and ``B`` the boundary-value term, so ``U = B / D`` as power series.
    ``1 / D`` comes from Newton doubling ``G <- G - G (D G - 1)`` (Brent &
    Kung 1978), each step a pair of FFT products along the rows, which
    costs O(n log n) per row instead of the O(n^2) of node-by-node
    elimination.  Rows never mix, so a failed row leaves the others
    untouched.
    """
    w, d, v1, means = coefficients
    v0 = 1.0 - a @ means
    base = v0[:, None] * (1.0 + a @ w)  # boundary-value term of every node
    dz = np.concatenate([1.0 - a @ v1[:, None], -(a @ d)], axis=1)
    dz[dz[:, 0] <= 0] = np.nan  # fails the row from node 1 on
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = 1.0 / dz[:, :1]
        k = 1
        while k < n:
            m = min(2 * k, n)
            # D G = 1 mod z^k, so only its coefficients k..m-1 correct G
            err = _series_product(dz[:, :m], g, m)[:, k:]
            g = np.concatenate([g, -_series_product(g[:, : m - k], err, m - k)], axis=1)
            k = m
        vbar = np.concatenate([v0[:, None], _series_product(base, g, n)], axis=1)
    ok = (vbar.min(axis=1) > -_NEGATIVE_TOL) & (vbar.max(axis=1) < 1.0 + _NEGATIVE_TOL)
    return vbar, ok


def _series_product(p: np.ndarray, q: np.ndarray, m: int) -> np.ndarray:
    """Row-wise product of two power series, truncated to m terms."""
    size = next_fast_len(p.shape[1] + q.shape[1] - 1, real=True)
    return irfft(rfft(p, size, axis=1) * rfft(q, size, axis=1), size, axis=1)[:, :m]


def solve_survival(
    intensity: float,
    severity: SeverityModel,
    premium_rate: float,
    config: SolverConfig,
) -> RuinCurve:
    """Grid recursion for the survival probability.

    Starting from the exact boundary value, the node values solve the
    quadrature of the integral equation; this is the batch of one of
    :func:`survival_batch`, the kernel the loading sweeps run.
    Values below -1e-9 or above 1 + 1e-9 abort with
    :class:`InstabilityError`, naming the first such node, rather than
    being clipped: they indicate a grid step too coarse for the claim
    frequency.  Remaining float dust is clipped to [0, 1] at the end.

    Raises:
        NetProfitError: if ``premium_rate <= intensity * E[Y]``.
        InstabilityError: on numeric blow-up.
    """
    def curve(tails, nodes):
        coefficients = _recursion_coefficients([tails], nodes, config.grid_step)
        curves, ok = survival_batch(np.array([[intensity / premium_rate]]), coefficients, config.n_cells)
        vbar = curves[0]
        if not ok[0]:
            i = int(np.argmin((vbar > -_NEGATIVE_TOL) & (vbar < 1.0 + _NEGATIVE_TOL)))
            raise InstabilityError(
                f"survival value {float(vbar[i])!r} at node {i} outside [0, 1]; reduce the grid step"
            )
        return np.clip(vbar, 0.0, 1.0), {}

    return _solve("grid", intensity, severity, premium_rate, config, curve)


def _tail_convolution(values: np.ndarray, sf_nodes: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid quadrature of integral of values(z) * F̄(x - z) dz on the grid."""
    n = values.size
    conv = _series_product(values[None], sf_nodes[None], n)[0]
    return h * (conv - 0.5 * values[0] * sf_nodes - 0.5 * sf_nodes[0] * values)


def _series_length(alpha: float, x_max: float, cap: int) -> int:
    """Smallest n with (2*x_max*alpha)^n / n! below the tail tolerance."""
    z = 2.0 * x_max * alpha
    log_term = 0.0
    for n in range(1, cap + 1):
        log_term += math.log(z) - math.log(n)
        if log_term < math.log(_SERIES_TAIL):
            return n
    raise AccuracyError(
        f"series tail bound {_SERIES_TAIL:g} not reached within {cap} terms "
        f"(2*x_max*alpha = {z:g}); raise series_terms or shrink x_max"
    )


def solve_series(
    intensity: float,
    severity: SeverityModel,
    premium_rate: float,
    config: SolverConfig,
) -> RuinCurve:
    """Picard-series solver, the independent oracle for the grid recursion.

    Sums ``alpha^(n+1) * L^n g`` with ``g(x) = E[Y] - sbar(x)`` and ``L``
    the tail convolution operator evaluated by trapezoid quadrature.  The
    number of terms is chosen from the contraction bound so the neglected
    tail is below 1e-10.
    """
    def curve(tails, nodes):
        alpha = intensity / premium_rate
        n_terms = _series_length(alpha, float(nodes[-1]), config.series_terms)
        sf_nodes = np.asarray(severity.sf(nodes), dtype=float)
        # Each term carries its power of alpha: the terms are nonnegative and
        # sum to the ruin probability, so none can overflow (or underflow to
        # 0 * inf, as separate alpha^k and L^k g factors do on long grids).
        term = alpha * (tails.mean - tails.sbar(nodes))
        ruin = term.copy()
        for _ in range(n_terms):
            term = alpha * _tail_convolution(term, sf_nodes, config.grid_step)
            ruin += term
            if float(np.max(np.abs(term))) < 1e-15:
                break
        return np.clip(1.0 - ruin, 0.0, 1.0), {"terms": n_terms}

    return _solve("series", intensity, severity, premium_rate, config, curve)


def independence_gap_bound(p_both, lambda_both, intensity, premium_rate, x):
    """Bound on the ruin error from neglecting claim dependence.

    A Gronwall estimate limits |V - V_ind| at reserve x by

        p_both * lambda_both * (exp(2*lambda*x/c) - 1) / lambda

    where lambda is the company claim intensity and c its premium rate.
    Zero joint policyholders or zero reserve give a zero bound.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or p_both < 0 or lambda_both < 0 or intensity < 0 or premium_rate <= 0:
        raise ValidationError("gap bound inputs must be nonnegative with positive premium rate")
    if intensity == 0.0:
        out = p_both * lambda_both * 2.0 * x / premium_rate
    else:
        out = p_both * lambda_both * np.expm1(2.0 * intensity * x / premium_rate) / intensity
    return out if out.shape else float(out)
