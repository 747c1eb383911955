"""Infinite-horizon survival and ruin probability solvers.

Two independent routes compute the survival probability of a compound
Poisson surplus process ``u + c*t - S_t``:

* :func:`solve_survival` discretizes the renewal-type integral equation

      Vbar(x) - Vbar(0+) = (lambda/c) * integral of Vbar(x-y)*F̄(y) dy

  on a uniform grid with a piecewise-linear ansatz for ``Vbar``.  Every
  segment integral is evaluated exactly through the integrated tails
  ``sbar``/``ssbar``, so the only approximation is the interpolation of
  ``Vbar`` itself.  The node equations form a lower-triangular Toeplitz
  system, i.e. a quotient of power series, which :func:`_quotient` solves
  in O(n log n) per curve: Newton iteration for the series inverse (Brent
  & Kung 1978) to half the nodes, then one Karp & Markstein (1997) step
  for the whole quotient.  :func:`_recursion_coefficients` builds its
  per-component rows, whose width fixes the curve length, and
  :func:`survival_batch` weighs them into any number of curves, solved
  together, each row the same bits in any batch.
  A single curve is a batch of one; the loading sweeps of
  :mod:`lundberg.optimize` are batches of hundreds.

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
from .errors import AccuracyError, InstabilityError, NetProfitError, ValidationError, _count, _nonnegative, _positive

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
        _positive("grid step", self.grid_step)
        if not self.grid_step <= self.x_max < math.inf:
            raise ValidationError(f"x_max must be finite and at least one grid step, got {self.x_max}")
        _count("series_terms", self.series_terms, 1)

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

    def ruin_at(self, x):
        """Ruin probability at reserves ``x`` in the grid [0, x[-1]], linear between nodes."""
        xs = np.asarray(x, dtype=float)
        if not np.all((xs >= 0) & (xs <= self.x[-1])):
            raise ValidationError(f"reserve must be within the grid [0, {self.x[-1]:g}], got {x}")
        return 1.0 - np.interp(x, self.x, self.survival)


def _solve(solver, intensity, severity, premium_rate, config, curve) -> RuinCurve:
    """The entry both solvers share.

    Checks the intensity and the net profit condition, also without
    claims, and returns the certain-survival curve without claims;
    otherwise ``curve(tails, nodes)`` gives the values and diagnostics.
    """
    margin = premium_rate - _nonnegative("claim intensity", intensity) * severity.mean
    if not margin > 0:
        raise NetProfitError(margin)
    nodes = config.nodes()
    payload = f"{intensity!r}|{severity.fingerprint()}|{premium_rate!r}|{config.grid_step!r}|{config.x_max!r}"
    survival, diagnostics = np.ones_like(nodes), {}
    if intensity != 0.0:
        survival, diagnostics = curve(integrated_tails(severity), nodes)
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


def survival_batch(a: np.ndarray, coefficients):
    """Solve the grid recursion for a batch of component weightings.

    ``a`` holds one row per curve: each component's claim intensity over
    the premium rate.  Returns the unclipped survival curves on nodes
    0..n, shape (rows, n + 1) with n the width of the coefficient rows,
    and a per-row flag that is True when the whole curve lies within
    (-1e-9, 1 + 1e-9).  A row whose recursion
    denominator is not positive, or whose values leave that range,
    indicates a grid step too coarse for the claim frequency.

    With ``u[m] = Vbar(x_{m+1})`` the recursion is the lower-triangular
    Toeplitz system ``D(z) U(z) = B(z) mod z^n`` with ``D = denom - z AD(z)``
    and ``B`` the boundary-value term, so ``U = B / D`` as power series
    (:func:`_quotient`); a row with ``denom <= 0`` is NaN from node 1 on.

    Rows never mix, so a failed row leaves the others untouched, and
    every row is the same bits in any batch: the component weighting is
    a fixed-order sum (:func:`_weigh`) and the FFTs transform each row
    alone.
    """
    w, d, v1, means = coefficients
    v0 = 1.0 - _weigh(a, means[:, None])[:, 0]
    base = v0[:, None] * (1.0 + _weigh(a, w))  # boundary-value term of every node
    dz = np.concatenate([1.0 - _weigh(a, v1[:, None]), -_weigh(a, d)], axis=1)
    dz[dz[:, 0] <= 0] = np.nan  # fails the row from node 1 on
    vbar = np.concatenate([v0[:, None], _quotient(base, dz)], axis=1)
    ok = (vbar.min(axis=1) > -_NEGATIVE_TOL) & (vbar.max(axis=1) < 1.0 + _NEGATIVE_TOL)
    return vbar, ok


def _quotient(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Terms 0..n-1 of the power series quotient ``B / D``, row by row, for rows ``b`` and ``d`` of width n.

    Newton doubling ``G <- G - G (D G - 1)`` (Brent & Kung 1978) finds ``G = 1 / D`` only to
    ``h = ceil(n/2)`` terms; each step takes both of its products from one cyclic FFT length, the
    first as a middle product (Hanrot, Quercia & Zimmermann 2004), and reuses the transform of ``G``.
    One Karp & Markstein (1997) step then gives all n terms: ``Q_h = B G mod z^h`` and
    ``Q = Q_h + z^h G r`` with ``r`` the terms h..n-1 of ``B - D Q_h``.  That costs O(n log n) per
    row, with no FFT longer than about n, instead of the O(n^2) of term-by-term elimination.
    """
    n, h = b.shape[1], (b.shape[1] + 1) // 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = 1.0 / d[:, :1]
        k = 1
        while k < h:
            m = min(2 * k, h)
            size = next_fast_len(m, real=True)
            fg = rfft(g, size, axis=1)
            # D G = 1 mod z^k, so only its coefficients k..m-1 correct G; a cyclic
            # length of at least m wraps the product's higher terms below k
            err = _cyclic_product(d[:, :m], fg, size)[:, k:m]
            g = np.concatenate([g, -_cyclic_product(err, fg, size)[:, : m - k]], axis=1)
            k = m
        size = next_fast_len(n, real=True)
        fg = rfft(g, size, axis=1)
        q = _cyclic_product(b[:, :h], fg, size)[:, :h]
        if h < n:
            # terms h..n-1 of D Q_h: a length of at least n wraps its higher terms below h
            r = b[:, h:] - _cyclic_product(d, rfft(q, size, axis=1), size)[:, h:n]
            q = np.concatenate([q, _cyclic_product(r, fg, size)[:, : n - h]], axis=1)
    return q


def _weigh(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``a @ rows``, each value summed over the components in order.

    ``np.einsum`` without ``optimize`` does not call BLAS: row by row of
    ``a``, it adds each component's products into that output row in
    component order, so a value is the same chain of products and sums
    whichever rows share the call.  A BLAS product blocks the rows and
    can round a row differently in another batch.  The kernel tests
    check the batch invariance on the installed numpy.
    """
    return np.einsum("rk,kn->rn", a, rows)


def _cyclic_product(p: np.ndarray, fq: np.ndarray, size: int) -> np.ndarray:
    """Row-wise cyclic product, length ``size``, of ``p`` and the series whose rfft is ``fq``."""
    return irfft(rfft(p, size, axis=1) * fq, size, axis=1)


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
        curves, ok = survival_batch(np.array([[intensity / premium_rate]]), coefficients)
        vbar = curves[0]
        if not ok[0]:
            i = int(np.argmin((vbar > -_NEGATIVE_TOL) & (vbar < 1.0 + _NEGATIVE_TOL)))
            raise InstabilityError(
                f"survival value {float(vbar[i])!r} at node {i} outside [0, 1]; reduce the grid step"
            )
        return np.clip(vbar, 0.0, 1.0), {}

    return _solve("grid", intensity, severity, premium_rate, config, curve)


def _tail_convolution(sf_nodes: np.ndarray, h: float):
    """The map values -> trapezoid quadrature of integral of values(z) * F̄(x - z) dz on the grid."""
    n, size = sf_nodes.size, next_fast_len(2 * sf_nodes.size - 1, real=True)
    sf_hat = rfft(sf_nodes[None], size, axis=1)  # once for every term of a series

    def convolve(values):
        conv = _cyclic_product(values[None], sf_hat, size)[0, :n]
        return h * (conv - 0.5 * values[0] * sf_nodes - 0.5 * sf_nodes[0] * values)
    return convolve


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
        convolve = _tail_convolution(np.asarray(severity.sf(nodes), dtype=float), config.grid_step)
        # Each term carries its power of alpha: the terms are nonnegative and
        # sum to the ruin probability, so none can overflow (or underflow to
        # 0 * inf, as separate alpha^k and L^k g factors do on long grids).
        term = alpha * (tails.mean - tails.sbar(nodes))
        ruin = term.copy()
        for _ in range(n_terms):
            term = alpha * convolve(term)
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
    x = np.asarray(x, dtype=float)  # a negative, infinite or NaN reserve reaches its min or max
    for name, value in (("reserve", x.min(initial=0.0)), ("reserve", x.max(initial=0.0)),
                        ("joint share", p_both), ("joint intensity", lambda_both),
                        ("claim intensity", intensity)):
        _nonnegative(name, float(value))
    _positive("premium rate", premium_rate)
    if intensity == 0.0:
        out = p_both * lambda_both * 2.0 * x / premium_rate
    else:
        out = p_both * lambda_both * np.expm1(2.0 * intensity * x / premium_rate) / intensity
    return out if out.shape else float(out)
