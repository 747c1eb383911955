"""Claim-size (severity) distributions with exact integrated tails.

The grid solver in :mod:`lundberg.ruin` consumes a severity distribution
only through its survival function ``F̄`` and the two integrated tails

    sbar(x)  = integral of F̄(y) dy over [0, x]
    ssbar(x) = integral of sbar(y) dy over [0, x]

so every model here provides those either in closed form (exponential,
gamma, and mixtures of them) or exactly from atoms (gridded empirical
models).  All distributions live on [0, inf) with F(0) = 0: claims are
strictly positive.

A subclass of :class:`SeverityModel` implements ``cdf``, ``mean``,
``sample`` and ``describe``, and may add ``sf``, ``isf`` and closed-form
``_sbar``/``_ssbar``, which receive claim amounts clamped at 0
(``_claims``).  A 0-d result is returned as a float (``_value``), and a
tail a subclass does not state is ``sf`` integrated by adaptive quadrature.
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy import special

from . import _pool
from .errors import AccuracyError, ValidationError, _positive

__all__ = [
    "SeverityModel",
    "Exponential",
    "Gamma",
    "Mixture",
    "Gridded",
    "JointGridded",
    "IntegratedTails",
    "integrated_tails",
    "mixture",
    "sum_distribution",
]

_WEIGHT_TOL = 1e-12
_MASS_TOL = 1e-9
_LATTICE_CHUNK = 256  # rows of the joint lattice per job of sum_distribution


def _claims(x):
    """Claim amounts as a float array, clamped at 0."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def _value(out):
    """A float for a 0-d result, else the array."""
    return out if out.shape else float(out)


class SeverityModel(abc.ABC):
    """A nonnegative claim-size distribution.

    Instances are immutable after construction and safe to share between
    concurrent solver runs.
    """

    @abc.abstractmethod
    def cdf(self, x):
        """Distribution function F(x); 0 for x <= 0, vectorized."""

    def sf(self, x):
        """Survival function F̄(x) = 1 - F(x)."""
        return 1.0 - self.cdf(x)

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected claim size E[Y]."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size):
        """Draw claim sizes using the supplied generator."""

    def isf(self, q):
        """Inverse survival function: smallest x with F̄(x) <= q; 0 for q >= 1.

        Generic bisection fallback; subclasses override where a closed
        form exists.  Each element is bracketed on its own, so it equals
        the scalar call at that q.
        """
        q = np.asarray(q, dtype=float)
        qmin = np.maximum(q, 1e-300)
        hi = np.full(q.shape, max(self.mean, 1.0))
        while np.any(grow := (self.sf(hi) > qmin) & (hi < 1e300)):
            hi = np.where(grow, 2.0 * hi, hi)
        lo = np.zeros(q.shape)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            above = self.sf(mid) > q
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return _value(np.where(q >= 1.0, 0.0, 0.5 * (lo + hi)))

    @abc.abstractmethod
    def describe(self) -> dict:
        """JSON-serializable description, used by configs and sidecars."""

    def fingerprint(self) -> str:
        return hashlib.sha1(self._fingerprint_payload()).hexdigest()[:12]

    def _fingerprint_payload(self) -> bytes:
        """Bytes that identify the model: its JSON description by default."""
        return json.dumps(self.describe(), sort_keys=True, default=float).encode()

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"

    def _integrated_tails(self) -> IntegratedTails:
        return IntegratedTails(sbar=_tail(self._sbar, self.mean), ssbar=_tail(self._ssbar, np.inf),
                               mean=self.mean)

    def _sbar(self, x):
        """sbar at the clamped claim amounts ``x``."""
        return _quadrature(lambda y, v: self.sf(y), x)

    def _ssbar(self, x):
        """ssbar at the clamped claim amounts ``x``."""
        return _quadrature(lambda y, v: (v - y) * self.sf(y), x)


def _tail(f, limit):
    """The tail x -> f(x) at the clamped claim amounts, reading ``limit`` at x = inf.

    f is never evaluated at inf, where a closed form may give inf*0.
    """
    def at(x):
        x = _claims(x)
        top = x == np.inf
        if not top.any():
            return f(x)
        return _value(np.where(top, limit, f(np.where(top, 0.0, x))))
    return at


@dataclass(frozen=True)
class IntegratedTails:
    """First and second integrated survival functions of a severity model.

    Attributes:
        sbar: x -> integral of F̄ over [0, x]; nondecreasing, concave,
            sbar(0) = 0 and sbar(inf) = E[Y].
        ssbar: x -> integral of sbar over [0, x]; nondecreasing, convex.
        mean: E[Y], the limit of sbar.
    """

    sbar: Callable
    ssbar: Callable
    mean: float


class Exponential(SeverityModel):
    """Exponential claim sizes with the given mean."""

    def __init__(self, mean: float):
        self._mean = float(_positive("exponential mean", mean))

    def cdf(self, x):
        return _value(-np.expm1(-_claims(x) / self._mean))

    def sf(self, x):
        return _value(np.exp(-_claims(x) / self._mean))

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng, size):
        return rng.exponential(self._mean, size=size)

    def isf(self, q):
        return _value(-self._mean * np.log(np.clip(q, 1e-300, 1.0)))

    def describe(self):
        return {"kind": "exponential", "mean": self._mean}

    def _sbar(self, x):
        return self._mean * -np.expm1(-x / self._mean)

    def _ssbar(self, x):
        mu = self._mean
        return mu * x - mu * mu * -np.expm1(-x / mu)


class Gamma(SeverityModel):
    """Gamma claim sizes with shape ``a`` and scale ``k`` (mean ``a*k``).

    Integrated tails use regularized incomplete gamma identities:
    with P/Q the lower/upper regularized functions,

        sbar(x)  = a*k*P(a+1, x/k) + x*Q(a, x/k)
        ssbar(x) = a*k*x*P(a+1, x/k) - a*(a+1)*k^2/2 * P(a+2, x/k)
                   + x^2/2 * Q(a, x/k)
    """

    def __init__(self, shape: float, scale: float):
        self._a = float(_positive("gamma shape", shape))
        self._k = float(_positive("gamma scale", scale))

    def cdf(self, x):
        return _value(special.gammainc(self._a, _claims(x) / self._k))

    def sf(self, x):
        return _value(special.gammaincc(self._a, _claims(x) / self._k))

    @property
    def mean(self) -> float:
        return self._a * self._k

    def sample(self, rng, size):
        return rng.gamma(self._a, self._k, size=size)

    def isf(self, q):
        return _value(self._k * special.gammainccinv(self._a, np.clip(q, 0.0, 1.0)))

    def describe(self):
        return {"kind": "gamma", "shape": self._a, "scale": self._k}

    def _sbar(self, x):
        a, k = self._a, self._k
        t = x / k
        return a * k * special.gammainc(a + 1, t) + x * special.gammaincc(a, t)

    def _ssbar(self, x):
        a, k = self._a, self._k
        t = x / k
        return (
            a * k * x * special.gammainc(a + 1, t)
            - 0.5 * a * (a + 1) * k * k * special.gammainc(a + 2, t)
            + 0.5 * x * x * special.gammaincc(a, t)
        )


class Mixture(SeverityModel):
    """Finite mixture of severity models.

    Weights must be nonnegative and sum to 1 within 1e-12.  Zero weights
    are allowed so that degenerate components can be carried along
    without special-casing downstream.
    """

    def __init__(self, weights: Sequence[float], components: Sequence[SeverityModel]):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) != len(components) or len(components) == 0:
            raise ValidationError("mixture needs one weight per component")
        if not np.all(weights >= 0):  # NaN fails too
            raise ValidationError(f"mixture weights must be nonnegative, got {weights}")
        if abs(float(weights.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"mixture weights must sum to 1, got {weights.sum()!r}")
        self._w = weights
        self._components = tuple(components)
        self._mean = float(np.dot(weights, [c.mean for c in components]))
        self._parts = [(w, c) for w, c in zip(weights, self._components) if w > 0.0]

    def cdf(self, x):
        x = _claims(x)
        return _weighted(self._parts, lambda c: c.cdf(x))

    def sf(self, x):
        x = _claims(x)
        return _weighted(self._parts, lambda c: c.sf(x))

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng, size):
        size = (size,) if np.isscalar(size) else tuple(size)
        u = rng.random(size)
        idx = np.searchsorted(np.cumsum(self._w), u, side="right")
        idx = np.minimum(idx, len(self._components) - 1)
        out = np.empty(size, dtype=float)
        for j, comp in enumerate(self._components):
            mask = idx == j
            n = int(mask.sum())
            if n:
                out[mask] = comp.sample(rng, n)
        return out

    def describe(self):
        return {
            "kind": "mixture",
            "weights": [float(w) for w in self._w],
            "components": [c.describe() for c in self._components],
        }

    def _fingerprint_payload(self) -> bytes:
        # Mixtures of closed-form kinds keep their JSON strings; gridded
        # (or nested) parts are identified by their own fingerprints, so
        # no atom is ever JSON-encoded.
        if not any(isinstance(c, (Gridded, Mixture)) for c in self._components):
            return super()._fingerprint_payload()
        parts = "|".join(c.fingerprint() for c in self._components)
        return b"mixture|" + self._w.tobytes() + parts.encode()

    def _integrated_tails(self) -> IntegratedTails:
        parts = [(w, integrated_tails(c)) for w, c in self._parts]
        return IntegratedTails(sbar=_tail(lambda x: _weighted(parts, lambda t: t.sbar(x)), self._mean),
                               ssbar=_tail(lambda x: _weighted(parts, lambda t: t.ssbar(x)), np.inf),
                               mean=self._mean)


def _weighted(parts, value):
    """The mixture sum of w * value(part) over the (w, part) pairs of positive weight w."""
    return _value(np.asarray(sum(w * value(part) for w, part in parts), dtype=float))


class Gridded(SeverityModel):
    """Discrete severity supported on positive atoms.

    Built from cell masses on a grid: each left-closed cell carries its
    mass at the right endpoint, matching the forward-difference
    convention of the ruin-solver grid.  Survival is piecewise constant,
    so ``sbar`` is piecewise linear and ``ssbar`` piecewise quadratic;
    both are evaluated exactly.  The model keeps only its atoms, masses
    and cdf; each evaluation of a tail rebuilds the piecewise integrals
    at the atoms, so no atom-sized array outlives the call.
    """

    def __init__(self, atoms: Sequence[float], masses: Sequence[float]):
        atoms = np.asarray(atoms, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if atoms.ndim != 1 or atoms.shape != masses.shape or atoms.size == 0:
            raise ValidationError("gridded model needs matching atom and mass arrays")
        if not np.all((atoms > 0) & (atoms < np.inf)):
            raise ValidationError("gridded atoms must be strictly positive and finite")
        if np.any(np.diff(atoms) <= 0):
            raise ValidationError("gridded atoms must be strictly increasing")
        if not np.all(masses >= -_WEIGHT_TOL):  # NaN fails too
            raise ValidationError(f"gridded masses must be nonnegative, min {masses.min()!r}")
        masses = np.where(masses < 0, 0.0, masses)
        total = float(masses.sum())
        if abs(total - 1.0) > _MASS_TOL:
            raise ValidationError(f"gridded masses must sum to 1 within {_MASS_TOL}, got {total!r}")
        self._atoms = atoms
        self._masses = masses
        self._cum = np.cumsum(masses)
        self._mean = float(np.dot(masses, atoms))

    @classmethod
    def from_survival(cls, nodes: Sequence[float], survival: Sequence[float]) -> "Gridded":
        """Discretize a survival function sampled on grid nodes.

        ``nodes`` are the n+1 cell edges starting at 0.  The mass of cell k
        (edges ``nodes[k-1]``, ``nodes[k]``) is the survival decrement and
        sits at the right edge; any residual tail mass beyond the last node
        is folded into the final atom so the total stays exactly
        ``survival[0]``.
        """
        nodes = np.asarray(nodes, dtype=float)
        if nodes[0] != 0.0:
            raise ValidationError("cell grid must start at 0")
        survival = np.asarray(survival, dtype=float)
        masses = -np.diff(survival)
        masses[-1] += survival[-1]
        return cls(nodes[1:], masses)

    def cdf(self, x):
        idx = np.searchsorted(self._atoms, _claims(x), side="right")
        return _value(np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0))

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng, size):
        u = rng.random(size) * self._cum[-1]
        idx = np.minimum(np.searchsorted(self._cum, u, side="right"), self._atoms.size - 1)
        return self._atoms[idx]

    def isf(self, q):
        idx = np.searchsorted(self._cum, 1.0 - np.asarray(q, dtype=float), side="left")
        return _value(self._atoms[np.clip(idx, 0, self._atoms.size - 1)])

    def describe(self):
        return {
            "kind": "gridded",
            "atoms": [float(a) for a in self._atoms],
            "masses": [float(m) for m in self._masses],
        }

    def _fingerprint_payload(self) -> bytes:
        return b"gridded|" + self._atoms.tobytes() + self._masses.tobytes()

    def _segments(self):
        """Breakpoints 0, x_1, ..., x_K, the survival on each segment ((1 - total)
        beyond the last atom), the widths, and sbar at the breakpoints."""
        breaks = np.concatenate(([0.0], self._atoms))
        seg_sf = np.concatenate(([1.0], 1.0 - self._cum))
        widths = np.diff(breaks)
        return breaks, seg_sf, widths, np.concatenate(([0.0], np.cumsum(seg_sf[:-1] * widths)))

    def _sbar(self, x):
        breaks, seg_sf, _, sb = self._segments()
        j = np.searchsorted(breaks, x, side="right") - 1  # >= 0: x is clamped, breaks[0] = 0
        return sb[j] + seg_sf[j] * (x - breaks[j])

    def _ssbar(self, x):
        breaks, seg_sf, widths, sb = self._segments()
        ssb = np.concatenate(([0.0], np.cumsum(sb[:-1] * widths + 0.5 * seg_sf[:-1] * widths**2)))
        j = np.searchsorted(breaks, x, side="right") - 1
        d = x - breaks[j]
        return ssb[j] + sb[j] * d + 0.5 * seg_sf[j] * d * d


class JointGridded:
    """Cell masses of a dependent claim pair on a shared uniform grid.

    Large grids are never materialized: ``rows(a, b)`` streams rows
    ``a:b`` of the (ncells x ncells) cell-mass matrix, where row i and
    column j hold the mass of the rectangle (i*step, (i+1)*step] x
    (j*step, (j+1)*step], assigned to the upper-right corner.  The
    ``rows`` callable given at construction yields them as 1-D arrays
    and may reuse one buffer for every row.
    """

    def __init__(self, step: float, ncells: int, rows: Callable[[int, int], Iterable[np.ndarray]]):
        _positive("joint grid step", step)
        if ncells < 1:
            raise ValidationError(f"joint grid needs at least one cell, got {ncells}")
        self.step = float(step)
        self.ncells = int(ncells)
        self._rows = rows

    def rows(self, a: int, b: int) -> Iterator[np.ndarray]:
        """Rows ``a:b``, each checked nonnegative; a row may be overwritten by the next."""
        for row in self._rows(a, b):
            row = np.asarray(row, dtype=float)
            low = row.min(initial=0.0)  # NaN if any cell is NaN
            if not low >= -1e-12:
                raise ValidationError(f"joint cell masses must be nonnegative, min {low!r}")
            # A fresh clamped copy: the source may be a caller's matrix.
            yield np.maximum(row, 0.0) if low < 0.0 else row


def integrated_tails(model: SeverityModel) -> IntegratedTails:
    """Return exact or quadrature-backed integrated tails for a model.

    Models with closed forms (all built-in kinds) supply their own; any
    other subclass falls back to adaptive quadrature at 1e-12 absolute
    tolerance, raising :class:`AccuracyError` if the integrator reports a
    larger estimated error.
    """
    return model._integrated_tails()


def _quadrature(integrand, x):
    """Integral of ``integrand(y, v)`` dy over [0, v] at each clamped claim amount v in ``x``."""
    from scipy import integrate

    def one(v):
        if v <= 0:
            return 0.0
        val, err = integrate.quad(integrand, 0.0, v, args=(v,), epsabs=1e-12, epsrel=1e-12, limit=500)
        if err > max(1e-10, 1e-10 * abs(val)):
            raise AccuracyError(
                f"integrated-tail quadrature did not converge at x={v:g} (err {err:g})"
            )
        return val

    return _value(np.array([one(float(v)) for v in x.ravel()]).reshape(x.shape))


def mixture(weights: Sequence[float], components: Sequence[SeverityModel]) -> SeverityModel:
    """Weighted mixture of severity models (weights sum to 1 within 1e-12)."""
    if len(components) == 1 and abs(float(np.asarray(weights)[0]) - 1.0) <= _WEIGHT_TOL:
        return components[0]
    return Mixture(weights, components)


def sum_distribution(joint: JointGridded) -> Gridded:
    """Distribution of the coordinate sum of a gridded claim pair.

    Cell masses land on the shared atom lattice (atoms of row i and
    column j add to lattice point i + j + 2), so no resampling error is
    introduced and the mean of the result equals the sum of the marginal
    means exactly.

    The lattice is streamed one row at a time, so the working set stays
    a few rows.  Row i is one shifted slice-add into the buffer of its
    chunk of ``_LATTICE_CHUNK`` rows (anti-diagonals start at offset i),
    and each buffer is added into the result once, in chunk order: every
    lattice point is summed row by row within a chunk, then chunk by
    chunk.  The chunks are jobs of :func:`lundberg._pool.map`, in forked
    workers from 10^7 cells on; each buffer is added as it arrives.
    """
    n = joint.ncells
    h = joint.step

    def chunk_sum(a):
        b = min(a + _LATTICE_CHUNK, n)
        acc = np.zeros(b - a + n - 1)
        for i, row in enumerate(joint.rows(a, b)):
            acc[i : i + n] += row
        return acc

    out = np.zeros(2 * n - 1)
    starts = range(0, n, _LATTICE_CHUNK)
    for a, acc in zip(starts, _pool.map(chunk_sum, starts, n * n)):
        out[a : a + acc.size] += acc
    total = float(out.sum())
    if abs(total - 1.0) > _MASS_TOL:
        raise ValidationError(f"joint cell masses must sum to 1 within {_MASS_TOL}, got {total!r}")
    atoms = h * np.arange(2, 2 * n + 1)
    return Gridded(atoms, out)
