"""Claim-size (severity) distributions with exact integrated tails.

The grid solver in :mod:`lundberg.ruin` consumes a severity distribution
only through its survival function ``F̄`` and the two integrated tails

    sbar(x)  = integral of F̄(y) dy over [0, x]
    ssbar(x) = integral of sbar(y) dy over [0, x]

so every model here provides those either in closed form (exponential,
gamma, and mixtures of them), exactly from atoms (gridded empirical
models), or through adaptive quadrature as a fallback for custom
subclasses.  All distributions live on [0, inf) with F(0) = 0: claims are
strictly positive.
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
        """Inverse survival function: smallest x with F̄(x) <= q.

        Generic bisection fallback; subclasses override where a closed
        form exists.
        """
        q = np.asarray(q, dtype=float)
        hi = max(self.mean, 1.0)
        qmin = max(float(np.min(q)), 1e-300)
        while float(np.min(self.sf(hi))) > qmin and hi < 1e300:
            hi *= 2.0
        lo = np.zeros(q.shape)
        hi = np.full(q.shape, hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            above = self.sf(mid) > q
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        out = 0.5 * (lo + hi)
        return out if out.shape else float(out)

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
        x = np.asarray(x, dtype=float)
        out = -np.expm1(-np.maximum(x, 0.0) / self._mean)
        return out if out.shape else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.exp(-np.maximum(x, 0.0) / self._mean)
        return out if out.shape else float(out)

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng, size):
        return rng.exponential(self._mean, size=size)

    def isf(self, q):
        q = np.asarray(q, dtype=float)
        out = -self._mean * np.log(np.clip(q, 1e-300, 1.0))
        return out if out.shape else float(out)

    def describe(self):
        return {"kind": "exponential", "mean": self._mean}

    def _integrated_tails(self) -> IntegratedTails:
        mu = self._mean

        def sbar(x):
            x = np.maximum(np.asarray(x, dtype=float), 0.0)
            return mu * -np.expm1(-x / mu)

        def ssbar(x):
            x = np.maximum(np.asarray(x, dtype=float), 0.0)
            return mu * x - mu * mu * -np.expm1(-x / mu)

        return IntegratedTails(sbar=sbar, ssbar=ssbar, mean=mu)


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
        x = np.asarray(x, dtype=float)
        out = special.gammainc(self._a, np.maximum(x, 0.0) / self._k)
        return out if out.shape else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = special.gammaincc(self._a, np.maximum(x, 0.0) / self._k)
        return out if out.shape else float(out)

    @property
    def mean(self) -> float:
        return self._a * self._k

    def sample(self, rng, size):
        return rng.gamma(self._a, self._k, size=size)

    def isf(self, q):
        q = np.asarray(q, dtype=float)
        out = self._k * special.gammainccinv(self._a, np.clip(q, 0.0, 1.0))
        return out if out.shape else float(out)

    def describe(self):
        return {"kind": "gamma", "shape": self._a, "scale": self._k}

    def _integrated_tails(self) -> IntegratedTails:
        a, k = self._a, self._k

        def sbar(x):
            x = np.maximum(np.asarray(x, dtype=float), 0.0)
            t = x / k
            return a * k * special.gammainc(a + 1, t) + x * special.gammaincc(a, t)

        def ssbar(x):
            x = np.maximum(np.asarray(x, dtype=float), 0.0)
            t = x / k
            return (
                a * k * x * special.gammainc(a + 1, t)
                - 0.5 * a * (a + 1) * k * k * special.gammainc(a + 2, t)
                + 0.5 * x * x * special.gammaincc(a, t)
            )

        return IntegratedTails(sbar=sbar, ssbar=ssbar, mean=a * k)


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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(w * c.cdf(x) for w, c in zip(self._w, self._components) if w > 0.0)
        out = np.asarray(out, dtype=float)
        return out if out.shape else float(out)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = sum(w * c.sf(x) for w, c in zip(self._w, self._components) if w > 0.0)
        out = np.asarray(out, dtype=float)
        return out if out.shape else float(out)

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
        parts = [
            (w, integrated_tails(c)) for w, c in zip(self._w, self._components) if w > 0.0
        ]

        def sbar(x):
            return sum(w * t.sbar(x) for w, t in parts)

        def ssbar(x):
            return sum(w * t.ssbar(x) for w, t in parts)

        return IntegratedTails(sbar=sbar, ssbar=ssbar, mean=self._mean)


class Gridded(SeverityModel):
    """Discrete severity supported on positive atoms.

    Built from cell masses on a grid: each left-closed cell carries its
    mass at the right endpoint, matching the forward-difference
    convention of the ruin-solver grid.  Survival is piecewise constant,
    so ``sbar`` is piecewise linear and ``ssbar`` piecewise quadratic;
    both are evaluated exactly.
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
        # Piecewise pieces: breakpoints 0, x_1, ..., x_K with constant
        # survival on each segment and (1 - total) beyond the last atom.
        self._breaks = np.concatenate(([0.0], atoms))
        self._seg_sf = np.concatenate(([1.0], 1.0 - self._cum))
        widths = np.diff(self._breaks)
        sb = np.concatenate(([0.0], np.cumsum(self._seg_sf[:-1] * widths)))
        ssb = np.concatenate(
            ([0.0], np.cumsum(sb[:-1] * widths + 0.5 * self._seg_sf[:-1] * widths**2))
        )
        self._sb_breaks = sb
        self._ssb_breaks = ssb

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
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._atoms, x, side="right")
        out = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        return out if out.shape else float(out)

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng, size):
        u = rng.random(size) * self._cum[-1]
        idx = np.minimum(np.searchsorted(self._cum, u, side="right"), self._atoms.size - 1)
        return self._atoms[idx]

    def isf(self, q):
        q = np.asarray(q, dtype=float)
        idx = np.searchsorted(self._cum, 1.0 - q, side="left")
        idx = np.clip(idx, 0, self._atoms.size - 1)
        out = self._atoms[idx]
        return out if out.shape else float(out)

    def describe(self):
        return {
            "kind": "gridded",
            "atoms": [float(a) for a in self._atoms],
            "masses": [float(m) for m in self._masses],
        }

    def _fingerprint_payload(self) -> bytes:
        return b"gridded|" + self._atoms.tobytes() + self._masses.tobytes()

    def _segment(self, x):
        idx = np.searchsorted(self._breaks, x, side="right") - 1
        return np.clip(idx, 0, self._breaks.size - 1)

    def _integrated_tails(self) -> IntegratedTails:
        breaks, seg_sf = self._breaks, self._seg_sf
        sb, ssb = self._sb_breaks, self._ssb_breaks

        def sbar(x):
            x = np.maximum(np.asarray(x, dtype=float), 0.0)
            j = self._segment(x)
            return sb[j] + seg_sf[j] * (x - breaks[j])

        def ssbar(x):
            x = np.maximum(np.asarray(x, dtype=float), 0.0)
            j = self._segment(x)
            d = x - breaks[j]
            return ssb[j] + sb[j] * d + 0.5 * seg_sf[j] * d * d

        return IntegratedTails(sbar=sbar, ssbar=ssbar, mean=self._mean)


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
    closed_form = getattr(model, "_integrated_tails", None)
    if closed_form is not None:
        return closed_form()
    return _quadrature_tails(model)


def _quadrature_tails(model: SeverityModel) -> IntegratedTails:
    from scipy import integrate

    def _one(fun, x):
        if x <= 0:
            return 0.0
        val, err = integrate.quad(fun, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=500)
        if err > max(1e-10, 1e-10 * abs(val)):
            raise AccuracyError(
                f"integrated-tail quadrature did not converge at x={x:g} (err {err:g})"
            )
        return val

    def sbar(x):
        xs = np.asarray(x, dtype=float)
        out = np.array([_one(model.sf, float(v)) for v in np.atleast_1d(xs)])
        return out.reshape(xs.shape) if xs.shape else float(out[0])

    def ssbar(x):
        xs = np.asarray(x, dtype=float)
        out = np.array(
            [_one(lambda y, v=float(v): (v - y) * model.sf(y), float(v)) for v in np.atleast_1d(xs)]
        )
        return out.reshape(xs.shape) if xs.shape else float(out[0])

    return IntegratedTails(sbar=sbar, ssbar=ssbar, mean=model.mean)


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
