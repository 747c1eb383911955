"""Claim-size (severity) distributions with exact integrated tails.

The grid solver in :mod:`lundberg.ruin` consumes a severity distribution
only through its survival function ``F̄`` and the two integrated tails

    sbar(x)  = integral of F̄(y) dy over [0, x]
    ssbar(x) = integral of sbar(y) dy over [0, x]

so every model here provides those either in closed form (exponential,
gamma, and mixtures of them) or exactly from atoms (gridded empirical
models).  All distributions live on [0, inf): F(x) = 0 for x < 0, and F(0)
is the mass at 0, which only a gridded model may hold.  A claim of size 0
leaves the surplus unchanged, so such a process is its thinning.

A subclass of :class:`SeverityModel` implements ``cdf``, ``mean``, ``sample``
and ``describe``, and may add ``sf``, ``isf``, ``sampler`` and closed-form
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


def _checked_masses(masses: np.ndarray, what: str) -> np.ndarray:
    """``masses``, or a copy with its negatives set to 0; a mass below -1e-12, or NaN, raises."""
    low = masses.min(initial=0.0)  # NaN if any mass is NaN
    if not low >= -_WEIGHT_TOL:
        raise ValidationError(f"{what} must be nonnegative, min {float(low)!r}")
    return np.where(masses < 0, 0.0, masses) if low < 0.0 else masses


class SeverityModel(abc.ABC):
    """A nonnegative claim-size distribution.

    Instances are immutable after construction and safe to share between
    concurrent solver runs.
    """

    @abc.abstractmethod
    def cdf(self, x):
        """Distribution function F(x); 0 for x < 0, vectorized."""

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

    def sampler(self):
        """A function (rng, size) drawing as ``sample`` does, with its tables built once."""
        return self.sample

    def _survival(self):
        """A function x -> ``sf(x)`` with its tables built once, for repeated calls."""
        return self.sf

    _top = np.inf  # the end of the support

    def isf(self, q):
        """Inverse survival function: smallest x with F̄(x) <= q; 0 for q >= 1.

        Generic bisection fallback; subclasses override where a closed
        form exists.  Each element is bracketed on its own, so it equals the scalar
        call at that q; a bracket stops at the support's end, read by q <= 0.
        """
        q = np.asarray(q, dtype=float)
        sf = self._survival()
        qmin = np.maximum(q, 1e-300)
        hi = np.full(q.shape, max(self.mean, 1.0))
        while np.any(grow := (sf(hi) > qmin) & (hi < min(self._top, 1e300))):
            hi = np.where(grow, 2.0 * hi, hi)
        beyond = (q <= 0.0) | (sf(hi) > qmin)
        lo = np.zeros(q.shape)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            above = sf(mid) > q
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return _value(np.where(q >= 1.0, 0.0, np.where(beyond, self._top, 0.5 * (lo + hi))))

    @abc.abstractmethod
    def describe(self) -> dict:
        """JSON-serializable description, used by configs and sidecars."""

    def fingerprint(self) -> str:
        digest = hashlib.sha1()
        for part in self._fingerprint_payload():
            digest.update(part)
        return digest.hexdigest()[:12]

    def _fingerprint_payload(self) -> tuple:
        """Bytes-like parts that identify the model, hashed in turn: its JSON description by default."""
        return (json.dumps(self.describe(), sort_keys=True, default=float).encode(),)

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
        return _value(np.where(np.less_equal(q, 0.0), np.inf, -self._mean * np.log(np.clip(q, 1e-300, 1.0))))

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

    Weights must be nonnegative and sum to 1 within 1e-12; a weight down
    to -1e-12 (rounding dust of a subtraction) is read as 0.  Zero weights
    are allowed so that degenerate components can be carried along
    without special-casing downstream.
    """

    def __init__(self, weights: Sequence[float], components: Sequence[SeverityModel]):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) != len(components) or len(components) == 0:
            raise ValidationError("mixture needs one weight per component")
        weights = _checked_masses(weights, "mixture weights")
        if abs(float(weights.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"mixture weights must sum to 1, got {weights.sum()!r}")
        self._w = weights
        self._components = tuple(components)
        self._mean = float(np.dot(weights, [c.mean for c in components]))
        self._parts = [(w, c) for w, c in zip(weights, self._components) if w > 0.0]
        self._top = max(c._top for _, c in self._parts)

    def cdf(self, x):  # each part reads 0 below 0
        return _weighted(self._parts, lambda c: c.cdf(x))

    def sf(self, x):  # one part at a time: a gridded part's running sum ends with its term
        return _weighted(self._parts, lambda c: c.sf(x))

    def _survival(self):
        parts = _once(self._parts, lambda c: c._survival())
        return lambda x: _weighted(parts, lambda sf: sf(x))

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng, size):
        return self.sampler()(rng, size)

    def sampler(self):
        return _weighted_draw(*zip(*_once(self._parts, lambda c: c.sampler())))

    def describe(self):
        return {
            "kind": "mixture",
            "weights": [float(w) for w in self._w],
            "components": [c.describe() for c in self._components],
        }

    def _fingerprint_payload(self) -> tuple:
        # Mixtures of closed-form kinds keep their JSON strings; gridded (or nested)
        # parts are identified by their own fingerprints (once each), so no atom is JSON-encoded.
        if not any(isinstance(c, (Gridded, Mixture)) for c in self._components):
            return super()._fingerprint_payload()
        parts = "|".join(f for _, f in _once([(None, c) for c in self._components], lambda c: c.fingerprint()))
        return b"mixture|", self._w.tobytes(), parts.encode()

    def _integrated_tails(self) -> IntegratedTails:
        parts = _once(self._parts, integrated_tails)
        return IntegratedTails(sbar=_tail(lambda x: _weighted(parts, lambda t: t.sbar(x)), self._mean),
                               ssbar=_tail(lambda x: _weighted(parts, lambda t: t.ssbar(x)), np.inf),
                               mean=self._mean)


def _once(parts, make):
    """The pairs (w, make(part)) of the (w, part) pairs, with ``make`` called once for each distinct part."""
    made = {key: make(part) for key, part in {id(part): part for _, part in parts}.items()}
    return [(w, made[id(part)]) for w, part in parts]


def _weighted_draw(weights, parts):
    """A function (rng, size) drawing from ``parts``, functions (rng, n), with probabilities ``weights``.

    One uniform per claim picks part j on [edge_{j-1}, edge_j) of the cumulative weights, the last
    part of positive weight taking all above, so no rounding reaches a zero-weight part; each picked
    part then draws its count, in part order."""
    weights = np.asarray(weights, dtype=float)
    keep = np.flatnonzero(weights > 0)
    cuts = np.cumsum(weights)[keep[:-1]]  # the upper edges of the positive parts but the last
    parts = [parts[j] for j in keep]

    def draw(rng, size):
        u = rng.random(size)
        shape, flat = np.shape(u), np.ravel(u)
        past = [flat >= cut for cut in cuts]
        picks = [~past[0], *map(np.logical_xor, past, past[1:]), past[-1]] if past else [np.ones(flat.size, bool)]
        del u, flat, past  # freed before the part draws
        out = np.empty(picks[0].size)
        for part, picked in zip(parts, picks):
            if (idx := np.flatnonzero(picked)).size:
                out[idx] = part(rng, idx.size)
        return out.reshape(shape)
    return draw


def _weighted(parts, value):
    """The mixture sum of w * value(part) over the (w, part) pairs of positive weight w, in order."""
    total = 0
    for w, v in _once(parts, value):
        total = total + w * v
    return _value(np.asarray(total, dtype=float))


class Gridded(SeverityModel):
    """Discrete severity supported on nonnegative atoms.

    Built from cell masses on a grid: each left-closed cell carries its
    mass at the right endpoint, matching the forward-difference
    convention of the ruin-solver grid.  Survival is piecewise constant,
    so ``sbar`` is piecewise linear and ``ssbar`` piecewise quadratic;
    both are evaluated exactly.  The model keeps the caller's float atoms and masses,
    which must not change afterwards (they are copied only where negative masses are
    clamped or an array is strided; ``from_survival`` makes one array, the masses).
    The cdf is their running sum; a tail call builds its integrals in three arrays.
    An atom at 0 is a claim that leaves the surplus unchanged: the process is its
    thinning, which a coupled :class:`~lundberg.market.MarketSpec` rejects.
    """

    def __init__(self, atoms: Sequence[float], masses: Sequence[float]):
        atoms = np.asarray(atoms, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if atoms.ndim != 1 or atoms.shape != masses.shape or atoms.size == 0:
            raise ValidationError("gridded model needs matching atom and mass arrays")
        if not np.all((atoms >= 0) & (atoms < np.inf)):
            raise ValidationError("gridded atoms must be nonnegative and finite")
        if np.any(np.diff(atoms) <= 0):
            raise ValidationError("gridded atoms must be strictly increasing")
        masses = _checked_masses(masses, "gridded masses")
        total = float(masses.sum())
        if abs(total - 1.0) > _MASS_TOL:
            raise ValidationError(f"gridded masses must sum to 1 within {_MASS_TOL}, got {total!r}")
        self._atoms, self._masses = np.ascontiguousarray(atoms), np.ascontiguousarray(masses)
        self._mean, self._top = float(np.dot(masses, atoms)), float(atoms[-1])

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
        masses = np.diff(survival)
        np.negative(masses, out=masses)
        masses[-1] += survival[-1]
        return cls(nodes[1:], masses)

    def cdf(self, x):
        return self._cdf(np.cumsum(self._masses), x)

    def _cdf(self, cum, x):
        idx = np.searchsorted(self._atoms, np.asarray(x, dtype=float), side="right")  # 0 below the atoms
        return _value(np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0))

    def _survival(self):
        cum = np.cumsum(self._masses)  # the cdf, held by the returned function only
        return lambda x: 1.0 - self._cdf(cum, x)

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng, size):
        return self.sampler()(rng, size)

    def sampler(self):
        cum = np.cumsum(self._masses)  # the cdf, held by the sampler only

        def sample(rng, size):
            u = rng.random(size) * cum[-1]
            return self._atoms[np.minimum(np.searchsorted(cum, u, side="right"), self._atoms.size - 1)]
        return sample

    def isf(self, q):
        idx = np.searchsorted(np.cumsum(self._masses), 1.0 - np.asarray(q, dtype=float), side="left")
        return _value(self._atoms[np.clip(idx, 0, self._atoms.size - 1)])

    def describe(self):
        return {
            "kind": "gridded",
            "atoms": [float(a) for a in self._atoms],
            "masses": [float(m) for m in self._masses],
        }

    def _fingerprint_payload(self) -> tuple:
        return b"gridded|", self._atoms, self._masses

    def _segments(self, x):
        """Segment j of each clamped x (breakpoints 0, x_1, ..., x_K), its offset d, the survival
        on every segment ((1 - total) past x_K), and 0 and the widths, for the tails to overwrite."""
        atoms = self._atoms
        j = np.searchsorted(atoms, x, side="right")
        d = x - np.where(j > 0, atoms[j - 1], 0.0)
        seg_sf, widths = np.ones(atoms.size + 1), np.zeros(atoms.size + 1)
        np.subtract(1.0, np.cumsum(self._masses, out=seg_sf[1:]), out=seg_sf[1:])
        widths[1] = atoms[0]
        np.subtract(atoms[1:], atoms[:-1], out=widths[2:])
        return j, d, seg_sf, widths

    def _sbar(self, x):
        j, d, seg_sf, sb = self._segments(x)
        np.cumsum(np.multiply(seg_sf[:-1], sb[1:], out=sb[1:]), out=sb[1:])
        return sb[j] + seg_sf[j] * d

    def _ssbar(self, x):
        # prefix sums of sb * w + 0.5 * sf * w**2 (w: widths, in ssb[1:]) in three arrays, in that order
        j, d, seg_sf, ssb = self._segments(x)
        sb = np.zeros(ssb.size)
        np.cumsum(np.multiply(seg_sf[:-1], ssb[1:], out=sb[1:]), out=sb[1:])  # sbar at the breakpoints
        sf_j, sb_j = seg_sf[j], sb[j]  # read before sf and sb are overwritten
        sb[:-1] *= ssb[1:]  # sb * w
        seg_sf[:-1] *= 0.5
        seg_sf[:-1] *= np.square(ssb[1:], out=ssb[1:])  # (0.5 * sf) * w**2
        np.cumsum(np.add(sb[:-1], seg_sf[:-1], out=ssb[1:]), out=ssb[1:])
        return ssb[j] + sb_j * d + 0.5 * sf_j * d * d


class JointGridded:
    """Cell masses of a dependent claim pair on a shared uniform grid.

    Large grids are never materialized: ``rows(a, b)`` streams rows
    ``a:b`` of the (ncells x ncells) cell-mass matrix, where row i and
    column j hold the mass of the rectangle (i*step, (i+1)*step] x
    (j*step, (j+1)*step], assigned to the upper-right corner.  The
    ``rows`` callable given at construction yields them as 1-D arrays,
    which may share one buffer and are checked as :class:`Gridded`'s masses.

    A builder whose lattice is symmetric (cell (j, i) holds the mass of
    cell (i, j), as for an exchangeable pair) says so with ``symmetric``;
    its callable then takes a third argument, ``half``, and with it true
    yields row i's ncells - i contributions to the coordinate sum: cell
    (i, i) once, then each cell j > i twice (as itself and its mirror).
    """

    def __init__(self, step: float, ncells: int, rows: Callable[..., Iterable[np.ndarray]],
                 symmetric: bool = False):
        _positive("joint grid step", step)
        if ncells < 1:
            raise ValidationError(f"joint grid needs at least one cell, got {ncells}")
        self.step = float(step)
        self.ncells = int(ncells)
        self.symmetric = symmetric
        self._rows = rows

    def rows(self, a: int, b: int, half: bool = False) -> Iterator[np.ndarray]:
        """Rows ``a:b``, each checked nonnegative; a row may be overwritten by the next.  With
        ``half`` (a symmetric lattice only) row i holds its contributions from the diagonal on."""
        for row in self._rows(a, b, True) if half else self._rows(a, b):
            yield _checked_masses(np.asarray(row, dtype=float), "joint cell masses")


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
    chunk.  A symmetric lattice is formed only from the diagonal on, half
    the cells: half row i (see :class:`JointGridded`) starts at
    anti-diagonal 2i.  A NaN or negative cell fails its row's check, and
    a total off 1 fails :class:`Gridded`'s.  The chunks are jobs of
    :func:`lundberg._pool.map`, in forked workers from 10^7 cells formed
    on; each buffer is added as it arrives.
    """
    n = joint.ncells
    half = joint.symmetric
    first = 2 if half else 1  # row i's first cell lies on anti-diagonal first * i

    def chunk_sum(a):
        b = min(a + _LATTICE_CHUNK, n)
        acc = np.zeros(b + n - 1 - first * a)
        for i, row in enumerate(joint.rows(a, b, half)):
            acc[first * i : first * i + row.size] += row
        return acc

    out = np.zeros(2 * n - 1)
    starts = range(0, n, _LATTICE_CHUNK)
    for a, acc in zip(starts, _pool.map(chunk_sum, starts, n * (n + 1) // 2 if half else n * n)):
        out[first * a : first * a + acc.size] += acc
    return Gridded(joint.step * np.arange(2, 2 * n + 1), out)
