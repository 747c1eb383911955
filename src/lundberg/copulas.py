"""Bivariate copulas: ordinary families for sale dependence, Clayton for jumps.

Ordinary copulas couple the bid-price distributions that drive joint
policy acquisition; the Clayton positive Lévy copula couples the tail
integrals of two compound Poisson claim processes.  Kendall's tau is the
common dependence scale: closed-form conversions exist for Clayton and
Gumbel, Frank is inverted numerically through its Debye-function
relation.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from .errors import ValidationError, _positive

__all__ = [
    "OrdinaryCopula",
    "IndependenceCopula",
    "ClaytonCopula",
    "GumbelCopula",
    "FrankCopula",
    "ClaytonLevyCopula",
    "tau_to_parameter",
    "make_ordinary",
]


_TINY = np.finfo(float).tiny


def _as_unit(name, x):
    x = np.asarray(x, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise ValidationError(f"{name} must lie in [0, 1]")
    return x


class _Family:
    """A copula as a config names it: its ``family`` and, where it takes one, its parameter ``omega``."""

    family: str = ""
    omega: float | None = None

    def describe(self) -> dict:
        return {"family": self.family} if self.omega is None else {"family": self.family, "omega": self.omega}

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


class OrdinaryCopula(_Family, abc.ABC):
    """A bivariate copula on the unit square."""

    def cdf(self, u, v):
        """C(u, v), validated and vectorized."""
        u = _as_unit("u", u)
        v = _as_unit("v", v)
        out = self._cdf(u, v)
        return out if np.ndim(out) else float(out)

    @abc.abstractmethod
    def _cdf(self, u, v):
        ...


class IndependenceCopula(OrdinaryCopula):
    family = "independence"

    def _cdf(self, u, v):
        return u * v


class ClaytonCopula(OrdinaryCopula):
    """Clayton family, lower-tail dependent; omega > 0."""

    family = "clayton"

    def __init__(self, omega: float):
        self.omega = float(_positive("clayton parameter", omega))

    def _cdf(self, u, v):
        w = self.omega
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = np.power(u, -w) + np.power(v, -w) - 1.0
            # where s overflows: s = m^-w (1 + (m/M)^w - m^w) with m = min(u, v), M = max(u, v)
            m = np.minimum(u, v)
            stable = m * np.power(1.0 + np.power(m / np.maximum(u, v), w) - np.power(m, w), -1.0 / w)
            out = np.where(np.isinf(s), stable, np.power(s, -1.0 / w))
        return np.where((u <= 0) | (v <= 0), 0.0, out)


class GumbelCopula(OrdinaryCopula):
    """Gumbel family, upper-tail dependent; omega >= 1 (1 is independence)."""

    family = "gumbel"

    def __init__(self, omega: float):
        if not 1 <= omega < math.inf:
            raise ValidationError(f"gumbel parameter must be >= 1 and finite, got {omega}")
        self.omega = float(omega)

    def _cdf(self, u, v):
        w = self.omega
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a, b = -np.log(u), -np.log(v)
            s = np.power(a, w) + np.power(b, w)
            # where s over- or underflows: s = A^w (1 + (B/A)^w) with A = max(a, b), B = min(a, b)
            big = np.maximum(a, b)
            stable = np.exp(-big * np.power(1.0 + np.power(np.minimum(a, b) / big, w), 1.0 / w))
            out = np.where((s >= _TINY) & (s < np.inf), np.exp(-np.power(s, 1.0 / w)), stable)
        return np.where((u <= 0) | (v <= 0), 0.0, np.where((u >= 1), v, np.where(v >= 1, u, out)))


class FrankCopula(OrdinaryCopula):
    """Frank family, tail independent, radially symmetric; omega != 0."""

    family = "frank"

    def __init__(self, omega: float):
        if omega == 0 or not math.isfinite(omega):
            raise ValidationError(f"frank parameter must be nonzero and finite, got {omega}")
        self.omega = float(omega)

    def _cdf(self, u, v):
        w = self.omega
        ratio = np.expm1(-w * u) * np.expm1(-w * v) / np.expm1(-w)
        if w < 0:
            return -np.log1p(ratio) / w
        # For w > 0 the log argument 1 + ratio cancels towards 0 near (1, 1); there it
        # is the sum of nonnegative terms (e^-wu (1 - e^-wv) + e^-wv - e^-w) / (1 - e^-w)
        arg = (np.exp(-w * u) * np.expm1(-w * v) + np.exp(-w * v) * np.expm1(-w * (1.0 - v))) / np.expm1(-w)
        with np.errstate(divide="ignore", invalid="ignore"):
            return -np.where(ratio > -0.5, np.log1p(ratio), np.log(arg)) / w


class ClaytonLevyCopula(_Family):
    """Clayton positive Lévy copula on [0, inf]^2.

    C(x, y) = (x^-omega + y^-omega)^(-1/omega): grounded, 2-increasing,
    with uniform margins C(x, inf) = x.  Interpolates independent jumps
    (omega -> 0) to completely dependent jumps (omega -> inf).  Evaluated
    as min * (1 + (min/max)^omega)^(-1/omega) for overflow safety at
    large omega.
    """

    family = "clayton"

    def __init__(self, omega: float):
        self.omega = float(_positive("clayton Levy parameter", omega))

    def cdf(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if np.any(x < 0) or np.any(y < 0):
            raise ValidationError("Levy copula arguments must be nonnegative")
        # symmetric in its arguments bit for bit, which an exchangeable Decomposition relies on
        lo, hi, w = np.minimum(x, y), np.maximum(x, y), self.omega
        with np.errstate(divide="ignore", invalid="ignore"):
            if w == 1.0:
                out = np.where(lo > 0, lo * hi / (lo + hi), 0.0)
            else:  # in place; the fixups below run only where a zero, inf or NaN can need them
                out = np.divide(lo, hi, out=np.empty(lo.shape))
                np.power(out, w, out=out)
                out += 1.0
                np.power(out, -1.0 / w, out=out)
                out *= lo
                if not lo.min(initial=np.inf) > 0:
                    out[lo <= 0] = 0.0
            # an infinite argument gives the uniform margin lo; a NaN gives lo * 1 (0 when harmonic)
            if not hi.max(initial=0.0) < np.inf:
                if w != 1.0:
                    np.copyto(out, lo * 1.0, where=np.isnan(hi))
                np.copyto(out, lo, where=np.isinf(hi))
        return out if out.shape else float(out)


def _debye_one(x: float) -> float:
    from scipy import integrate

    val, _ = integrate.quad(lambda t: t / np.expm1(t), 0.0, x, limit=200)
    return val / x


def frank_tau(omega: float) -> float:
    """Kendall's tau of the Frank copula via the first Debye function."""
    if omega == 0:
        return 0.0
    return 1.0 - 4.0 / omega * (1.0 - _debye_one(omega))


def tau_to_parameter(family: str, tau: float) -> float:
    """Convert a Kendall's tau in [0, 1) to a copula parameter.

    Clayton uses omega = 2*tau/(1-tau), Gumbel omega = 1/(1-tau); Frank
    is solved by bisection of its tau relation on (0, 50] to 1e-10.
    """
    if not 0.0 <= tau < 1.0:
        raise ValidationError(f"Kendall tau must lie in [0, 1), got {tau}")
    if family == "clayton":
        return 2.0 * tau / (1.0 - tau)
    if family == "gumbel":
        return 1.0 / (1.0 - tau)
    if family == "frank":
        if tau == 0.0:
            return 0.0
        lo, hi = 1e-10, 50.0
        if tau > frank_tau(hi):
            raise ValidationError(f"frank tau {tau} outside invertible bracket (0, {hi}]")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if frank_tau(mid) < tau:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-10:
                break
        return 0.5 * (lo + hi)
    if family == "independence":
        if tau != 0.0:
            raise ValidationError("independence copula admits only tau = 0")
        return 0.0
    raise ValidationError(f"unknown copula family {family!r}")


def make_ordinary(family: str, omega: float | None = None, tau: float | None = None) -> OrdinaryCopula:
    """Build an ordinary copula from a family name and omega or tau.

    Exactly one of ``omega``/``tau`` may be given (neither, for the
    independence family).  A tau of 0, or a Clayton/Frank omega of 0,
    degrades gracefully to the independence copula.
    """
    if omega is not None and tau is not None:
        raise ValidationError("specify either omega or tau, not both")
    if family == "independence":
        if omega is not None or (tau or 0.0) != 0.0:
            raise ValidationError("independence copula takes no parameter")
        return IndependenceCopula()
    if tau is not None:
        omega = tau_to_parameter(family, tau)
    if omega is None:
        raise ValidationError(f"{family} copula needs omega or tau")
    if family == "clayton":
        return IndependenceCopula() if omega == 0.0 else ClaytonCopula(omega)
    if family == "gumbel":
        return IndependenceCopula() if omega == 1.0 else GumbelCopula(omega)
    if family == "frank":
        return IndependenceCopula() if omega == 0.0 else FrankCopula(omega)
    raise ValidationError(f"unknown copula family {family!r}")
