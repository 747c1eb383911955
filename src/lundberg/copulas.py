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

import numpy as np
from scipy import integrate

from .errors import ValidationError

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


def _as_unit(name, x):
    x = np.asarray(x, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise ValidationError(f"{name} must lie in [0, 1]")
    return x


class OrdinaryCopula(abc.ABC):
    """A bivariate copula on the unit square."""

    family: str = ""

    def cdf(self, u, v):
        """C(u, v), validated and vectorized."""
        u = _as_unit("u", u)
        v = _as_unit("v", v)
        out = self._cdf(u, v)
        return out if np.ndim(out) else float(out)

    @abc.abstractmethod
    def _cdf(self, u, v):
        ...

    def describe(self) -> dict:
        return {"family": self.family}

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


class IndependenceCopula(OrdinaryCopula):
    family = "independence"

    def _cdf(self, u, v):
        return u * v


class ClaytonCopula(OrdinaryCopula):
    """Clayton family, lower-tail dependent; omega > 0."""

    family = "clayton"

    def __init__(self, omega: float):
        if not omega > 0:
            raise ValidationError(f"clayton parameter must be positive, got {omega}")
        self.omega = float(omega)

    def _cdf(self, u, v):
        w = self.omega
        with np.errstate(divide="ignore", over="ignore"):
            s = np.power(u, -w) + np.power(v, -w) - 1.0
            out = np.power(s, -1.0 / w)
        return np.where((u <= 0) | (v <= 0), 0.0, out)

    def describe(self):
        return {"family": self.family, "omega": self.omega}


class GumbelCopula(OrdinaryCopula):
    """Gumbel family, upper-tail dependent; omega >= 1 (1 is independence)."""

    family = "gumbel"

    def __init__(self, omega: float):
        if not omega >= 1:
            raise ValidationError(f"gumbel parameter must be >= 1, got {omega}")
        self.omega = float(omega)

    def _cdf(self, u, v):
        w = self.omega
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = np.power(-np.log(u), w)
            b = np.power(-np.log(v), w)
            out = np.exp(-np.power(a + b, 1.0 / w))
        return np.where((u <= 0) | (v <= 0), 0.0, np.where((u >= 1), v, np.where(v >= 1, u, out)))

    def describe(self):
        return {"family": self.family, "omega": self.omega}


class FrankCopula(OrdinaryCopula):
    """Frank family, tail independent, radially symmetric; omega != 0."""

    family = "frank"

    def __init__(self, omega: float):
        if omega == 0:
            raise ValidationError("frank parameter must be nonzero")
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

    def describe(self):
        return {"family": self.family, "omega": self.omega}


class ClaytonLevyCopula:
    """Clayton positive Lévy copula on [0, inf]^2.

    C(x, y) = (x^-omega + y^-omega)^(-1/omega): grounded, 2-increasing,
    with uniform margins C(x, inf) = x.  Interpolates independent jumps
    (omega -> 0) to completely dependent jumps (omega -> inf).  Evaluated
    as min * (1 + (min/max)^omega)^(-1/omega) for overflow safety at
    large omega.
    """

    family = "clayton"

    def __init__(self, omega: float):
        if not omega > 0:
            raise ValidationError(f"clayton Levy parameter must be positive, got {omega}")
        self.omega = float(omega)

    def cdf(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x < 0) or np.any(y < 0):
            raise ValidationError("Levy copula arguments must be nonnegative")
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.omega == 1.0:
                out = np.where(lo > 0, lo * hi / (lo + hi), 0.0)
            else:
                ratio = np.where(hi > 0, lo / hi, 0.0)
                out = lo * np.power(1.0 + np.power(ratio, self.omega), -1.0 / self.omega)
        out = np.where(lo <= 0, 0.0, out)
        out = np.where(np.isinf(lo), np.inf, out)
        # one argument at infinity: uniform margin
        out = np.where(np.isinf(hi) & np.isfinite(lo), lo, out)
        return out if out.shape else float(out)

    def describe(self):
        return {"family": self.family, "omega": self.omega}

    def __repr__(self):
        return f"ClaytonLevyCopula(omega={self.omega})"


def _debye_one(x: float) -> float:
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
