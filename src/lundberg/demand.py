"""Loading-sensitive demand and joint policy acquisition.

A company controls its market share through the security loading theta:
the take rate follows a logit curve p(theta) = 1/(1 + exp(b0 + b1*theta)),
and the net premium income per unit time is (1+theta)*lambda*p(theta)*E[Y]
minus a fixed operating cost.  When the company sells policies for two
risks, an ordinary copula over client bid prices determines how often the
same client holds both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .copulas import OrdinaryCopula
from .errors import ValidationError

__all__ = ["DemandSpec", "AcquisitionShares", "acquisition_shares", "joint_share", "shares_from_take_rates"]

_MARGIN_TOL = 1e-12


@dataclass(frozen=True)
class DemandSpec:
    """Logit demand curve plus fixed operating cost.

    Attributes:
        beta0: logit intercept.
        beta1: per-unit-loading slope, must be positive so demand decays
            with the loading.
        fixed_cost: operating cost per unit time, independent of volume.
    """

    beta0: float
    beta1: float
    fixed_cost: float = 0.0

    def __post_init__(self):
        if not self.beta1 > 0:
            raise ValidationError(f"demand slope beta1 must be positive, got {self.beta1}")
        if self.fixed_cost < 0:
            raise ValidationError(f"fixed cost must be nonnegative, got {self.fixed_cost}")

    def take_rate(self, theta):
        """Probability that a potential client buys at loading theta.

        Strictly decreasing in theta, valued in (0, 1).
        """
        theta = np.asarray(theta, dtype=float)
        out = expit(-(self.beta0 + self.beta1 * theta))
        return out if out.shape else float(out)

    def premium_rate(self, intensity: float, mean_severity: float, theta):
        """Net premium income per unit time at loading theta.

        (1 + theta) * intensity * p(theta) * mean_severity - fixed_cost;
        may be negative when the fixed cost dominates, which solvers
        reject through the net profit precondition.
        """
        theta = np.asarray(theta, dtype=float)
        out = (1.0 + theta) * intensity * self.take_rate(theta) * mean_severity - self.fixed_cost
        return out if out.shape else float(out)


@dataclass(frozen=True)
class AcquisitionShares:
    """Market shares of the two products and their joint holdings.

    ``only1``/``only2``/``both`` partition the company's clients;
    ``p1 = only1 + both`` and ``p2 = only2 + both`` are the marginal
    shares.  The joint share obeys the Frechet bounds.
    """

    p1: float
    p2: float
    only1: float
    only2: float
    both: float

    def __post_init__(self):
        vals = (self.p1, self.p2, self.only1, self.only2, self.both)
        if any(v < -_MARGIN_TOL or v > 1 + _MARGIN_TOL for v in vals):
            raise ValidationError(f"acquisition shares must lie in [0, 1], got {vals}")
        if abs(self.only1 + self.both - self.p1) > _MARGIN_TOL:
            raise ValidationError("only1 + both must equal p1")
        if abs(self.only2 + self.both - self.p2) > _MARGIN_TOL:
            raise ValidationError("only2 + both must equal p2")
        if self.only1 + self.only2 + self.both > 1 + 1e-9:
            raise ValidationError("share partition exceeds the whole market")
        lower = max(self.p1 + self.p2 - 1.0, 0.0)
        upper = min(self.p1, self.p2)
        if not (lower - 1e-9 <= self.both <= upper + 1e-9):
            raise ValidationError(
                f"joint share {self.both} violates Frechet bounds [{lower}, {upper}]"
            )

    @classmethod
    def monopoly(cls) -> "AcquisitionShares":
        return cls(p1=1.0, p2=1.0, only1=0.0, only2=0.0, both=1.0)


def joint_share(copula: OrdinaryCopula, p1, p2):
    """Share of clients holding both products, elementwise in the take rates.

    With bid-price distribution values F_i = 1 - p_i at the charged
    loadings, the joint share is the survival-copula identity
    ``1 - F_1 - F_2 + C(F_1, F_2)``, clipped to its Frechet bounds.
    Reduces to ``p1*p2`` under the independence copula.
    """
    f1, f2 = 1.0 - p1, 1.0 - p2
    both = 1.0 - f1 - f2 + np.asarray(copula.cdf(f1, f2), dtype=float)
    return np.clip(both, np.maximum(p1 + p2 - 1.0, 0.0), np.minimum(p1, p2))


def shares_from_take_rates(copula: OrdinaryCopula, p1: float, p2: float) -> AcquisitionShares:
    """Joint acquisition shares from marginal take rates and a bid copula.

    The joint share is :func:`joint_share`; the single-product shares
    follow from the margins.
    """
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValidationError(f"take rates must lie in [0, 1], got {p1}, {p2}")
    both = float(joint_share(copula, p1, p2))
    return AcquisitionShares(p1=p1, p2=p2, only1=p1 - both, only2=p2 - both, both=both)


def acquisition_shares(
    copula: OrdinaryCopula,
    demand1: DemandSpec,
    demand2: DemandSpec,
    theta1: float,
    theta2: float,
) -> AcquisitionShares:
    """Acquisition shares at the charged loadings.

    Bid-price distributions are continuous (logit), so no left-limit
    correction is needed at the loading point.
    """
    return shares_from_take_rates(
        copula, float(demand1.take_rate(theta1)), float(demand2.take_rate(theta2))
    )
