"""Noise-corrected invasion thresholds and asymptotic regime classification.

Each component i carries a noise penalty
``beta_i = sigma_i**2 / 2 + sum_k weight_k * (gamma_i_k - ln(1 + gamma_i_k))``
that lowers its effective growth.  The prey invasion number
``R0s = S0 * m1 / (D + beta2)`` and the predator invasion number ``R1s``
separate three long-run regimes: both populations extinct, prey-only, and
persistent (predator time-average bounded away from zero).  A threshold-only
sweep (``sweep_rows``) classifies each level of an imprecision grid.
"""

import math
from dataclasses import dataclass, fields
from enum import Enum

from .model import CrispModel, ImpreciseModel, crispify

_BOUNDARY_TOL = 1e-9  # a threshold this close to 1 is the Boundary regime


class Regime(str, Enum):
    BOTH_EXTINCT = "BothExtinct"
    PREY_ONLY = "PreyOnlyPersists"
    PERSISTENT = "Persistent"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class PredictedAsymptotics:
    """Regime-specific long-run predictions; inapplicable fields stay None.

    x_lyapunov_bound / y_lyapunov_bound bound the exponential growth rates
    ln x(t)/t and ln y(t)/t from above; S_mean_limit / x_mean_limit are the
    limits of the running time averages; y_mean_lower_bound is the persistent
    regime's lower bound on liminf of the predator time average.
    """

    x_lyapunov_bound: float | None = None
    y_lyapunov_bound: float | None = None
    S_mean_limit: float | None = None
    x_mean_limit: float | None = None
    y_mean_lower_bound: float | None = None

    def present(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self) if getattr(self, f.name) is not None
        }


@dataclass(frozen=True)
class ThresholdReport:
    beta1: float
    beta2: float
    beta3: float
    R0s: float
    R1s: float
    regime: Regime
    predictions: PredictedAsymptotics


def beta(model: CrispModel, i: int) -> float:
    """Noise penalty of component i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise ValueError(f"component index must be 1, 2, or 3, got {i!r}")
    sigma = (model.sigma1, model.sigma2, model.sigma3)[i - 1]
    return 0.5 * sigma * sigma + model.jumps.penalty(i)


def r0s(model: CrispModel) -> float:
    """Prey invasion number S0 * m1 / (D + beta2)."""
    denom = model.D + beta(model, 2)
    if denom <= 0.0:
        raise ValueError(f"nonpositive denominator D + beta2 = {denom!r}")
    return model.S0 * model.m1 / denom


def r1s(model: CrispModel) -> float:
    """Predator invasion number; always below r0s for valid models."""
    b2 = beta(model, 2)
    b3 = beta(model, 3)
    denom = model.m2 * model.delta1 * (model.D + b2) + model.m1 * (model.D + b3)
    if denom <= 0.0:
        raise ValueError(f"nonpositive threshold denominator {denom!r}")
    return model.S0 * model.m1 * model.m2 * model.delta1 / denom


def classify(model: CrispModel) -> ThresholdReport:
    """Compute both thresholds, pick the regime, and attach its predictions.

    A threshold within _BOUNDARY_TOL of 1, where floating-point coincidence
    could pick either side and the asymptotic theory is silent, is Boundary.
    """
    b1 = beta(model, 1)
    b2 = beta(model, 2)
    b3 = beta(model, 3)
    R0 = r0s(model)
    R1 = r1s(model)

    d2 = model.D + b2
    d3 = model.D + b3
    y_rate_coeff = model.m2 * model.delta1 * d2 / model.m1 + d3

    if R0 < 1.0 - _BOUNDARY_TOL:
        regime = Regime.BOTH_EXTINCT
        preds = PredictedAsymptotics(
            x_lyapunov_bound=d2 * (R0 - 1.0),
            y_lyapunov_bound=-d3,
            S_mean_limit=model.S0,
        )
    elif R1 > 1.0 + _BOUNDARY_TOL:
        regime = Regime.PERSISTENT
        lower = (
            model.m1 * model.delta2
            / (model.m1 * model.m2 + model.m2 ** 2 * model.delta1)
            * y_rate_coeff * (R1 - 1.0)
        )
        preds = PredictedAsymptotics(y_mean_lower_bound=lower)
    elif R1 < 1.0 - _BOUNDARY_TOL and R0 > 1.0 + _BOUNDARY_TOL:
        regime = Regime.PREY_ONLY
        preds = PredictedAsymptotics(
            y_lyapunov_bound=y_rate_coeff * (R1 - 1.0),
            S_mean_limit=d2 / model.m1,
            x_mean_limit=model.delta1 / model.m1 * d2 * (R0 - 1.0),
        )
    else:
        regime = Regime.BOUNDARY
        preds = PredictedAsymptotics()

    return ThresholdReport(
        beta1=b1, beta2=b2, beta3=b3, R0s=R0, R1s=R1,
        regime=regime, predictions=preds,
    )


@dataclass(frozen=True)
class VerifyTolerances:
    """Finite-horizon slack for asymptotic claims.

    rate: absolute slack on exponential-rate (ln c(t)/t) bounds.
    mean: relative slack on time-average limits and lower bounds.
    """

    rate: float = 0.02
    mean: float = 0.05

    def __post_init__(self):
        for name in ("rate", "mean"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"tolerance {name} must be finite and nonnegative, got {value!r}")


@dataclass
class SweepRow:
    """One level of a sweep: its crisp model and thresholds, then, once its
    paths ran, their median terminal statistics and verdict, or an error."""

    p: float
    crisp: CrispModel
    report: ThresholdReport
    stats: dict | None = None
    verdict: "harness.Verdict | None" = None
    error: str | None = None


def sweep_rows(model: ImpreciseModel, p_grid) -> list:
    """A SweepRow per level of p_grid, in order of p: crispified and
    classified, nothing else.  An empty p_grid raises ValueError."""
    grid = sorted(float(p) for p in p_grid)
    if not grid:
        raise ValueError("p_grid must be nonempty")
    return [SweepRow(p=p, crisp=crisp, report=classify(crisp))
            for p, crisp in ((p, crispify(model, p)) for p in grid)]
