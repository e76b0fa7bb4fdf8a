"""Food-chain chemostat model types, validation, and coefficient evaluation.

The model tracks nutrient S, prey x, and predator y in a vessel with common
dilution rate D, input nutrient concentration S0, uptake rates m1/m2, yield
constants delta1/delta2, multiplicative Brownian volatilities sigma1..sigma3,
and an optional finite list of jump marks: at a mark-k event, component i is
multiplied by (1 + gamma_i_k).

Parameters may be imprecise (intervals); ``crispify`` selects a fully numeric
model at imprecision level p via geometric interpolation of each interval.
"""

import json
import math
from dataclasses import dataclass, replace

from .interval import IntervalNumber, interval_value, number

_PARAM_FIELDS = ("D", "m1", "delta1", "sigma1", "m2", "delta2", "sigma2", "sigma3")

# the integrator's stochastic schemes, here so that the CLI offers them without loading it
LOG_EULER = "log_euler"
DIRECT_EULER = "direct_euler"


@dataclass(frozen=True)
class JumpMark:
    """One jump mark: Poisson intensity plus per-component relative jump sizes."""

    weight: float
    gamma1: float
    gamma2: float
    gamma3: float

    def gamma(self, i: int) -> float:
        return (self.gamma1, self.gamma2, self.gamma3)[i - 1]


@dataclass(frozen=True)
class JumpSpec:
    """Finite family of weighted jump marks; empty means no jumps."""

    marks: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))

    def __len__(self) -> int:
        return len(self.marks)

    @property
    def total_rate(self) -> float:
        return sum(m.weight for m in self.marks)

    def gamma_intensity(self, i: int) -> float:
        """Sum of weight * gamma_i over marks (compensator drift of component i)."""
        return sum(m.weight * m.gamma(i) for m in self.marks)

    def log_gamma_intensity(self, i: int) -> float:
        """Sum of weight * ln(1 + gamma_i) over marks."""
        return sum(m.weight * math.log(1.0 + m.gamma(i)) for m in self.marks)

    def penalty(self, i: int) -> float:
        """Sum of weight * (gamma_i - ln(1 + gamma_i)) over marks; always >= 0."""
        total = 0.0
        for m in self.marks:
            g = m.gamma(i)
            if g <= -1.0:
                raise ValueError(f"jump size gamma{i}={g!r} must exceed -1")
            total += m.weight * (g - math.log1p(g))
        return total


@dataclass(frozen=True)
class ImpreciseModel:
    """Chemostat model with interval-valued rate parameters and crisp S0."""

    S0: float
    D: IntervalNumber
    m1: IntervalNumber
    delta1: IntervalNumber
    sigma1: IntervalNumber
    m2: IntervalNumber
    delta2: IntervalNumber
    sigma2: IntervalNumber
    sigma3: IntervalNumber
    jumps: JumpSpec = JumpSpec()


@dataclass(frozen=True)
class CrispModel:
    """Fully numeric model, typically produced by ``crispify``.

    Direct construction is permissive (e.g. sigma_i = 0 for noise-free test
    models); file-loaded models go through ``validate`` instead.
    """

    S0: float
    D: float
    m1: float
    delta1: float
    sigma1: float
    m2: float
    delta2: float
    sigma2: float
    sigma3: float
    jumps: JumpSpec = JumpSpec()
    p: float = 0.0

    def with_sigmas(self, sigma1: float, sigma2: float, sigma3: float) -> "CrispModel":
        return replace(self, sigma1=sigma1, sigma2=sigma2, sigma3=sigma3)


@dataclass(frozen=True)
class State:
    """Concentrations of nutrient, prey, and predator."""

    S: float
    x: float
    y: float


def crispify(model: ImpreciseModel, p: float) -> CrispModel:
    """Replace every interval parameter by its geometric p-interpolant."""
    values = {
        name: interval_value(getattr(model, name), p) for name in _PARAM_FIELDS
    }
    return CrispModel(S0=model.S0, jumps=model.jumps, p=float(p), **values)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of all structural checks plus the jump-moment constants.

    ``jump_moment_bound`` is the largest over components of
    sum_k weight_k * ln(1 + gamma_i_k)**2 (finite for any finite mark list);
    ``log_jump_bounds`` are the per-component sup of |ln(1 + gamma_i)|; and
    ``jump_lipschitz`` the per-component sum of weight_k * gamma_i_k**2.  The
    latter is the Lipschitz constant showing the state-linear jump coefficient
    H_i(z, u) = gamma_i(u) z satisfies the square-moment Lipschitz condition
    automatically, so no runtime check is needed for it.
    """

    checks: tuple
    jump_moment_bound: float
    log_jump_bounds: tuple
    jump_lipschitz: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)


def validate(model: ImpreciseModel) -> ValidationReport:
    """Run every structural check; failures are report entries, never raises."""
    checks = []

    # JSON admits Infinity and NaN, so every check also requires finiteness
    checks.append(CheckResult(
        "s0_positive", 0.0 < model.S0 < math.inf, f"S0={model.S0!r}"))

    bad_endpoints = [
        name for name in _PARAM_FIELDS
        if not (getattr(model, name).lower > 0.0 and getattr(model, name).upper < math.inf)
    ]
    checks.append(CheckResult(
        "interval_endpoints_positive",
        not bad_endpoints,
        "all interval endpoints > 0" if not bad_endpoints
        else "nonpositive or non-finite endpoint in: " + ", ".join(bad_endpoints)))

    bad_weights = [
        k for k, m in enumerate(model.jumps.marks) if not 0.0 < m.weight < math.inf
    ]
    # finite weights can still sum past the float range
    rate = model.jumps.total_rate
    checks.append(CheckResult(
        "weights_positive",
        not bad_weights and rate < math.inf,
        f"nonpositive or non-finite weight at marks {bad_weights}" if bad_weights
        else f"total rate {rate!r}" if rate < math.inf
        else f"total rate {rate!r} is not finite"))

    bad_gammas = [
        (k, i) for k, m in enumerate(model.jumps.marks)
        for i in (1, 2, 3) if not -1.0 < m.gamma(i) < math.inf
    ]
    checks.append(CheckResult(
        "gamma_gt_neg1",
        not bad_gammas,
        "all jump sizes > -1" if not bad_gammas
        else "gamma <= -1 or non-finite at (mark, component): "
             + ", ".join(map(str, bad_gammas))))

    if bad_gammas:
        nan = float("nan")
        c = nan
        k_bounds = (nan, nan, nan)
    else:
        second_moments = [
            sum(m.weight * math.log1p(m.gamma(i)) ** 2 for m in model.jumps.marks)
            for i in (1, 2, 3)
        ]
        c = max(second_moments) if model.jumps.marks else 0.0
        k_bounds = tuple(
            max((abs(math.log1p(m.gamma(i))) for m in model.jumps.marks), default=0.0)
            for i in (1, 2, 3)
        )
    lipschitz = tuple(_weighted_square_sum(model.jumps, i) for i in (1, 2, 3))

    return ValidationReport(
        checks=tuple(checks),
        jump_moment_bound=c,
        log_jump_bounds=k_bounds,
        jump_lipschitz=lipschitz,
    )


def _weighted_square_sum(jumps: JumpSpec, i: int) -> float:
    try:
        return sum(m.weight * m.gamma(i) ** 2 for m in jumps.marks)
    except OverflowError:  # a finite gamma beyond ~1e154 squares past the float range
        return math.inf


@dataclass(frozen=True)
class H3Report:
    """Dilution-versus-noise moment condition at order theta."""

    theta: float
    sigma_sq: float
    zeta: float
    lhs: float
    holds: bool


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or inf where it passes the float range (a finite
    parameter near 1e200 squares past it)."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def check_H3(model: CrispModel, theta: float) -> H3Report:
    """Check D - (theta-1)/2 * sigma^2 - zeta/theta > 0 for a moment order 2 < theta < inf.

    sigma^2 is the largest squared volatility; zeta sums, over marks,
    weight * ((1 + max_i gamma_i)**theta - 1 - min_i gamma_i).
    """
    if not 2.0 < theta < math.inf:
        raise ValueError(f"moment order theta must be finite and exceed 2, got {theta!r}")
    sigma_sq = max(_power(s, 2) for s in (model.sigma1, model.sigma2, model.sigma3))
    zeta = 0.0
    for m in model.jumps.marks:
        g_hi = max(m.gamma1, m.gamma2, m.gamma3)
        g_lo = min(m.gamma1, m.gamma2, m.gamma3)
        zeta += m.weight * (_power(1.0 + g_hi, theta) - 1.0 - g_lo)
    lhs = model.D - 0.5 * (theta - 1.0) * sigma_sq - zeta / theta
    return H3Report(theta=theta, sigma_sq=sigma_sq, zeta=zeta, lhs=lhs, holds=lhs > 0.0)


# ---------------------------------------------------------------------------
# Deterministic coefficients
# ---------------------------------------------------------------------------

def drift(model: CrispModel, S: float, x: float, y: float) -> tuple:
    """Drift vector (dS, dx, dy) of the crisp system at state (S, x, y).

    The right-hand side of the noise-free system, used by the RK4 and
    direct-Euler kernels; takes floats because RK4 calls it four times a step.
    ``_window.c``'s drift is these expressions in this order: change both.
    """
    dS = model.D * (model.S0 - S) - model.m1 * S * x / model.delta1
    dx = model.m1 * S * x - model.D * x - model.m2 * x * y / model.delta2
    dy = model.m2 * x * y - model.D * y
    return (dS, dx, dy)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def model_from_dict(data: dict) -> ImpreciseModel:
    """Build a model from a parsed config mapping.

    Parameter fields accept a bare number (shorthand for a degenerate
    interval) or a two-element [lower, upper] array; ``jumps`` is an optional
    list of {weight, gamma1, gamma2, gamma3} records, with no other field.
    """
    if not isinstance(data, dict):
        raise ValueError("model config must be a mapping")
    missing = [k for k in ("S0",) + _PARAM_FIELDS if k not in data]
    if missing:
        raise ValueError("model config missing field(s): " + ", ".join(missing))
    unknown = [k for k in data if k not in ("S0", "jumps") + _PARAM_FIELDS]
    if unknown:
        raise ValueError("model config has unknown field(s): " + ", ".join(map(str, unknown)))

    try:
        s0 = number(data["S0"])
    except (TypeError, OverflowError):
        raise ValueError(f"field S0: expected a number, got {data['S0']!r}") from None

    params = {}
    for name in _PARAM_FIELDS:
        try:
            params[name] = IntervalNumber.from_value(data[name])
        except ValueError as exc:
            raise ValueError(f"field {name}: {exc}") from None

    records = data.get("jumps", [])
    if not isinstance(records, (list, tuple)):
        raise ValueError(f"jumps: expected a list of mappings, got {records!r}")
    marks = []
    for k, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"jumps[{k}]: expected a mapping, got {rec!r}")
        unknown = [f for f in rec if f not in ("weight", "gamma1", "gamma2", "gamma3")]
        if unknown:
            raise ValueError(f"jumps[{k}]: unknown field(s): " + ", ".join(map(str, unknown)))
        try:
            marks.append(JumpMark(
                weight=number(rec["weight"]),
                gamma1=number(rec["gamma1"]),
                gamma2=number(rec["gamma2"]),
                gamma3=number(rec["gamma3"]),
            ))
        except KeyError as exc:
            raise ValueError(f"jumps[{k}]: missing field {exc.args[0]!r}") from None
        except (TypeError, OverflowError):
            raise ValueError(f"jumps[{k}]: fields must be numbers, got {rec!r}") from None

    return ImpreciseModel(S0=s0, jumps=JumpSpec(tuple(marks)), **params)


def load_model(path) -> ImpreciseModel:
    """Read a JSON model file; raises ValueError with a located diagnostic."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
    try:
        return model_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
