"""Stochastic food-chain chemostat toolkit with jumps and imprecise parameters.

Workflow: describe the nutrient/prey/predator chemostat with interval-valued
parameters (``ImpreciseModel``), pick an imprecision level p to get a fully
numeric ``CrispModel``, compute the noise-corrected invasion thresholds and
their predicted long-run behavior (``classify``), integrate paths of the
jump-diffusion system (``simulate``) or its noise-free counterpart
(``simulate_ode``), and check the predictions against Monte Carlo ensembles
(``ensemble`` / ``verify`` / ``p_sweep``).
"""

from .interval import (
    IntervalNumber,
    add,
    divide,
    interval_value,
    multiply,
    scalar_mul,
    subtract,
)
from .model import (
    CrispModel,
    H3Report,
    ImpreciseModel,
    JumpMark,
    JumpSpec,
    State,
    ValidationReport,
    check_H3,
    crispify,
    drift,
    load_model,
    model_from_dict,
    validate,
)
from .thresholds import (
    PredictedAsymptotics,
    Regime,
    ThresholdReport,
    beta,
    classify,
    r0s,
    r1s,
)
from .integrator import (
    DIRECT_EULER,
    FLOOR_LOG,
    LOG_EULER,
    SimConfig,
    SimulationError,
    Trajectory,
    conservation_residual,
    sample_jumps,
    simulate,
    simulate_ode,
)
from .harness import (
    EXTINCTION_THRESHOLD,
    Claim,
    EnsembleSummary,
    SweepRow,
    Verdict,
    VerifyTolerances,
    ensemble,
    p_sweep,
    verify,
)

__version__ = "0.1.0"
