"""Stochastic food-chain chemostat toolkit with jumps and imprecise parameters.

Workflow: describe the nutrient/prey/predator chemostat with interval-valued
parameters (``ImpreciseModel``), pick an imprecision level p to get a fully
numeric ``CrispModel``, compute the noise-corrected invasion thresholds and
their predicted long-run behavior (``classify``), integrate paths of the
jump-diffusion system (``simulate``) or its noise-free counterpart
(``simulate_ode``), and check the predictions against Monte Carlo ensembles
(``ensemble`` / ``verify`` / ``p_sweep``).

Each public name loads its module on first access, so ``import chemlevy``
loads none of them, and a program that only classifies never compiles the
integrator or the harness.
"""

import importlib

# every public name, by the module that defines it; each module is one too
_EXPORTS = {
    "interval": "IntervalNumber add divide interval_value multiply scalar_mul subtract",
    "model": "CrispModel H3Report ImpreciseModel JumpMark JumpSpec State ValidationReport "
             "check_H3 crispify drift load_model model_from_dict validate "
             "DIRECT_EULER LOG_EULER",
    "thresholds": "PredictedAsymptotics Regime SweepRow ThresholdReport VerifyTolerances "
                  "beta classify r0s r1s",
    "integrator": "FLOOR_LOG SimConfig SimulationError Trajectory conservation_residual "
                  "sample_jumps simulate simulate_ode",
    "harness": "EXTINCTION_THRESHOLD Claim EnsembleSummary Verdict ensemble p_sweep verify",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}
__all__ = [name for name in _HOME if name not in _EXPORTS]

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, its module loaded on its first access (PEP 562)."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
