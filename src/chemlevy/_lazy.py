"""NumPy as a module that loads on first attribute access.

Only the integrator, the ensemble harness and the data commands compute with
numpy; model loading, validation and the thresholds do not.  Importing it
lazily lets ``chemlevy validate``, ``thresholds`` and ``sweep`` without
``--paths`` run without paying its import.  The recipe is the one in the
``importlib`` documentation (``importlib.util.LazyLoader``).
"""

import importlib.util
import sys


def _lazy_import(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
