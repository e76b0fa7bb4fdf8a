"""Modules that load on first attribute access: numpy, and the engine's
modules where the CLI reaches them (``integrator``, ``harness``,
``_compiled``).  So ``chemlevy validate``, ``thresholds`` and ``sweep``
without ``--paths`` neither import numpy nor compile the engine, and
``simulate`` and ``ode`` never load the harness.  The recipe is the one in
the ``importlib`` documentation (``importlib.util.LazyLoader``).
"""

import importlib.util
import sys


def lazy_import(name: str):
    """The module name, loaded when one of its attributes is first read; a
    submodule is also bound on its package, as an import binds it."""
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
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


np = lazy_import("numpy")
