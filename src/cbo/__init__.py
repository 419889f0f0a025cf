"""Consensus-based optimization toolkit.

Submodules: ``objectives`` (benchmark functions with landscape metadata),
``engine`` (particle dynamics), ``metrics`` (ensemble functionals),
``theory`` (closed-form constants and bounds), ``mfa`` (mean-field
approximation experiments), ``cli`` (command-line entry point).
``theory`` is imported at its first use, so a route that runs no theory
never loads it.
"""

import importlib

from . import engine, errors, metrics, mfa, objectives

__version__ = "0.1.0"

__all__ = ["engine", "errors", "metrics", "mfa", "objectives", "theory", "__version__"]


def __getattr__(name):
    if name == "theory":
        return importlib.import_module(".theory", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
