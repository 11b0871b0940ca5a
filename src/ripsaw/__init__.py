"""Sparsified Vietoris-Rips filtrations via contraction trees.

The pipeline: organize a finite metric space into a simplified cover tree,
tighten it into a contraction tree, emit a sparse length matrix with a
prescribed relative/absolute error budget, compute persistent homology of
the sparse flag filtration, and report diagrams whose entries carry error
rectangles together with tooling that verifies the interleaving guarantee
against an exact diagram.

``_EXPORTS`` maps each stage module to the public names it owns, and a
name's module is imported the first time the name is used (PEP 562), so
``import ripsaw`` loads no stage module.

``import ripsaw.sparsify as m`` binds the function ``sparsify``, not the module
(``m._meta_path`` raises ``AttributeError``); reach the module with ``from
ripsaw.sparsify import ...`` or ``importlib.import_module("ripsaw.sparsify")``.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "covertree": ("ContractionTree", "CoverTree", "build", "contraction_violations",
                  "density_violations", "find_parent", "read_tree", "tighten",
                  "write_tree"),
    "diagram": ("InterleavingReport", "MatchResult", "alive", "approximate",
                "match_diagrams", "related", "verify_interleaving"),
    "errors": ("InputError", "ResourceGuardError"),
    "generators": ("circle_sample", "random_cloud", "solenoid_sample"),
    "metric": ("circle_oracle", "euclidean_oracle", "matrix_oracle"),
    "persistence": ("DiagramEntry", "Filtration", "PersistenceDiagram",
                    "build_filtration", "count_simplices", "reduce"),
    "sparsify": ("PrecisionProfile", "SparseLengthMatrix", "make_profile",
                 "read_sparse", "sparsify", "write_sparse"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return __all__


class _Package(types.ModuleType):
    """Keeps the function ``sparsify`` visible: importing the submodule of
    that name would bind the module here, and ``__getattr__`` would then
    never be asked for the function."""

    def __setattr__(self, name, value):
        if not (name == "sparsify" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
