"""Sparsified Vietoris-Rips filtrations via contraction trees.

The pipeline: organize a finite metric space into a simplified cover tree,
tighten it into a contraction tree, emit a sparse length matrix with a
prescribed relative/absolute error budget, compute persistent homology of
the sparse flag filtration, and report diagrams whose entries carry error
rectangles together with tooling that verifies the interleaving guarantee
against an exact diagram.

``_EXPORTS`` maps each stage module to the public names it owns, and a
name's module is imported the first time the name is used (PEP 562).
"""

import importlib

# Eager, unlike every other name: importing the submodule `sparsify` binds the
# module on the package, so `__getattr__` would never be asked for the function.
from .sparsify import sparsify

__version__ = "0.1.0"

_EXPORTS = {
    "covertree": ("ContractionTree", "CoverTree", "build", "contraction_violations",
                  "density_violations", "find_parent", "read_tree", "tighten",
                  "write_tree"),
    "diagram": ("ApproxDiagram", "InterleavingReport", "MatchResult", "alive",
                "approximate", "match_diagrams", "rank_at", "related",
                "verify_interleaving"),
    "errors": ("InputError", "ResourceGuardError"),
    "generators": ("SolenoidParams", "circle_sample", "random_cloud", "solenoid_sample"),
    "metric": ("circle_oracle", "euclidean_oracle", "matrix_oracle"),
    "modules": ("ExplicitModule", "barcode_from_ranks", "normal_form",
                "ranks_from_barcode"),
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
