"""Sparsified Vietoris-Rips filtrations via contraction trees.

The pipeline: organize a finite metric space into a simplified cover tree,
tighten it into a contraction tree, emit a sparse length matrix with a
prescribed relative/absolute error budget, compute persistent homology of
the sparse flag filtration, and report diagrams whose entries carry error
rectangles together with tooling that verifies the interleaving guarantee
against an exact diagram.
"""

from .covertree import (
    ContractionTree,
    CoverTree,
    build,
    contraction_violations,
    density_violations,
    find_parent,
    read_tree,
    tighten,
    write_tree,
)
from .diagram import (
    ApproxDiagram,
    InterleavingReport,
    MatchResult,
    alive,
    approximate,
    match_diagrams,
    rank_at,
    related,
    verify_interleaving,
)
from .errors import InputError, ResourceGuardError
from .generators import SolenoidParams, circle_sample, random_cloud, solenoid_sample
from .metric import circle_oracle, euclidean_oracle, matrix_oracle
from .persistence import (
    DiagramEntry,
    Filtration,
    PersistenceDiagram,
    build_filtration,
    count_simplices,
    reduce,
)
from .sparsify import (
    PrecisionProfile,
    SparseLengthMatrix,
    make_profile,
    read_sparse,
    sparsify,
    write_sparse,
)

__version__ = "0.1.0"

# The explicit-module algebra needs numpy, which the pipeline does not; it is
# imported on first access so that ``import ripsaw.cli`` stays numpy-free.
_MODULE_ALGEBRA = ("ExplicitModule", "barcode_from_ranks", "normal_form",
                   "ranks_from_barcode")


def __getattr__(name):
    if name in _MODULE_ALGEBRA:
        from . import modules
        return getattr(modules, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ApproxDiagram",
    "ContractionTree",
    "CoverTree",
    "DiagramEntry",
    "ExplicitModule",
    "Filtration",
    "InputError",
    "InterleavingReport",
    "MatchResult",
    "PersistenceDiagram",
    "PrecisionProfile",
    "ResourceGuardError",
    "SolenoidParams",
    "SparseLengthMatrix",
    "alive",
    "approximate",
    "barcode_from_ranks",
    "build",
    "build_filtration",
    "circle_oracle",
    "circle_sample",
    "contraction_violations",
    "count_simplices",
    "density_violations",
    "euclidean_oracle",
    "find_parent",
    "make_profile",
    "match_diagrams",
    "matrix_oracle",
    "normal_form",
    "random_cloud",
    "rank_at",
    "ranks_from_barcode",
    "read_sparse",
    "read_tree",
    "reduce",
    "related",
    "solenoid_sample",
    "sparsify",
    "tighten",
    "verify_interleaving",
    "write_sparse",
    "write_tree",
]
