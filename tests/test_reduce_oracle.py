"""Coboundary reduction with clearing against the textbook boundary reducer.

Both pair simplices by the filtration's total order alone, so the entry
lists must be equal, not merely close.  Inputs are seeded random: Euclidean
clouds, evenly spaced circle samples (ties everywhere), sparsified clouds
with eps1 > 0, and integer-valued lower-distance matrices that break the
triangle inequality, tie heavily and miss some edges (some cut at a drawn
length), and complete graphs with distinct random lengths.  Every case
also checks ``count_simplices`` against the filtration's simplices.
A last case scatters small clusters over 2**15 vertex ids, so the reducer's
packed tetrahedron keys exceed 2**63 and cannot use 64-bit storage.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from helpers import boundary_reduce, edge_list, full_distance_matrix
from ripsaw import (
    build,
    build_filtration,
    circle_oracle,
    count_simplices,
    circle_sample,
    euclidean_oracle,
    make_profile,
    random_cloud,
    reduce,
    sparsify,
    tighten,
)
from ripsaw.sparsify import PrecisionProfile, SparseLengthMatrix


def _size(rng, dim_cap):
    return rng.randint(3, 11) if dim_cap == 3 else rng.randint(3, 20)


def _cloud(rng, dim_cap):
    points = random_cloud(_size(rng, dim_cap), rng.choice((2, 3)), rng.randrange(10**6))
    return edge_list(full_distance_matrix(euclidean_oracle(points)))


def _circle(rng, dim_cap):
    return edge_list(full_distance_matrix(circle_oracle(circle_sample(_size(rng, dim_cap)))))


def _sparsified(rng, dim_cap):
    n = _size(rng, dim_cap) + 4
    oracle = euclidean_oracle(random_cloud(n, 2, rng.randrange(10**6)))
    ctree = tighten(build(oracle), oracle)
    profile = make_profile(ctree, keep=rng.randint(n - 4, n),
                           eps1=rng.choice((0.25, 0.5, 1.0)))
    return sparsify(ctree, oracle, profile)


def _integer(rng, dim_cap):
    """The edge list of a matrix of lengths 1..4 or missing, drawn as a
    plain list of lists; often non-metric.  Some draws also cut every
    length above 2 or 3 (made missing)."""
    n = _size(rng, dim_cap)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            w = rng.choice((1, 2, 2, 3, 3, 4, math.inf))
            rows[i][j] = rows[j][i] = float(w)
    cut = rng.choice((math.inf, 2.0, 3.0))
    return edge_list([[w if w <= cut else math.inf for w in row] for row in rows])


def _random_lengths(rng, n):
    """The complete graph on n vertices with lengths drawn uniformly from
    [0, 1), pair by pair in (i, j) order: distinct almost surely and often
    non-metric, so that column additions over Z_p, p odd, leave sums that do
    not cancel."""
    edges = [(i, j, rng.random()) for i, j in itertools.combinations(range(n), 2)]
    profile = PrecisionProfile(R=0.0, eps0=0.0, eps1=0.0, N=n, n=n)
    return SparseLengthMatrix(edges=edges, profile=profile)


def _distinct(rng, dim_cap):
    return _random_lengths(rng, _size(rng, dim_cap))


MAKERS = {"cloud": _cloud, "circle": _circle, "sparsified": _sparsified,
          "integer": _integer, "distinct": _distinct}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_reduce_matches_boundary_reduction(kind, p):
    rng = random.Random(f"{kind}-{p}")
    for case in range(20):
        dim_cap = case % 3 + 1
        lengths = MAKERS[kind](rng, dim_cap)
        filt = build_filtration(lengths, dim_cap)
        got = reduce(filt, p)
        assert got.entries == boundary_reduce(filt, p).entries, (case, dim_cap)
        assert got.field_char == p
        by_dim = Counter(len(verts) - 1 for verts, _d in filt.simplices)
        assert count_simplices(lengths, dim_cap) == [
            by_dim[d] for d in range(dim_cap + 1)], (case, dim_cap)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("dim_cap", [2, 3])
def test_reduce_keeps_sums_that_do_not_cancel(dim_cap, p):
    """Distinct lengths on 9 vertices (seed 212), where an addition over Z_p
    leaves a row with a new nonzero coefficient that decides the diagram:
    dropping that row, or keeping its old coefficient, changes the entries."""
    filt = build_filtration(_random_lengths(random.Random("9-212"), 9), dim_cap)
    assert reduce(filt, p).entries == boundary_reduce(filt, p).entries


def _wide(rng, n):
    """Three clusters of 8 random vertex ids out of n, each missing some
    edges, with lengths k/4 for k in 1..40."""
    ids = rng.sample(range(n), 24)
    edges = []
    for g in range(3):
        group = sorted(ids[8 * g:8 * g + 8])
        edges += [(a, b, rng.randint(1, 40) / 4)
                  for k, a in enumerate(group) for b in group[k + 1:]
                  if rng.random() < 0.85]
    profile = PrecisionProfile(R=1.0, eps0=0.0, eps1=0.0, N=n, n=n)
    return SparseLengthMatrix(edges=sorted(edges), profile=profile)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduce_matches_boundary_reduction_beyond_64_bit_keys(p):
    n = 2**15
    filt = build_filtration(_wide(random.Random(f"wide-{p}"), n), 3)
    # the key of a tetrahedron: rank of its diameter among the distinct
    # lengths, times n**4, plus its base-n vertex code
    rank = {w: k for k, w in enumerate(filt.lengths)}
    keys = [rank[d] * n**4 + sum(v * n**(3 - i) for i, v in enumerate(verts))
            for verts, d in filt.simplices if len(verts) == 4]
    assert max(keys) > 2**63
    assert reduce(filt, p).entries == boundary_reduce(filt, p).entries
