import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from explicit_modules import (
    ExplicitModule,
    barcode_from_ranks,
    normal_form,
    ranks_from_barcode,
    rref_mod,
)
from helpers import (
    boundary_reduce,
    brute_force_diagram,
    decode_simplex_key,
    diagram_to_multisets,
    edge_list,
    flag_simplices,
    full_distance_matrix,
    gauss_rank,
    random_invertible,
    simplex_counts,
)
from ripsaw import (
    DiagramEntry,
    InputError,
    PersistenceDiagram,
    ResourceGuardError,
    build,
    build_filtration,
    circle_oracle,
    circle_sample,
    euclidean_oracle,
    make_profile,
    random_cloud,
    reduce,
    sparsify,
    tighten,
)
from ripsaw.persistence import check_field, dump_diagram, load_diagram
from ripsaw.sparsify import PrecisionProfile, SparseLengthMatrix

INF = math.inf
UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


# --- filtration enumeration -----------------------------------------------------

def test_build_filtration_refuses_dim_cap_0():
    """And a dim_cap that is no int: a float or a str would fail later in
    ``reduce`` with a bare ``TypeError``, and ``True`` would run as 1."""
    matrix = edge_list(full_distance_matrix(euclidean_oracle(UNIT_SQUARE)))
    for dim_cap in (0, 2.0, "2", True):
        with pytest.raises(InputError, match="dim_cap must be at least 1"):
            build_filtration(matrix, dim_cap)


@pytest.mark.parametrize("dim_cap", [1, 2, 3])
def test_reduce_records_the_highest_dimension_it_computed(dim_cap):
    matrix = edge_list(full_distance_matrix(euclidean_oracle(UNIT_SQUARE)))
    assert reduce(build_filtration(matrix, dim_cap), 2).max_dim == dim_cap - 1


def test_filtration_k3():
    dist = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    filt = build_filtration(edge_list(dist), 2)
    by_dim = {}
    for verts, diam in filt.simplices:
        by_dim.setdefault(len(verts) - 1, []).append((verts, diam))
    assert len(by_dim[0]) == 3 and all(d == 0.0 for _v, d in by_dim[0])
    assert len(by_dim[1]) == 3 and all(d == 1.0 for _v, d in by_dim[1])
    assert by_dim[2] == [((0, 1, 2), 1.0)]


def test_filtration_blocked_clique():
    dist = np.array([[0, INF, 1], [INF, 0, 1], [1, 1, 0]], dtype=float)
    filt = build_filtration(edge_list(dist), 2)
    dims = [len(v) - 1 for v, _d in filt.simplices]
    assert dims.count(1) == 2
    assert dims.count(2) == 0


def test_filtration_square_dim_cap_1():
    dist = full_distance_matrix(euclidean_oracle(UNIT_SQUARE))
    filt = build_filtration(edge_list(dist), 1)
    edges = sorted(d for v, d in filt.simplices if len(v) == 2)
    assert len([v for v, _d in filt.simplices if len(v) == 1]) == 4
    assert edges == [1.0, 1.0, 1.0, 1.0, math.sqrt(2), math.sqrt(2)]


def test_filtration_order_is_linear_extension():
    dist = full_distance_matrix(euclidean_oracle(random_cloud(10, 2, 0)))
    filt = build_filtration(edge_list(dist), 2)
    position = {v: k for k, (v, _d) in enumerate(filt.simplices)}
    for verts, diam in filt.simplices:
        for drop in range(len(verts)):
            face = verts[:drop] + verts[drop + 1:]
            if len(face) >= 1:
                assert position[face] < position[verts]
        assert diam == (0.0 if len(verts) == 1 else
                        max(dist[a, b] for a in verts for b in verts))


def _far_apart_clusters(n, seed):
    """Three 7-vertex cliques on random vertex ids out of n, with lengths k/4
    for k in 1..40; their tetrahedra reach diameter ranks past 8."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(n, size=21, replace=False)
    edges = [(int(a), int(b), int(rng.integers(1, 41)) / 4) for g in range(3)
             for a, b in itertools.combinations(sorted(ids[7 * g:7 * g + 7]), 2)]
    profile = PrecisionProfile(R=1.0, eps0=0.0, eps1=0.0, N=n, n=n)
    return SparseLengthMatrix(edges=sorted(edges), profile=profile)


@pytest.mark.parametrize("lengths,dim_cap,past_64_bits", [
    (edge_list(full_distance_matrix(euclidean_oracle(random_cloud(64, 2, 0)))), 3, False),
    (edge_list(full_distance_matrix(euclidean_oracle(random_cloud(64, 2, 0)))), 1, False),
    (edge_list(full_distance_matrix(circle_oracle(circle_sample(32)))), 2, False),
    (_far_apart_clusters(2**15, 0), 4, True),
], ids=["cloud64", "cloud64-dim_cap1", "circle32", "sparse-2**15"])
def test_columns_hold_the_simplex_keys_in_filtration_order(lengths, dim_cap, past_64_bits):
    """``columns[d]`` decodes to the d-simplices of ``simplices``, in order;
    the edges are stored even at dim_cap 1, where they are the top
    dimension, and at n = 2**15 the stored tetrahedron keys pass 2**63."""
    filt = build_filtration(lengths, dim_cap)
    n = len(filt.columns[0])
    by_dim = [[] for _ in range(dim_cap + 1)]
    for verts, w in filt.simplices:
        by_dim[len(verts) - 1].append((verts, w))
    assert len(filt.columns) == max(dim_cap, 2)
    for d, keys in enumerate(filt.columns):
        decoded = [decode_simplex_key(key, d + 1, n) for key in keys]
        assert [(verts, filt.lengths[r]) for verts, r in decoded] == by_dim[d]
    assert (max(filt.columns[-1]) > 2**63) == past_64_bits


def test_top_dimension_is_never_stored():
    """The exact 64-point cloud at dim_cap 2: the 41,664 triangles are only
    coboundary rows, so the filtration stores none of them, and building
    plus reducing peaks at under half of the 12.5-13 MB that storing them
    took."""
    dist = full_distance_matrix(euclidean_oracle(random_cloud(64, 2, 0)))
    tracemalloc.start()
    try:
        filt = build_filtration(edge_list(dist), 2)
        reduce(filt, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.25e6
    assert len(filt.columns) == 2
    assert sum(len(verts) == 3 for verts, _d in filt.simplices) == 41664


@pytest.mark.parametrize("p", [2, 3, 5])
def test_free_pivots_keep_only_their_simplex(p):
    """The exact 64-point cloud at dim_cap 2: dimension 0 comes from
    union-find and 1,949 of the 1,953 edge columns reach a free pivot with no
    addition, so they keep no coboundary arrays; building plus reducing
    peaked at 3.2-3.6 MB when every pivot column was stored."""
    dist = full_distance_matrix(euclidean_oracle(random_cloud(64, 2, 0)))
    tracemalloc.start()
    try:
        reduce(build_filtration(edge_list(dist), 2), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0e6


def test_dimension_0_builds_no_graph():
    """The exact 64-point cloud at dim_cap 1 over Z_3: union-find reads only
    the edge keys, so neither building nor reducing builds the ranked graph,
    and the two peak at 0.12 MB, where the graph built with the filtration
    took them to 0.36 MB."""
    matrix = edge_list(full_distance_matrix(euclidean_oracle(random_cloud(64, 2, 0))))
    tracemalloc.start()
    try:
        filt = build_filtration(matrix, 1)
        reduce(filt, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2e6
    assert "adj" not in vars(filt)


@pytest.mark.parametrize("p", [2, 3])
def test_clearing_reads_the_previous_pivot_table(p):
    """The exact 32-point cloud at dim_cap 3: each dimension clears with the
    pivot table of the one below it, not a copy of it; building plus
    reducing peaks at 0.63 MB, and peaked at 0.88 MB with a copy made after
    every dimension.  (The 64-point cloud shows the same, 5.00 MB against
    7.05 MB, but runs 15 times slower under tracemalloc, 30 s on a 2-core
    machine.)"""
    dist = full_distance_matrix(euclidean_oracle(random_cloud(32, 2, 0)))
    tracemalloc.start()
    try:
        reduce(build_filtration(edge_list(dist), 3), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75e6


def test_columns_stop_at_the_largest_clique():
    """K7, the complete graph of 7 points in the plane, at dim_cap 10**5
    keeps a column list for the 7 dimensions it has simplices in, not 10**5,
    and reduces to the diagram of dim_cap 7, an H1 class included, but for
    ``max_dim``."""
    k7 = edge_list(full_distance_matrix(euclidean_oracle(random_cloud(7, 2, 2))))
    filt = build_filtration(k7, 10**5)
    assert len(filt.columns) == 7
    diag = reduce(filt, 3)
    assert diag.max_dim == 10**5 - 1
    assert diag.entries == reduce(build_filtration(k7, 7), 3).entries
    assert diag.dims() == [0, 1]


def _two_components_and_a_duplicate():
    """Points 0-3 (3 a copy of 0) and points 4-5, with no edge between the
    groups."""
    dist = [[INF] * 6 for _ in range(6)]
    for (i, j), w in {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 2.5, (0, 3): 0.0,
                      (1, 3): 1.0, (2, 3): 2.5, (4, 5): 1.5}.items():
        dist[i][j] = dist[j][i] = w
    for k in range(6):
        dist[k][k] = 0.0
    return edge_list(dist)


def test_union_find_h0_two_components_and_a_duplicate():
    """Two essential H0 classes, and the zero-length merge (edge 03) is
    dropped; the H1 cycle 0-1-2 dies as it is born."""
    filt = build_filtration(_two_components_and_a_duplicate(), 2)
    for p in (2, 3):
        diag = reduce(filt, p)
        assert diag == boundary_reduce(filt, p)
        assert diagram_to_multisets(diag, 1) == {
            0: [(0.0, 1.0), (0.0, 1.5), (0.0, 2.0), (0.0, INF), (0.0, INF)], 1: []}


def _no_cliques(*_args):
    raise AssertionError("cliques enumerated below dim_cap 3")


@pytest.mark.parametrize("lengths", [
    _two_components_and_a_duplicate(),
    edge_list(full_distance_matrix(euclidean_oracle(random_cloud(64, 2, 0)))),
], ids=["two-components", "cloud64"])
def test_dim_cap_1_enumerates_no_clique(monkeypatch, lengths):
    """At dim_cap 1, H0 is union-find over the stored sorted edges alone:
    with the clique enumerator made to raise, building and reducing still
    give boundary-matrix reduction's diagram."""
    filt = build_filtration(lengths, 1)
    expected = {p: boundary_reduce(filt, p) for p in (2, 3)}
    monkeypatch.setattr("ripsaw.persistence._cliques", _no_cliques)
    for p in (2, 3):
        assert reduce(build_filtration(lengths, 1), p) == expected[p]


def _aborted_after(err):
    """The simplex count a ``ResourceGuardError``'s message reports."""
    return int(re.search(r"aborted after (\d+) simplices", str(err.value)).group(1))


def test_memory_guard_env(monkeypatch):
    for cap, n, seed, dim_cap in [(50, 20, 2, 2), (1000, 30, 1, 3)]:
        monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", str(cap))
        dist = full_distance_matrix(euclidean_oracle(random_cloud(n, 2, seed)))
        with pytest.raises(ResourceGuardError) as err:
            build_filtration(edge_list(dist), dim_cap)
        assert _aborted_after(err) > cap


def _guard_inputs():
    oracle = euclidean_oracle(random_cloud(40, 2, 7))
    ct = tighten(build(oracle), oracle)
    sparse = sparsify(ct, oracle, make_profile(ct, eps1=0.5))
    k7 = np.ones((7, 7)) - np.eye(7)
    return [("K7", edge_list(k7)), ("cloud40-sparse", sparse)]


@pytest.mark.parametrize("dim_cap", [1, 2, 3])
def test_memory_guard_counts_the_stored_keys(monkeypatch, dim_cap):
    """``build_filtration`` counts the keys it stores: the vertices, the
    edges (stored at every dim_cap) and the cliques below the top dimension,
    which ``reduce`` generates and never stores.  The guard trips exactly one
    below that total, and below dim_cap 3 no clique is enumerated."""
    for name, lengths in _guard_inputs():
        total = sum(simplex_counts(lengths, dim_cap)[:max(dim_cap, 2)])
        if dim_cap < 3:
            monkeypatch.setattr("ripsaw.persistence._cliques", _no_cliques)
        monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", str(total))
        filt = build_filtration(lengths, dim_cap)
        assert sum(map(len, filt.columns)) == total, name
        monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", str(total - 1))
        with pytest.raises(ResourceGuardError) as err:
            build_filtration(lengths, dim_cap)
        assert _aborted_after(err) == total, name


@pytest.mark.parametrize("dim_cap", [1, 2, 3])
def test_filtration_lists_each_clique_once(dim_cap):
    """``Filtration.simplices`` holds each vertex subset that is a clique of
    the edge list, with its diameter, exactly once: as a multiset it equals
    brute force over the vertex subsets, on K7, the 40-point sparse cloud,
    five isolated points and a triangle."""
    no_edges = [[0.0 if i == j else INF for j in range(5)] for i in range(5)]
    inputs = _guard_inputs() + [("five-points", edge_list(no_edges)),
                                ("triangle", edge_list(np.ones((3, 3)) - np.eye(3)))]
    for name, lengths in inputs:
        got = sorted(build_filtration(lengths, dim_cap).simplices)
        assert got == sorted(flag_simplices(lengths, dim_cap)), name


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dim_cap", [2, 3])
def test_reduce_counts_the_rows_it_stores(monkeypatch, dim_cap, p):
    """``reduce`` goes on from the filtration's keys with the rows of each
    reduced column it keeps: a cap one below keys plus stored rows lets the
    filtration be built and trips in ``reduce``, and a cap equal to that
    total gives the diagram of the run with the cap lifted."""
    from ripsaw import persistence

    reduce_column, stored = persistence._reduce_column, []

    def counting_reduce_column(col, *args):
        low = reduce_column(col, *args)
        stored.append(len(col))  # a nonzero result is kept in the pivot table
        return low

    # K7's equal lengths leave every pivot free, so it stores no row
    inputs = [(name, lengths) for name, lengths in _guard_inputs() if name != "K7"]
    inputs.append(("exact30", edge_list(full_distance_matrix(
        euclidean_oracle(random_cloud(30, 2, 5))))))
    monkeypatch.setattr(persistence, "_reduce_column", counting_reduce_column)
    for name, lengths in inputs:
        filt = build_filtration(lengths, dim_cap)
        stored.clear()
        expected = reduce(filt, p)
        total = sum(map(len, filt.columns)) + sum(stored)
        assert sum(stored) > 0, name
        monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", str(total - 1))
        filt = build_filtration(lengths, dim_cap)
        with pytest.raises(ResourceGuardError) as err:
            reduce(filt, p)
        assert _aborted_after(err) > total - 1, name
        monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", str(total))
        assert reduce(filt, p) == expected, name
        monkeypatch.delenv("RIPSAW_MAX_SIMPLICES")


@pytest.mark.parametrize("edges,message", [
    ([(0, 1, math.nan)], r"^1: edge length nan is not a finite nonnegative number$"),
    ([(0, 1, -1.0)], r"^1: edge length -1.0 is not"),
    ([(0, 1, INF)], r"^1: edge length inf is not"),
    ([(0, 1, 0.5), (0, 1, 0.5)], r"^2: edge \(0, 1\) does not come after \(0, 1\)$"),
    ([(0, 2, 0.5), (0, 1, 0.5)], r"^2: edge \(0, 1\) does not come after \(0, 2\)$"),
    ([(0, 3, 0.5)], r"^1: edge \(0, 3\) out of range$"),
    ([(1, 0, 0.5)], r"^1: edge \(1, 0\) out of range$"),
    ([(1, 1, 0.5)], r"^1: edge \(1, 1\) out of range$"),
], ids=["nan", "negative", "inf", "repeated", "out-of-order", "j-past-size", "i-above-j",
        "loop"])
def test_malformed_edge_list_is_input_error(edges, message):
    """An edge list is checked where its matrix is built, so
    ``build_filtration`` never sees a malformed one.  Unchecked, a NaN
    length gives an H0 death of nan that ``load_diagram`` refuses, a
    repeated pair keeps its last length, a negative length shares rank 0
    with the vertices, and j >= N raises IndexError."""
    with pytest.raises(InputError, match=message):
        SparseLengthMatrix(edges=edges,
                           profile=PrecisionProfile(R=0.0, eps0=0.0, eps1=0.0, N=3, n=3))


def test_build_filtration_takes_only_a_sparse_length_matrix():
    """An object that merely has ``size`` and ``edges`` skipped the checks
    a ``SparseLengthMatrix`` makes where it is built, so it is refused."""
    with pytest.raises(InputError, match="takes a SparseLengthMatrix, not SimpleNamespace"):
        build_filtration(SimpleNamespace(size=2, edges=[(0, 1, 0.5)]), 1)


class PassCountingEdges(tuple):
    """An edge tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("dim_cap", [1, 2, 3])
def test_build_filtration_reads_the_edges_in_one_pass(dim_cap):
    """The one stable sort of ``matrix.edges`` by length is the only pass
    over them: the ranks, the lengths and the sorted edge keys come from one
    walk over the sorted list, and the graph is read off the keys."""
    matrix = edge_list(full_distance_matrix(euclidean_oracle(random_cloud(16, 2, 3))))
    expected = build_filtration(matrix, dim_cap)
    edges = PassCountingEdges(matrix.edges)
    object.__setattr__(matrix, "edges", edges)
    assert build_filtration(matrix, dim_cap) == expected
    assert edges.passes == 1


@pytest.mark.parametrize("value", ["abc", "-5", "1.5e6",
                                   pytest.param("9" * 5000, id="5000-digits")])
def test_malformed_memory_guard_env_is_input_error(monkeypatch, value):
    """5,000 digits pass ``isdecimal()`` but not ``int()``, whose default
    limit is 4,300 digits; the message names the value's length and start,
    not the whole value."""
    monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", value)
    with pytest.raises(InputError, match="RIPSAW_MAX_SIMPLICES") as err:
        build_filtration(edge_list(np.zeros((2, 2))), 1)
    assert len(str(err.value)) < 200 and f"{len(value)} characters" in str(err.value)


# --- reduction -------------------------------------------------------------------

def test_reduce_square():
    dist = full_distance_matrix(euclidean_oracle(UNIT_SQUARE))
    diag = reduce(build_filtration(edge_list(dist), 2), 2)
    got = diagram_to_multisets(diag, 1)
    assert got[0] == [(0.0, 1.0)] * 3 + [(0.0, INF)]
    assert got[1] == [(1.0, math.sqrt(2))]


def test_reduce_single_point():
    diag = reduce(build_filtration(edge_list(np.zeros((1, 1))), 1), 2)
    assert diagram_to_multisets(diag, 0) == {0: [(0.0, INF)]}


def test_reduce_circle32():
    o = circle_oracle(circle_sample(32))
    diag = reduce(build_filtration(edge_list(full_distance_matrix(o)), 2), 2)
    got = diagram_to_multisets(diag, 1)
    assert got[1] == [(1 / 32, 11 / 32)]
    assert got[0] == [(0.0, 1 / 32)] * 31 + [(0.0, INF)]


def test_reduce_rejects_composite_field():
    dist = np.zeros((2, 2))
    with pytest.raises(InputError):
        reduce(build_filtration(edge_list(dist), 1), 4)


def test_reduce_rejects_field_beyond_64_bits():
    with pytest.raises(InputError, match=r"2\*\*64"):
        reduce(build_filtration(edge_list(np.zeros((2, 2))), 1), 2**64 + 13)


def test_field_past_the_integer_string_limit_is_input_error():
    """An int whose str() the interpreter refuses (over 4,300 digits), above
    2**64 or below 2, is named by its bit length: no ValueError escapes from
    the refusal."""
    message = r"^field characteristic is not an integer prime below 2\*\*64 \(16610 bits\)$"
    for p in (10**5000, -10**5000):
        with pytest.raises(InputError, match=message):
            check_field(p)
        with pytest.raises(InputError, match=message):
            reduce(build_filtration(edge_list(np.zeros((2, 2))), 1), p)
        with pytest.raises(InputError, match=message):
            PersistenceDiagram(field_char=p, max_dim=0, entries=[])


@pytest.mark.parametrize("p", [2.0, 3.0, 2.5])
def test_non_integer_field_is_input_error(p):
    """2.0 and 3.0 used to pass as primes and write a diagram its own reader
    refuses; 2.5 ended in a TypeError."""
    with pytest.raises(InputError, match="not an integer"):
        reduce(build_filtration(edge_list(np.zeros((2, 2))), 1), p)
    with pytest.raises(InputError, match="not an integer"):
        ExplicitModule(dims=[2, 2], maps=[[[1, 1], [0, 1]]], p=p)


def test_check_field_agrees_with_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    def accepted(p):
        try:
            return check_field(p) == p
        except InputError:
            return False

    assert [p for p in range(-2, 10**4) if accepted(p) != trial(p)] == []


@pytest.mark.parametrize("p", [561, 3215031751])  # Carmichael; strong pseudoprime to 2, 3, 5, 7
def test_check_field_rejects_pseudoprimes(p):
    with pytest.raises(InputError, match=rf"not an integer prime below 2\*\*64 \(.*'{p}'\)$"):
        check_field(p)


@pytest.mark.parametrize("points,hom_cap,p", [
    (UNIT_SQUARE, 1, 2),
    (random_cloud(9, 2, 0), 1, 2),
    (random_cloud(9, 2, 1), 1, 3),
    (random_cloud(10, 3, 2), 1, 2),
    (random_cloud(7, 2, 3), 2, 2),
])
def test_reduce_matches_rank_oracle(points, hom_cap, p):
    """Column reduction agrees with the chain-level rank oracle."""
    dist = full_distance_matrix(euclidean_oracle(points))
    want = brute_force_diagram(dist, hom_cap, p)
    filt = build_filtration(edge_list(dist), hom_cap + 1)
    got = diagram_to_multisets(reduce(filt, p), hom_cap)
    assert want == got


def test_field_independence_on_torsion_free_examples():
    for oracle in (circle_oracle(circle_sample(16)),
                   euclidean_oracle(UNIT_SQUARE)):
        dist = full_distance_matrix(oracle)
        d2 = reduce(build_filtration(edge_list(dist), 2), 2)
        d3 = reduce(build_filtration(edge_list(dist), 2), 3)
        assert [(e.dim, e.birth, e.death) for e in d2.entries] == \
               [(e.dim, e.birth, e.death) for e in d3.entries]


# --- explicit modules ---------------------------------------------------------------

def test_normal_form_identity_line():
    mod = ExplicitModule(dims=[1, 1], maps=[[[1]]], p=2)
    assert normal_form(mod) == {(-1, 1): 1}
    assert normal_form(ExplicitModule(dims=[3], maps=[], p=5)) == {(-1, 0): 3}


def test_normal_form_zero_map():
    mod = ExplicitModule(dims=[1, 1], maps=[[[0]]], p=2)
    assert normal_form(mod) == {(-1, 0): 1, (0, 1): 1}
    through_zero = [np.zeros((0, 2), dtype=int), np.zeros((2, 0), dtype=int)]
    mod = ExplicitModule(dims=[2, 0, 2], maps=through_zero, p=3)
    assert normal_form(mod) == {(-1, 0): 2, (1, 2): 2}


def test_explicit_module_leaves_callers_maps_alone():
    maps = [[[3]]]
    mod = ExplicitModule(dims=[1, 1], maps=maps, p=2)
    assert maps == [[[3]]]
    assert mod.maps[0].tolist() == [[1]]


def test_normal_form_shape_validation():
    with pytest.raises(InputError):
        ExplicitModule(dims=[2, 1], maps=[[[1, 0], [0, 1]]], p=2)


@pytest.mark.parametrize("dims,maps", [
    ([1, 2], [[[1], [1, 2]]]),
    ([1, 1], [[[2**70]]]),
    ([1, 1], [[["a"]]]),
    ([1, 1], [[[1.5]]]),
    ([1, 1], [[["1"]]]),
    ([1, 1], [[[True]]]),
    ([1, 2], [[[1], [np.True_]]]),
], ids=["ragged", "beyond-int64", "not-a-number", "float", "numeric-string", "bool",
        "numpy-bool"])
def test_explicit_module_refuses_maps_that_are_not_integer_matrices(dims, maps):
    """These used to escape as numpy's ValueError or OverflowError, or to be
    read as 1 (a float, a numeric string and a bool)."""
    with pytest.raises(InputError, match="not integer matrices"):
        ExplicitModule(dims=dims, maps=maps, p=2)


@pytest.mark.parametrize("p", [1, 4, 2**61 - 1])
def test_explicit_module_refuses_field_it_cannot_compute_in(p):
    """Z_1 and Z_4 are not fields; over Z_(2**61-1) int64 products overflow."""
    maps = [[[p - 1, p - 1], [0, 1]], [[p - 1, p - 1], [p - 1, 1]]]
    with pytest.raises(InputError, match=r"not an integer prime below 2\*\*64|need p prime"):
        ExplicitModule(dims=[2, 2, 2], maps=maps, p=p)


def random_module(rng, p, max_len=6, max_dim=5):
    length = int(rng.integers(1, max_len + 1))
    dims = [int(rng.integers(0, max_dim + 1)) for _ in range(length + 1)]
    maps = [rng.integers(0, p, size=(dims[c + 1], dims[c])) for c in range(length)]
    return ExplicitModule(dims=dims, maps=maps, p=p)


def composed_ranks(mod):
    """Independent rank table via Gaussian elimination on composed maps."""
    length = mod.length
    table = np.zeros((length + 1, length + 1), dtype=np.int64)
    for s in range(length + 1):
        comp = np.eye(mod.dims[s], dtype=np.int64)
        for t in range(s, length + 1):
            if t > s:
                comp = mod.maps[t - 1] @ comp % mod.p
            table[s, t] = gauss_rank(comp.tolist(), mod.p) if comp.size else 0
    return table


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_normal_form_reproduces_ranks(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        mod = random_module(rng, p)
        counts = normal_form(mod)
        table = composed_ranks(mod)
        for s in range(mod.length + 1):
            for t in range(s, mod.length + 1):
                assert table[s, t] == sum(
                    m for (b, d), m in counts.items() if b < s <= t <= d)


def test_normal_form_basis_change_invariant():
    rng = np.random.default_rng(11)
    p = 3
    for _ in range(15):
        mod = random_module(rng, p, max_len=4, max_dim=4)
        base = normal_form(mod)
        gs = [random_invertible(rng, d, p) if d else np.zeros((0, 0), dtype=np.int64)
              for d in mod.dims]

        def inverse(a):
            n = a.shape[0]
            if n == 0:
                return a
            aug = np.concatenate([a % p, np.eye(n, dtype=np.int64)], axis=1)
            red, _piv = rref_mod(aug, p)
            return red[:, n:]

        conj = [gs[c + 1] @ mod.maps[c] @ inverse(gs[c]) % p
                for c in range(mod.length)]
        assert normal_form(ExplicitModule(dims=mod.dims, maps=conj, p=p)) == base


# --- rank table conversions -----------------------------------------------------------

def test_single_interval_rank_table():
    table = ranks_from_barcode({(1, 3): 1}, 4)
    for s in range(5):
        for t in range(s, 5):
            assert table[s, t] == (1 if 1 < s <= t <= 3 else 0)


def test_empty_barcode():
    assert not ranks_from_barcode({}, 3).any()
    assert barcode_from_ranks(np.zeros((4, 4), dtype=int)) == {}


def test_rank_barcode_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(60):
        length = int(rng.integers(1, 9))
        bars = {}
        for _k in range(int(rng.integers(0, 11))):
            b = int(rng.integers(-1, length))
            d = int(rng.integers(b + 1, length + 1))
            bars[(b, d)] = bars.get((b, d), 0) + 1
        assert barcode_from_ranks(ranks_from_barcode(bars, length)) == bars


def test_inconsistent_rank_table_rejected():
    bad = np.zeros((3, 3), dtype=int)
    bad[1, 2] = 1  # persists 1 -> 2 but invisible at (1,1): impossible
    with pytest.raises(InputError):
        barcode_from_ranks(bad)


# --- diagram serialization --------------------------------------------------------------

def test_diagram_json_roundtrip(tmp_path):
    dist = full_distance_matrix(euclidean_oracle(random_cloud(12, 2, 4)))
    diag = reduce(build_filtration(edge_list(dist), 2), 2)
    path = tmp_path / "diag.json"
    dump_diagram(path, diag, PrecisionProfile(R=1.0, eps0=0.0, eps1=0.0, N=12, n=12),
                 {"dim": 1})
    back, profile = load_diagram(path)
    assert back == diag
    assert profile.n == 12
    # strict JSON (inf encoded as a string)
    json.loads(path.read_text())


def test_diagram_meta_holds_only_what_is_given(tmp_path):
    diag = PersistenceDiagram(field_char=3, max_dim=0, entries=[DiagramEntry(0, 0.0, INF)])
    profile = PrecisionProfile(R=1.0, eps0=0.0, eps1=0.5, N=1, n=1)
    path = tmp_path / "diag.json"
    dump_diagram(path, diag, profile, {"command": "persist"})
    assert json.loads(path.read_text())["meta"] == {"profile": profile.as_meta(),
                                                    "config": {"command": "persist"}}
    assert load_diagram(path) == (diag, profile)


@pytest.mark.parametrize("field,max_dim,entries,message", [
    (4, 0, [], "field characteristic is not an integer prime below 2**64 (1 character: '4')"),
    (2, 0, [DiagramEntry(0, math.nan, 1.0)], "bad diagram entry: dim 0, birth nan, death 1.0"),
    (2, 0, [DiagramEntry(0, INF, INF)], "bad diagram entry: dim 0, birth inf, death inf"),
    (2, 0, [DiagramEntry(0, 0.5, 0.25)], "bad diagram entry: dim 0, birth 0.5, death 0.25"),
    (2, -1, [], "diagram max_dim -1 is below 0 or an entry's dim"),
    (2, 0, [DiagramEntry(1, 0.0, 1.0)], "diagram max_dim 0 is below 0 or an entry's dim"),
], ids=["field-4", "nan-birth", "inf-birth", "death-below-birth", "max-dim-negative",
        "max-dim-below-entry"])
def test_diagram_refuses_invalid_values_where_built(field, max_dim, entries, message):
    with pytest.raises(InputError) as exc:
        PersistenceDiagram(field_char=field, max_dim=max_dim, entries=entries)
    assert str(exc.value) == message


def test_checked_values_cannot_change_after_construction():
    """Each type checked where it is built stays as checked: no field can be
    reassigned, and each sequence field is a tuple that cannot grow."""
    oracle = euclidean_oracle(UNIT_SQUARE[:3])
    ct = tighten(build(oracle), oracle)
    profile = make_profile(ct, eps1=0.25)
    matrix = sparsify(ct, oracle, profile)
    diag = reduce(build_filtration(matrix, 1), 2)
    for value, sequences in [(ct, ("order", "parent", "times")), (profile, ()),
                             (matrix, ("edges",)), (diag, ("entries",))]:
        for field in dataclasses.fields(value):
            with pytest.raises(AttributeError):
                setattr(value, field.name, getattr(value, field.name))
        for name in sequences:
            with pytest.raises(AttributeError):
                getattr(value, name).append((0, 2, math.nan))


@pytest.mark.parametrize("profile,message", [
    ({"n": 4, "N": 4, "eps0": 0.0, "eps1": -1, "R": 1.0}, "profile out of range"),
    ({"n": 4, "N": 4, "eps0": 0.0, "R": 1.0}, "profile has no 'eps1' key"),
    ({"n": 4, "N": 4.5, "eps0": 0.0, "eps1": 0.5, "R": 1.0}, "malformed profile"),
    (None, "malformed profile"),
], ids=["negative-eps1", "no-eps1", "fractional-N", "null"])
def test_load_diagram_refuses_bad_profile_naming_the_file(tmp_path, profile, message):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"field": 2, "max_dim": 0, "entries": [],
                                "meta": {"profile": profile}}))
    with pytest.raises(InputError) as exc:
        load_diagram(path)
    assert str(exc.value).startswith(f"{path}: {message}")
