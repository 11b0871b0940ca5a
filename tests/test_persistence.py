import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    boundary_reduce,
    brute_force_diagram,
    diagram_to_multisets,
    full_distance_matrix,
    gauss_rank,
    random_invertible,
)
from ripsaw import (
    ExplicitModule,
    InputError,
    PersistenceDiagram,
    ResourceGuardError,
    barcode_from_ranks,
    build_filtration,
    circle_oracle,
    circle_sample,
    euclidean_oracle,
    normal_form,
    random_cloud,
    ranks_from_barcode,
    reduce,
)
from ripsaw.modules import rref_mod
from ripsaw.persistence import dump_diagram, is_prime, load_diagram

INF = math.inf
UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]


# --- filtration enumeration -----------------------------------------------------

def test_filtration_k3():
    dist = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    filt = build_filtration(dist, 2)
    by_dim = {}
    for verts, diam in filt.simplices:
        by_dim.setdefault(len(verts) - 1, []).append((verts, diam))
    assert len(by_dim[0]) == 3 and all(d == 0.0 for _v, d in by_dim[0])
    assert len(by_dim[1]) == 3 and all(d == 1.0 for _v, d in by_dim[1])
    assert by_dim[2] == [((0, 1, 2), 1.0)]


def test_filtration_blocked_clique():
    dist = np.array([[0, INF, 1], [INF, 0, 1], [1, 1, 0]], dtype=float)
    filt = build_filtration(dist, 2)
    dims = [len(v) - 1 for v, _d in filt.simplices]
    assert dims.count(1) == 2
    assert dims.count(2) == 0


def test_filtration_square_dim_cap_1():
    dist = full_distance_matrix(euclidean_oracle(UNIT_SQUARE))
    filt = build_filtration(dist, 1)
    edges = sorted(d for v, d in filt.simplices if len(v) == 2)
    assert len([v for v, _d in filt.simplices if len(v) == 1]) == 4
    assert edges == [1.0, 1.0, 1.0, 1.0, math.sqrt(2), math.sqrt(2)]


def test_filtration_order_is_linear_extension():
    dist = full_distance_matrix(euclidean_oracle(random_cloud(10, 2, 0)))
    filt = build_filtration(dist, 2)
    position = {v: k for k, (v, _d) in enumerate(filt.simplices)}
    for verts, diam in filt.simplices:
        for drop in range(len(verts)):
            face = verts[:drop] + verts[drop + 1:]
            if len(face) >= 1:
                assert position[face] < position[verts]
        assert diam == (0.0 if len(verts) == 1 else
                        max(dist[a, b] for a in verts for b in verts))


def test_filtration_list_equals_ndarray():
    dist = full_distance_matrix(euclidean_oracle(random_cloud(8, 2, 4)))
    assert build_filtration(dist.tolist(), 2) == build_filtration(dist, 2)


@pytest.mark.parametrize("bad", [
    [[0.0, 1.0]],
    np.zeros((2, 3)),
    [0.0, 1.0],
    [[0.0, 1.0], [1.0]],
    np.zeros((2, 2, 2)),
])
def test_filtration_rejects_non_square(bad):
    with pytest.raises(InputError):
        build_filtration(bad, 1)


def test_top_dimension_is_never_stored():
    """The exact 64-point cloud at dim_cap 2: the 41,664 triangles are only
    coboundary rows, so the filtration stores none of them, and building
    plus reducing peaks at under half of the 12.5-13 MB that storing them
    took."""
    dist = full_distance_matrix(euclidean_oracle(random_cloud(64, 2, 0)))
    tracemalloc.start()
    try:
        filt = build_filtration(dist, 2)
        reduce(filt, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.25e6
    assert max(len(verts) for verts, _d in filt.columns) == 2
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
        reduce(build_filtration(dist, 2), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0e6


def test_union_find_h0_two_components_and_a_duplicate():
    """Points 0-3 (3 a copy of 0, so edge 03 has length 0) and points 4-5,
    with no edge between the groups: two essential H0 classes, and the
    zero-length merge is dropped; the H1 cycle 0-1-2 dies as it is born."""
    dist = [[INF] * 6 for _ in range(6)]
    for (i, j), w in {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 2.5, (0, 3): 0.0,
                      (1, 3): 1.0, (2, 3): 2.5, (4, 5): 1.5}.items():
        dist[i][j] = dist[j][i] = w
    for k in range(6):
        dist[k][k] = 0.0
    filt = build_filtration(dist, 2)
    for p in (2, 3):
        diag = reduce(filt, p)
        assert diag == boundary_reduce(filt, p)
        assert diagram_to_multisets(diag, 1) == {
            0: [(0.0, 1.0), (0.0, 1.5), (0.0, 2.0), (0.0, INF), (0.0, INF)], 1: []}


def test_memory_guard_env(monkeypatch):
    for cap, n, seed, dim_cap in [(50, 20, 2, 2), (1000, 30, 1, 3)]:
        monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", str(cap))
        dist = full_distance_matrix(euclidean_oracle(random_cloud(n, 2, seed)))
        with pytest.raises(ResourceGuardError) as err:
            build_filtration(dist, dim_cap)
        assert err.value.count > cap


@pytest.mark.parametrize("value", ["abc", "-5", "1.5e6"])
def test_malformed_memory_guard_env_is_input_error(monkeypatch, value):
    monkeypatch.setenv("RIPSAW_MAX_SIMPLICES", value)
    with pytest.raises(InputError, match="RIPSAW_MAX_SIMPLICES"):
        build_filtration(np.zeros((2, 2)), 1)


# --- reduction -------------------------------------------------------------------

def test_reduce_square():
    dist = full_distance_matrix(euclidean_oracle(UNIT_SQUARE))
    diag = reduce(build_filtration(dist, 2), 2)
    got = diagram_to_multisets(diag, 1)
    assert got[0] == [(0.0, 1.0)] * 3 + [(0.0, INF)]
    assert got[1] == [(1.0, math.sqrt(2))]


def test_reduce_single_point():
    diag = reduce(build_filtration(np.zeros((1, 1)), 1), 2)
    assert diagram_to_multisets(diag, 0) == {0: [(0.0, INF)]}


def test_reduce_circle32():
    o = circle_oracle(circle_sample(32))
    diag = reduce(build_filtration(full_distance_matrix(o), 2), 2)
    got = diagram_to_multisets(diag, 1)
    assert got[1] == [(1 / 32, 11 / 32)]
    assert got[0] == [(0.0, 1 / 32)] * 31 + [(0.0, INF)]


def test_reduce_rejects_composite_field():
    dist = np.zeros((2, 2))
    with pytest.raises(InputError):
        reduce(build_filtration(dist, 1), 4)


def test_reduce_rejects_field_beyond_64_bits():
    with pytest.raises(InputError, match=r"2\*\*64"):
        reduce(build_filtration(np.zeros((2, 2)), 1), 2**64 + 13)


def test_is_prime_agrees_with_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert [p for p in range(-2, 10**4) if is_prime(p) != trial(p)] == []


@pytest.mark.parametrize("p", [561, 3215031751])  # Carmichael; strong pseudoprime to 2, 3, 5, 7
def test_is_prime_rejects_pseudoprimes(p):
    assert not is_prime(p)


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
    got = diagram_to_multisets(reduce(build_filtration(dist, hom_cap + 1), p), hom_cap)
    assert want == got


def test_field_independence_on_torsion_free_examples():
    for oracle in (circle_oracle(circle_sample(16)),
                   euclidean_oracle(UNIT_SQUARE)):
        dist = full_distance_matrix(oracle)
        d2 = reduce(build_filtration(dist, 2), 2)
        d3 = reduce(build_filtration(dist, 2), 3)
        assert [(e.dim, e.birth, e.death) for e in d2.entries] == \
               [(e.dim, e.birth, e.death) for e in d3.entries]


# --- explicit modules ---------------------------------------------------------------

def test_normal_form_identity_line():
    mod = ExplicitModule(dims=[1, 1], maps=[[[1]]], p=2)
    assert normal_form(mod) == {(-1, 1): 1}


def test_normal_form_zero_map():
    mod = ExplicitModule(dims=[1, 1], maps=[[[0]]], p=2)
    assert normal_form(mod) == {(-1, 0): 1, (0, 1): 1}


def test_normal_form_shape_validation():
    with pytest.raises(InputError):
        ExplicitModule(dims=[2, 1], maps=[[[1, 0], [0, 1]]], p=2)


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


@pytest.mark.parametrize("p", [2, 3])
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
    diag = reduce(build_filtration(dist, 2), 2)
    path = tmp_path / "diag.json"
    dump_diagram(path, diag, meta={"profile": {"n": 12, "N": 12, "eps0": 0.0,
                                               "eps1": 0.0, "R": 1.0}})
    back, meta = load_diagram(path)
    assert back == diag
    assert meta["profile"]["n"] == 12
    # strict JSON (inf encoded as a string)
    json.loads(path.read_text())


def test_diagram_text_dump():
    diag = PersistenceDiagram(field_char=2, entries=[])
    dist = full_distance_matrix(euclidean_oracle(UNIT_SQUARE))
    diag = reduce(build_filtration(dist, 2), 2)
    lines = diag.to_text().strip().splitlines()
    assert lines[0].split() == ["0", "0.0", "1.0"]
    assert lines[3].split() == ["0", "0.0", "inf"]
