"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s to see them).  Tolerances and budgets are fixed here,
not tuned at run time."""

import math
import time

import numpy as np

from explicit_modules import ExplicitModule, barcode_from_ranks, normal_form, ranks_from_barcode
from helpers import brute_force_parent, edge_list, gauss_rank, implied_lengths, q_inv
from ripsaw import (
    build,
    build_filtration,
    circle_oracle,
    circle_sample,
    cli,
    contraction_violations,
    density_violations,
    euclidean_oracle,
    make_profile,
    random_cloud,
    reduce,
    solenoid_sample,
    sparsify,
    tighten,
)
from ripsaw.covertree import CoverTree

INF = math.inf

# frozen on first run of the 2000-point solenoid corpus (seed 0, eps1 = 0.25)
SOLENOID_2000_EDGE_COUNT = 97847


def test_criterion_1_circle_exactness():
    """32 equispaced circle points: H1 = (1/32, 11/32], H0 = 31 short bars
    plus one essential class; exact to 1e-12 and under a second."""
    start = time.perf_counter()
    oracle = circle_oracle(circle_sample(32))
    dist = np.array([[oracle.eval(i, j) for j in range(32)] for i in range(32)])
    diagram = reduce(build_filtration(edge_list(dist), 2), 2)
    elapsed = time.perf_counter() - start

    h1 = diagram.pairs(1)
    assert len(h1) == 1
    assert abs(h1[0][0] - 0.03125) <= 1e-12
    assert abs(h1[0][1] - 0.34375) <= 1e-12
    h0 = diagram.pairs(0)
    finite = [pair for pair in h0 if pair[1] != INF]
    assert len(finite) == 31
    assert all(b == 0.0 and abs(d - 0.03125) <= 1e-12 for b, d in finite)
    assert [pair for pair in h0 if pair[1] == INF] == [(0.0, INF)]
    assert elapsed < 1.0
    print(f"criterion 1 PASS: circle-32 exact (H1 = (1/32, 11/32]), {elapsed:.2f}s")


def test_criterion_2_density_and_contraction():
    """Tightened trees satisfy the density bound d(x_i, x_j) >= t_j/4 and the
    contraction bound d(x, project(x, n(t))) <= t, exhaustively."""
    start = time.perf_counter()
    corpora = []
    for seed in range(10):
        corpora.append(euclidean_oracle(random_cloud(500, 2, seed)))
        corpora.append(euclidean_oracle(random_cloud(500, 3, 100 + seed)))
    corpora.append(euclidean_oracle(solenoid_sample(2000, seed=0)))
    for oracle in corpora:
        ct = tighten(build(oracle), oracle)
        assert density_violations(ct, oracle, limit=1) == []
        assert contraction_violations(ct, oracle, limit=1) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 2 PASS: density/contraction on 21 corpora, {elapsed:.1f}s")


def test_criterion_3_implied_length_bounds():
    """Implied lengths obey lbar <= d + max(eps0, eps1*d) and
    d >= lbar - 2*q_inv(lbar) on every pair, to 1e-9."""
    tol = 1e-9
    checked = 0
    for seed in range(20):
        oracle = euclidean_oracle(random_cloud(40, 2, seed))
        ct = tighten(build(oracle), oracle)
        for eps1 in (0.25, 0.5, 1.0):
            profile = make_profile(ct, eps1=eps1)
            imp = implied_lengths(ct, oracle, profile)
            for i in range(40):
                for j in range(i + 1, 40):
                    d = oracle.eval(ct.order[i], ct.order[j])
                    lbar = imp.lbar[i, j]
                    assert lbar <= d + max(profile.eps0, profile.eps1 * d) + tol
                    assert d >= lbar - 2.0 * q_inv(profile, lbar) - tol
                    checked += 1
    print(f"criterion 3 PASS: implied-length bounds on {checked} pairs")


def test_criterion_4_end_to_end_interleaving(tmp_path):
    """Full vs sparsified diagrams verify as psi-interleaved through the CLI
    for 20 seeded clouds and eps1 in {0.25, 1.0}; under two minutes."""
    from ripsaw.generators import write_points_csv

    start = time.perf_counter()
    passes = 0
    for seed in range(20):
        n = 30 if seed % 2 else 40
        pts = random_cloud(n, 2, 1000 + seed)
        base = tmp_path / f"c{seed}"
        csv = base.with_suffix(".csv")
        write_points_csv(csv, pts)
        tree = base.with_suffix(".tree")
        assert cli.main(["tree", "--input", str(csv), "--out", str(tree)]) == 0
        full_sparse = base.with_suffix(".full.sparse")
        full_diag = base.with_suffix(".full.json")
        assert cli.main(["sparsify", "--input", str(csv), "--tree", str(tree),
                         "--eps1", "0", "--out", str(full_sparse)]) == 0
        assert cli.main(["persist", "--input", str(full_sparse), "--dim", "1",
                         "--field", "2", "--out", str(full_diag)]) == 0
        for eps1 in (0.25, 1.0):
            sp = base.with_suffix(f".e{eps1}.sparse")
            dg = base.with_suffix(f".e{eps1}.json")
            assert cli.main(["sparsify", "--input", str(csv), "--tree", str(tree),
                             "--eps1", str(eps1), "--out", str(sp)]) == 0
            assert cli.main(["persist", "--input", str(sp), "--dim", "1",
                             "--field", "2", "--out", str(dg)]) == 0
            assert cli.main(["verify", str(full_diag), str(dg)]) == 0
            passes += 1
    elapsed = time.perf_counter() - start
    assert passes == 40
    assert elapsed < 120.0
    print(f"criterion 4 PASS: 40/40 verified interleavings, {elapsed:.1f}s")


def test_criterion_5_sparsification_effect():
    """2000-point solenoid at eps1 = 0.25 keeps well under 30% of all edges;
    the exact count is pinned as a regression value."""
    pts = solenoid_sample(2000, seed=0)
    oracle = euclidean_oracle(pts)
    ct = tighten(build(oracle), oracle)
    profile = make_profile(ct, eps1=0.25)
    matrix = sparsify(ct, oracle, profile)
    full = 2000 * 1999 // 2
    assert len(matrix.edges) <= 0.30 * full
    assert len(matrix.edges) == SOLENOID_2000_EDGE_COUNT
    print(f"criterion 5 PASS: {len(matrix.edges)} of {full} edges "
          f"({len(matrix.edges) / full:.2%})")


def test_criterion_6_normal_form_vs_ranks():
    """200 random explicit modules: interval multiplicities reproduce the
    independently computed rank table exactly; rank<->barcode round-trips."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        length = int(rng.integers(1, 7))
        dims = [int(rng.integers(0, 6)) for _ in range(length + 1)]
        maps = [rng.integers(0, 2, size=(dims[c + 1], dims[c])) for c in range(length)]
        mod = ExplicitModule(dims=dims, maps=maps, p=2)
        counts = normal_form(mod)
        for s in range(length + 1):
            comp = np.eye(dims[s], dtype=np.int64)
            for t in range(s, length + 1):
                if t > s:
                    comp = mod.maps[t - 1] @ comp % 2
                want = gauss_rank(comp.tolist(), 2) if comp.size else 0
                got = sum(m for (b, d), m in counts.items() if b < s <= t <= d)
                assert want == got
        assert barcode_from_ranks(ranks_from_barcode(counts, length)) == counts
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 6 PASS: 200 modules, {elapsed:.1f}s")


def test_criterion_7_pruned_search_equivalence():
    """Every parent search over 200 random insertions equals the exhaustive
    argmin, node and distance, under the lowest-index tie rule."""
    from ripsaw import find_parent

    oracle = euclidean_oracle(random_cloud(200, 2, 424242))
    tree = CoverTree()
    agree = 0
    for x in range(1, 200):
        got = find_parent(tree, oracle, x)
        want = brute_force_parent(tree, oracle, x)
        assert got == want
        tree.add(*got)
        agree += 1
    assert agree == 199
    print("criterion 7 PASS: 199/199 insertions match brute force")


def test_criterion_8_format_fidelity(tmp_path):
    """The sparse file round-trips to a bit-identical diagram JSON."""
    from ripsaw import read_sparse, write_sparse
    from ripsaw.persistence import dump_diagram

    pts = random_cloud(40, 2, 77)
    oracle = euclidean_oracle(pts)
    ct = tighten(build(oracle), oracle)
    profile = make_profile(ct, keep=35, eps1=0.25)
    matrix = sparsify(ct, oracle, profile)

    direct = tmp_path / "direct.json"
    dump_diagram(direct, reduce(build_filtration(matrix, 2), 2), matrix.profile, {})

    path = tmp_path / "m.sparse"
    write_sparse(path, matrix, {"keep": 35, "eps1": 0.25})
    reread = read_sparse(path)
    again = tmp_path / "again.json"
    dump_diagram(again, reduce(build_filtration(reread, 2), 2), reread.profile, {})
    assert direct.read_bytes() == again.read_bytes()
    print("criterion 8 PASS: bit-identical diagram JSON after file round-trip")
