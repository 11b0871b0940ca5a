import dataclasses
import math

import numpy as np
import pytest

from helpers import implied_lengths, n_of_t, project, q_inv, simplex_counts
from ripsaw import (
    InputError,
    PrecisionProfile,
    build,
    circle_oracle,
    contraction_violations,
    euclidean_oracle,
    make_profile,
    matrix_oracle,
    random_cloud,
    read_sparse,
    read_tree,
    solenoid_sample,
    sparsify,
    tighten,
    write_sparse,
    write_tree,
)
from ripsaw.covertree import ContractionTree
from ripsaw.generators import circle_sample, write_points_csv
from ripsaw.metric import Oracle, load_input
from ripsaw.sparsify import SparseLengthMatrix

INF = math.inf


def cloud_tree(n, seed, dim=2):
    oracle = euclidean_oracle(random_cloud(n, dim, seed))
    return tighten(build(oracle), oracle), oracle


# --- profiles ------------------------------------------------------------------

def rad_tree():
    # contraction times [inf, 5, 3, 1] on a path
    return ContractionTree(order=[0, 1, 2, 3], parent=[-1, 0, 1, 2],
                           times=[INF, 5.0, 3.0, 1.0])


def test_make_profile_no_truncation():
    profile = make_profile(rad_tree(), eps1=0.25)
    assert profile.cutoffs(rad_tree()) == [INF, 50.0, 30.0, 10.0]
    assert profile.eps0 == 0.0
    assert profile.R == 5.0


def test_make_profile_truncated():
    profile = make_profile(rad_tree(), keep=3, eps1=0.25)
    assert profile.eps0 == 2.0
    assert len(profile.cutoffs(rad_tree())) == 3


def test_make_profile_eps1_zero_keeps_everything():
    profile = make_profile(rad_tree(), eps1=0.0)
    assert profile.cutoffs(rad_tree()) == [INF, INF, INF, INF]


def test_make_profile_rejects_bad_keep():
    with pytest.raises(InputError):
        make_profile(rad_tree(), keep=0)
    with pytest.raises(InputError):
        make_profile(rad_tree(), keep=5)


@pytest.mark.parametrize("options", [
    dict(keep=2.9), dict(keep=True), dict(keep="3"), dict(keep=3.0),
    dict(eps1=True), dict(eps1="0.5"), dict(eps1=None), dict(eps1=10**400)],
    ids=["keep-2.9", "keep-True", "keep-str", "keep-3.0",
         "eps1-True", "eps1-str", "eps1-None", "eps1-past-float"])
def test_make_profile_refuses_values_it_would_coerce(options):
    """Converted with int(), ``keep=2.9`` would keep 2 points and
    ``keep=True`` 1."""
    with pytest.raises(InputError, match="make_profile: "):
        make_profile(rad_tree(), **options)


def test_make_profile_takes_an_int_eps1():
    assert make_profile(rad_tree(), keep=3, eps1=1) == make_profile(rad_tree(), keep=3, eps1=1.0)


@pytest.mark.parametrize("eps1", [0.0, 5e-324, 1e-300, 0.5, 1e300])
@pytest.mark.parametrize("eps0", [0.0, 5e-324, 1e-300, 0.5, 1e300])
def test_psi_inv_maps_inf_to_inf(eps0, eps1):
    """psi_inv has no case for inf: each of its formulas gives inf for it,
    however small or large eps0 and eps1 are."""
    profile = PrecisionProfile(R=1.0, eps0=eps0, eps1=eps1, N=1, n=1)
    assert profile.psi_inv(INF) == INF


VALID = dict(R=5.0, eps0=0.5, eps1=0.25, N=3, n=4)


@pytest.mark.parametrize("field,value", [
    ("R", -1.0), ("R", math.nan), ("R", INF),
    ("eps0", -0.1), ("eps0", math.nan), ("eps0", INF),
    ("eps1", -1.0), ("eps1", math.nan), ("eps1", INF),
    ("N", 0), ("N", 5),
])
def test_profile_rejects_out_of_range(field, value):
    PrecisionProfile(**VALID)
    with pytest.raises(InputError, match="profile out of range"):
        PrecisionProfile(**dict(VALID, **{field: value}))
    with pytest.raises(InputError, match="profile out of range"):
        dataclasses.replace(PrecisionProfile(**VALID), **{field: value})


@pytest.mark.parametrize("keep,eps1,T", [
    (None, 0.0, None), (None, 0.25, None), (3, 0.5, 2.0), (1, 100.0, 0.0)])
def test_profile_meta_roundtrip(keep, eps1, T):
    """A profile reads back from its meta, also with the "T": null that files
    written before truncation was removed carry; a meta recording a numeric
    truncation T would need another psi, so it is refused."""
    p = make_profile(rad_tree(), keep=keep, eps1=eps1)
    assert PrecisionProfile.from_meta(p.as_meta()) == p
    meta = dict(p.as_meta(), T=T)
    if T is None:
        assert PrecisionProfile.from_meta(meta) == p
    else:
        with pytest.raises(InputError, match="truncated profile"):
            PrecisionProfile.from_meta(meta)


def test_cutoffs_refuse_other_tree():
    ct, _oracle = cloud_tree(5, 0)
    with pytest.raises(InputError, match="different tree"):
        make_profile(rad_tree(), eps1=0.5).cutoffs(ct)


@pytest.mark.parametrize("m", [20, 40])
def test_sparsify_refuses_oracle_of_another_size(m):
    """A 30-node tree with an oracle of fewer or more points is refused, not
    sparsified over the first 30 of them or past the oracle's end."""
    ct, _oracle = cloud_tree(30, 1)
    other = euclidean_oracle(random_cloud(m, 2, 2))
    with pytest.raises(InputError, match=f"tree has 30 nodes but input has {m} points"):
        sparsify(ct, other, make_profile(ct, eps1=0.5))


def test_psi_values():
    profile = PrecisionProfile(R=10.0, eps0=0.1, eps1=0.25, N=4, n=4)
    assert profile.psi(0.2) == pytest.approx(0.3)
    assert profile.psi(1.0) == pytest.approx(1.25)
    assert profile.psi(100.0) == math.nextafter(10.0, INF)  # just above R
    assert profile.psi(INF) == INF


def test_psi_monotone_and_dominates_identity_below_R():
    profile = PrecisionProfile(R=8.0, eps0=0.3, eps1=0.5, N=9, n=9)
    grid = [0.01 * k for k in range(801)]
    values = [profile.psi(r) for r in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v >= r for r, v in zip(grid, values))


@pytest.mark.parametrize("eps0,eps1", [(0.0, 0.0), (0.2, 0.0), (0.0, 0.5), (0.3, 0.25)])
def test_psi_inverse_identity_on_attained_range(eps0, eps1):
    profile = PrecisionProfile(R=50.0, eps0=eps0, eps1=eps1, N=5, n=5)
    for k in range(1, 400):
        x = profile.psi(0.03 * k)
        if x < 50.0 and x > eps0:
            assert profile.psi(profile.psi_inv(x)) == pytest.approx(x, abs=1e-12)


def test_q_inv_matches_piecewise():
    profile = PrecisionProfile(R=10.0, eps0=2.0, eps1=0.25, N=3, n=4)
    # branches meet at eps0/2 = 1 and (2 + 2/eps1) * eps0/2 = 10
    assert q_inv(profile, 0.5) == 0.5
    assert q_inv(profile, 1.0) == 1.0
    assert q_inv(profile, 5.0) == 1.0
    assert q_inv(profile, 10.0) == 1.0
    assert q_inv(profile, 20.0) == 2.0


# --- dispatch cases --------------------------------------------------------------

def dispatch_fixture(cutoffs, d01, d02, d12):
    # eps1 = 1 makes q(t) = 4t exact, so times of cutoff / 4 give these cutoffs
    tree = ContractionTree(order=[0, 1, 2], parent=[-1, 0, 1],
                           times=[t / 4.0 for t in cutoffs])
    oracle = matrix_oracle([d01, d02, d12])
    profile = make_profile(tree, eps1=1.0)
    assert profile.cutoffs(tree) == cutoffs
    return tree, oracle, profile


def test_case_b_edge_missing():
    # pair (0, 2): cutoff 3 <= d(x0, parent x2) = 5
    tree, oracle, profile = dispatch_fixture([INF, 6.0, 3.0], 5.0, 4.9, 1.0)
    imp = implied_lengths(tree, oracle, profile)
    assert imp.missing[0, 2]
    assert imp.lbar[0, 2] == 5.0
    edges = sparsify(tree, oracle, profile).edges
    assert (0, 2, 4.9) not in edges


def test_case_c_edge_missing():
    # pair (0, 2): d(x0, parent x2) = 2 < cutoff 3 < d(x0, x2) = 4
    tree, oracle, profile = dispatch_fixture([INF, 3.0, 3.0], 2.0, 4.0, 1.0)
    imp = implied_lengths(tree, oracle, profile)
    assert imp.missing[0, 2]
    assert imp.lbar[0, 2] == 3.0


def test_case_d_edge_kept():
    # pair (0, 2): cutoff 5 >= max(4, 2)
    tree, oracle, profile = dispatch_fixture([INF, 5.0, 5.0], 2.0, 4.0, 1.0)
    imp = implied_lengths(tree, oracle, profile)
    assert not imp.missing[0, 2]
    assert imp.lbar[0, 2] == 4.0
    assert (0, 2, 4.0) in sparsify(tree, oracle, profile).edges


def test_case_d_wins_tie_with_case_b():
    # cutoff of node 2 equals d(x0, parent x2) exactly and covers d(x0, x2):
    # the edge stays (keeping parent edges of zero-reach duplicates possible)
    tree, oracle, profile = dispatch_fixture([INF, 5.0, 3.0], 3.0, 2.0, 1.0)
    imp = implied_lengths(tree, oracle, profile)
    assert not imp.missing[0, 2]
    assert (0, 2, 2.0) in sparsify(tree, oracle, profile).edges


def test_duplicate_point_keeps_parent_edge():
    oracle = euclidean_oracle([(0.0, 0.0), (0.0, 0.0)])
    ct = tighten(build(oracle), oracle)
    profile = make_profile(ct, eps1=0.25)
    assert profile.cutoffs(ct) == [INF, 0.0]
    matrix = sparsify(ct, oracle, profile)
    assert matrix.edges == ((0, 1, 0.0),)
    imp = implied_lengths(ct, oracle, profile)
    assert matrix.edges == imp.kept_edges()


def test_duplicate_point_connected_at_eps1_zero():
    oracle = euclidean_oracle([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    ct = tighten(build(oracle), oracle)
    profile = make_profile(ct, eps1=0.0)
    assert profile.cutoffs(ct) == [INF, INF, INF]
    assert len(sparsify(ct, oracle, profile).edges) == 3


# --- structural invariants ---------------------------------------------------------

def counting(oracle):
    """``oracle`` and a list that grows by one item per evaluation."""
    calls = []

    def length(i, j):
        calls.append((i, j))
        return oracle.eval(i, j)
    return Oracle(oracle.size, length), calls


def lowered(ct, start, factor):
    """``ct`` with the times from index ``start`` on scaled by ``factor`` < 1:
    still a valid shape, but its cutoffs may drop parent edges."""
    times = ct.times[:start] + tuple(t * factor for t in ct.times[start:])
    return ContractionTree(order=ct.order, parent=ct.parent, times=times)


@pytest.mark.parametrize("source,eps1,keep,lower", [
    pytest.param(0, 0.25, None, None, id="0-0.25"),
    pytest.param(1, 0.25, None, None, id="1-0.25"),
    pytest.param(0, 1.0, None, None, id="0-1.0"),
    pytest.param(2, 0.5, None, None, id="2-0.5"),
    pytest.param(3, 0.0, None, None, id="3-0.0"),
    pytest.param(4, 4.0, None, None, id="4-4.0"),
    pytest.param(5, 0.25, 25, None, id="5-0.25-keep25"),
    pytest.param(6, 1.0, 12, None, id="6-1.0-keep12"),
    pytest.param("circle36", 0.25, None, None, id="circle36-0.25"),
    pytest.param("circle36", 1.0, 20, None, id="circle36-1.0-keep20"),
    pytest.param(0, 1.0, None, (8, 0.1), id="0-1.0-lowered-from-8"),
    pytest.param(1, 0.25, None, (15, 0.04), id="1-0.25-lowered-from-15"),
    pytest.param(2, 0.5, 30, (5, 0.05), id="2-0.5-keep30-lowered-from-5"),
    pytest.param("circle36", 1.0, None, (10, 0.1), id="circle36-1.0-lowered-from-10"),
])
def test_pruned_traversal_equals_full_recursion(source, eps1, keep, lower):
    """The kept edges are those of the full recursion, also on trees whose
    lowered times drop parent edges, and d(x_i, x_j) is evaluated exactly
    for the pairs whose parent pair is kept with length <= cutoff[j]."""
    if source == "circle36":
        oracle = circle_oracle(circle_sample(36))
        ct = tighten(build(oracle), oracle)
    else:
        ct, oracle = cloud_tree(40, source)
    if lower is not None:
        ct = lowered(ct, *lower)
    profile = make_profile(ct, keep=keep, eps1=eps1)
    counted, calls = counting(oracle)
    matrix = sparsify(ct, counted, profile)
    imp = implied_lengths(ct, oracle, profile)
    assert matrix.edges == imp.kept_edges()
    cutoff = profile.cutoffs(ct)
    expected = sum(i == ct.parent[j] or (not imp.missing[i, ct.parent[j]]
                                         and imp.lbar[i, ct.parent[j]] <= cutoff[j])
                   for j in range(1, profile.N) for i in range(j))
    assert len(calls) == expected


def test_contraction_violations_witness_a_lowered_tree():
    """Times cut to a tenth from index 8 on keep the tree's shape but break
    its contraction bound: each witness (x, t) is a point farther than t
    from its projection onto the nodes of time >= t, and the scan stops at
    ``limit``, with the first witnesses of the full scan."""
    ct, oracle = cloud_tree(40, 0)
    low = lowered(ct, 8, 0.1)
    every = contraction_violations(low, oracle, limit=40 * 40)
    assert len(every) > 2
    for x, t in every:
        assert oracle.eval(low.order[x], low.order[project(low, x, n_of_t(low, t))]) > t
    assert contraction_violations(low, oracle, limit=2) == every[:2]


def test_edges_are_exact_distances_and_sparse():
    ct, oracle = cloud_tree(50, 3)
    profile = make_profile(ct, eps1=0.25)
    cutoffs = profile.cutoffs(ct)
    matrix = sparsify(ct, oracle, profile)
    for i, j, w in matrix.edges:
        assert i < j
        assert w == oracle.eval(ct.order[i], ct.order[j])
        assert w <= cutoffs[j]


def test_parent_edges_always_present():
    for keep in (50, 30):
        ct, oracle = cloud_tree(50, 6)
        profile = make_profile(ct, keep=keep, eps1=0.25)
        edge_set = {(i, j) for i, j, _w in sparsify(ct, oracle, profile).edges}
        for j in range(1, keep):
            assert (ct.parent[j], j) in edge_set


def test_eps1_zero_keeps_all_edges():
    ct, oracle = cloud_tree(30, 7)
    profile = make_profile(ct, eps1=0.0)
    matrix = sparsify(ct, oracle, profile)
    assert len(matrix.edges) == 30 * 29 // 2


def test_lbar_below_sparse_lengths_and_radius_bound():
    ct, oracle = cloud_tree(40, 8)
    profile = make_profile(ct, eps1=0.5)
    imp = implied_lengths(ct, oracle, profile)
    for i, j, w in sparsify(ct, oracle, profile).edges:
        assert imp.lbar[i, j] == w
    for x in range(1, 40):
        assert imp.lbar[0, x] <= profile.R


def test_truncation_restricts_indices():
    ct, oracle = cloud_tree(40, 9)
    profile = make_profile(ct, keep=15, eps1=0.25)
    matrix = sparsify(ct, oracle, profile)
    assert matrix.profile.N == 15
    assert all(j < 15 for _i, j, _w in matrix.edges)


def test_truncated_complexes_agree_at_their_scale():
    """Restricted to points with cutoff >= r, the kept-edge graph below r and
    the implied-length graph below r coincide."""
    ct, oracle = cloud_tree(35, 11)
    profile = make_profile(ct, eps1=0.5)
    cutoffs = profile.cutoffs(ct)
    imp = implied_lengths(ct, oracle, profile)
    kept = {(i, j): w for i, j, w in sparsify(ct, oracle, profile).edges}
    edge_lengths = sorted({w for w in kept.values()})
    for r in edge_lengths[:: max(1, len(edge_lengths) // 20)]:
        live = [k for k in range(35) if cutoffs[k] >= r]
        for a in live:
            for b in live:
                if a >= b:
                    continue
                in_sparse = (a, b) in kept and kept[(a, b)] < r
                in_implied = imp.lbar[a, b] < r
                assert in_sparse == in_implied


# --- size ---------------------------------------------------------------------------

SIZE_EPS1 = (1.0, 0.5, 0.25)


@pytest.mark.parametrize("make,edges,edge_growth,eval_growth", [
    pytest.param(lambda n: solenoid_sample(n, seed=0),
                 {500: (5169, 9955, 21474), 1000: (10480, 20660, 46640),
                  2000: (21033, 42237, 97847)}, 1.2, 1.3, id="solenoid"),
    pytest.param(lambda n: random_cloud(n, 2, 0),
                 {500: (6836, 13748, 28657), 1000: (15515, 32416, 73472),
                  2000: (33651, 72192, 173043)}, 1.6, 1.6, id="cloud"),
])
def test_sparse_size_is_linear_in_n(make, edges, edge_growth, eval_growth):
    """The kept edges at eps1 1.0 / 0.5 / 0.25 for n = 500, 1000, 2000, and
    per point both they and the oracle evaluations of ``build`` plus
    ``sparsify`` grow by at most a fixed factor from n=500 to n=2000.
    Measured growth: edges 1.02 / 1.06 / 1.14 (solenoid) and 1.23 / 1.31 /
    1.51 (cloud), evaluations 1.27 / 1.24 / 1.23 and 1.39 / 1.40 / 1.51."""
    edges_per_point, evals_per_point = {}, {}
    for n in edges:
        oracle = euclidean_oracle(make(n))
        counted, calls = counting(oracle)
        tree = build(counted)
        built = len(calls)
        ct = tighten(tree, oracle)
        kept = []
        for eps1 in SIZE_EPS1:
            calls.clear()
            kept.append(len(sparsify(ct, counted, make_profile(ct, eps1=eps1)).edges))
            edges_per_point[n, eps1] = kept[-1] / n
            evals_per_point[n, eps1] = (built + len(calls)) / n
        assert tuple(kept) == edges[n]
    for eps1 in SIZE_EPS1:
        assert edges_per_point[2000, eps1] <= edge_growth * edges_per_point[500, eps1]
        assert evals_per_point[2000, eps1] <= eval_growth * evals_per_point[500, eps1]


# --- simplex counting ---------------------------------------------------------------

def fake_matrix(n, edges):
    profile = PrecisionProfile(R=1.0, eps0=0.0, eps1=0.0, N=n, n=n)
    return SparseLengthMatrix(edges=sorted(edges), profile=profile)


def test_count_simplices_vertices_only():
    assert simplex_counts(fake_matrix(5, []), 2) == [5, 0, 0]


def test_count_simplices_triangle():
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
    assert simplex_counts(fake_matrix(3, edges), 2) == [3, 3, 1]


def test_count_simplices_complete_graph():
    n = 7
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    counts = simplex_counts(fake_matrix(n, edges), 3)
    assert counts == [math.comb(n, k + 1) for k in range(4)]


# --- files ------------------------------------------------------------------------

def test_sparse_file_roundtrip(tmp_path):
    ct, oracle = cloud_tree(30, 12)
    profile = make_profile(ct, keep=25, eps1=0.5)
    matrix = sparsify(ct, oracle, profile)
    path = tmp_path / "edges.sparse"
    write_sparse(path, matrix, config={"eps1": 0.5})
    back = read_sparse(path)
    assert back.profile.N == matrix.profile.N
    assert back.edges == matrix.edges
    assert back.profile.as_meta() == matrix.profile.as_meta()
    assert (tmp_path / "edges.meta.json").exists()


@pytest.mark.parametrize("case", ["numpy-oracle", "int-lengths", "extreme-floats"])
def test_row_files_read_back_what_they_wrote(tmp_path, case):
    """``write_sparse`` then ``read_sparse``, and ``write_tree`` then
    ``read_tree``, give back the values written whatever number type holds
    them: the numpy floats of an oracle (any object with ``size`` and
    ``eval``), int lengths, and floats at the ends of their range.  Writing
    what was read gives the same bytes."""
    csv = tmp_path / "p.csv"
    write_points_csv(csv, random_cloud(6, 2, 0))
    oracle, digest = load_input(csv, "points")
    if case == "numpy-oracle":
        numpy_oracle = Oracle(oracle.size, lambda i, j: np.float64(oracle.eval(i, j)))
        ctree = tighten(build(numpy_oracle), numpy_oracle)
        matrix = sparsify(ctree, numpy_oracle, make_profile(ctree, eps1=0.5))
        assert isinstance(ctree.times[1], np.float64) and isinstance(matrix.edges[0][2], np.float64)
    else:
        lengths = [3, 2, 2, 1, 0] if case == "int-lengths" else [
            1.7976931348623157e308, 1e16, 1e-05, 5e-324, -0.0]
        ctree = ContractionTree(order=range(6), parent=range(-1, 5), times=[INF, *lengths])
        matrix = SparseLengthMatrix(edges=[(k, k + 1, w) for k, w in enumerate(lengths)],
                                    profile=PrecisionProfile(R=1.0, eps0=0.0, eps1=0.0, N=6, n=6))
    first, second = tmp_path / "a.sparse", tmp_path / "b.sparse"
    write_sparse(first, matrix, {"case": case})
    assert read_sparse(first) == matrix
    write_sparse(second, read_sparse(first), {"case": case})
    assert first.read_bytes() == second.read_bytes()
    first, second = tmp_path / "a.tree", tmp_path / "b.tree"
    write_tree(first, ctree, digest, {"format": "points"})
    assert read_tree(first, csv)[0] == ctree
    write_tree(second, read_tree(first, csv)[0], digest, {"format": "points"})
    assert first.read_bytes() == second.read_bytes()


def test_unsorted_edges_are_refused_where_the_matrix_is_built():
    """The matrix holds its edges in (i, j) order, so neither ``write_sparse``
    nor ``read_sparse`` sorts them; edges in another order make no matrix."""
    profile = PrecisionProfile(R=1.0, eps0=0.0, eps1=0.0, N=3, n=3)
    with pytest.raises(InputError, match=r"^2: edge \(0, 2\) does not come after \(1, 2\)$"):
        SparseLengthMatrix(edges=[(1, 2, 0.5), (0, 2, 0.25), (0, 1, 1.0)], profile=profile)


def test_read_sparse_requires_sidecar(tmp_path):
    path = tmp_path / "lonely.sparse"
    path.write_text("0 1 0.5\n")
    with pytest.raises(InputError):
        read_sparse(path)
