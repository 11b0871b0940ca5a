import math
import re

import pytest

from helpers import brute_force_parent, n_of_t, project
from ripsaw import (
    InputError,
    build,
    contraction_violations,
    density_violations,
    euclidean_oracle,
    find_parent,
    matrix_oracle,
    random_cloud,
    read_tree,
    solenoid_sample,
    tighten,
    write_tree,
)
from ripsaw.covertree import ContractionTree, CoverTree
from ripsaw.generators import write_points_csv
from ripsaw.metric import load_input

INF = math.inf


def line_oracle(xs):
    return euclidean_oracle([(x,) for x in xs])


# --- insertion ---------------------------------------------------------------

def test_build_rejects_nothing_and_handles_single_point():
    tree = build(line_oracle([7.0]))
    assert tree.size == 1
    assert tree.parent == [-1]


def test_build_invalid_candidate_skipped():
    # inserting 1: candidate at 10 is invalid since d=9 > d(10, root)/2 = 5
    tree = build(line_oracle([0.0, 10.0, 1.0]))
    assert tree.parent[2] == 0
    assert 2.0 * tree.parent_dist[2] == 2.0


def test_build_duplicate_points():
    tree = build(line_oracle([3.0, 3.0]))
    assert tree.parent[1] == 0
    assert 2.0 * tree.parent_dist[1] == 0.0


def test_find_parent_root_only():
    oracle = line_oracle([0.0, 4.0])
    tree = build(line_oracle([0.0]))
    assert find_parent(tree, oracle, 1) == (0, 4.0)


def test_find_parent_zero_distance():
    oracle = line_oracle([0.0, 1.0, 1.0])
    tree = build(line_oracle([0.0, 1.0]))
    node, dist = find_parent(tree, oracle, 2)
    assert dist == 0.0
    assert node == 1


def test_children_sorted_descending_by_radius():
    for seed in range(5):
        oracle = euclidean_oracle(random_cloud(120, 2, seed))
        tree = build(oracle)
        for node_children in tree.children:
            radii = [2.0 * tree.parent_dist[c] for c in node_children]
            assert radii == sorted(radii, reverse=True)


@pytest.mark.parametrize("seed", range(4))
def test_find_parent_matches_brute_force(seed):
    """Pruned search equals the exhaustive argmin at every insertion step."""
    pts = random_cloud(200, 2, seed)
    oracle = euclidean_oracle(pts)
    tree = CoverTree()
    for x in range(1, 200):
        got = find_parent(tree, oracle, x)
        want = brute_force_parent(tree, oracle, x)
        assert got == want
        tree.add(*got)


def test_halving_invariant():
    for seed in range(3):
        oracle = euclidean_oracle(random_cloud(150, 3, seed))
        tree = build(oracle)
        for x in range(1, tree.size):
            p = tree.parent[x]
            assert tree.parent_dist[x] <= tree.parent_dist[p] / 2.0


# --- tightening --------------------------------------------------------------

def chain_tree():
    # root at 0, then 2 away, then child 1 further; d(x2, x0) = 2.5 via matrix
    oracle = matrix_oracle([2.0, 2.5, 1.0])
    tree = build(oracle)
    assert tree.parent == [-1, 0, 1]
    return tree, oracle


def test_tighten_chain_reaches():
    tree, oracle = chain_tree()
    ct = tighten(tree, oracle)
    assert ct.order == (0, 1, 2)
    assert ct.times == (INF, 2.5, 1.0)
    assert ct.max_reach == 2.5


def test_tighten_single_point():
    oracle = line_oracle([0.0])
    ct = tighten(build(oracle), oracle)
    assert ct.order == (0,)
    assert ct.times == (INF,)
    assert ct.max_reach == 0.0


def test_tighten_star_orders_far_leaf_first():
    oracle = line_oracle([0.0, 3.0, -5.0])
    tree = build(oracle)
    assert tree.parent == [-1, 0, 0]
    ct = tighten(tree, oracle)
    assert ct.order == (0, 2, 1)
    assert ct.times == (INF, 5.0, 3.0)


def test_tighten_lifts_a_reach_to_a_child_spread_above_it():
    """Points 0, 1 and -1, with 1 under the root and -1 under 1: the spread
    of 1 is 1, that of -1 is d(-1, 1) = 2, so the reach of 1 is lifted to 2
    and 1 still precedes -1.  ``build`` never makes such a tree: a child's
    spread is at most twice its parent distance, which is at most the
    parent's."""
    oracle = line_oracle([0.0, 1.0, -1.0])
    tree = CoverTree()
    tree.add(0, 1.0)
    tree.add(1, 2.0)
    ct = tighten(tree, oracle)
    assert (ct.order, ct.parent, ct.times) == ((0, 1, 2), (-1, 0, 1), (INF, 2.0, 2.0))


def test_tighten_never_exceeds_a_priori_radius():
    for seed in range(5):
        oracle = euclidean_oracle(random_cloud(200, 2, seed))
        tree = build(oracle)
        ct = tighten(tree, oracle)
        pos = {orig: k for k, orig in enumerate(ct.order)}
        for x in range(1, tree.size):
            assert ct.times[pos[x]] <= 2.0 * tree.parent_dist[x]


# --- construction --------------------------------------------------------------

VALID_TREE = dict(order=[0, 1, 2, 3], parent=[-1, 0, 0, 1], times=[INF, 3.0, 2.0, 1.0])


@pytest.mark.parametrize("field,value,message", [
    ("order", [0, 1, 1, 3], "node indices are not exactly 0..3"),
    ("order", [0, 1, 2, 4], "node indices are not exactly 0..3"),
    ("order", [], "at least one node"),
    ("parent", [-1, 0, 0], "4 nodes, 3 parents"),
    ("parent", [0, 0, 0, 1], "root has parent 0"),
    ("parent", [-1, 0, 2, 1], "parent position 2, not in 0..1"),
    ("parent", [-1, 0, 0, -1], "parent position -1, not in 0..2"),
    ("times", [5.0, 3.0, 2.0, 1.0], "root has parent -1 and time 5.0"),
    ("times", [INF, INF, 2.0, 1.0], "contraction time is inf"),
    ("times", [INF, 3.0, math.nan, 1.0], "contraction time is nan"),
    ("times", [INF, 3.0, 2.0, -1.0], "contraction time is -1.0"),
    ("times", [INF, 2.0, 3.0, 1.0], "times increase at position 2"),
])
def test_contraction_tree_refuses_an_invalid_shape(field, value, message):
    """Every tree is checked where it is built: by hand, by ``tighten`` or
    by ``read_tree``."""
    ContractionTree(**VALID_TREE)
    with pytest.raises(InputError, match=re.escape(message)):
        ContractionTree(**dict(VALID_TREE, **{field: value}))


# --- projections and time lookup ----------------------------------------------

def test_project():
    ct = ContractionTree(**VALID_TREE)
    assert project(ct, 3, 1) == 1
    assert project(ct, 2, 2) == 2
    for x in range(4):
        assert project(ct, x, 0) == 0


def test_n_of_t():
    ct = ContractionTree(order=list(range(5)), parent=[-1, 0, 1, 1, 0],
                         times=[INF, 5.0, 3.0, 3.0, 1.0])
    assert n_of_t(ct, 4.0) == 1
    assert n_of_t(ct, 0.0) == 4
    assert n_of_t(ct, 3.0) == 3
    assert n_of_t(ct, INF) == 0


# --- invariants ---------------------------------------------------------------

@pytest.mark.parametrize("seed,n,dim", [(0, 300, 2), (1, 300, 3), (2, 500, 2)])
def test_density_and_contraction(seed, n, dim):
    oracle = euclidean_oracle(random_cloud(n, dim, seed))
    ct = tighten(build(oracle), oracle)
    assert density_violations(ct, oracle) == []
    assert contraction_violations(ct, oracle) == []


def test_contraction_helper_matches_literal_definition():
    """The optimized scan equals the quadratic all-(x, t) check."""
    oracle = euclidean_oracle(random_cloud(60, 2, 9))
    ct = tighten(build(oracle), oracle)
    assert contraction_violations(ct, oracle) == []
    for t in ct.times:
        if t == INF:
            continue
        n = n_of_t(ct, t)
        for x in range(ct.size):
            proj = project(ct, x, n)
            assert oracle.eval(ct.order[x], ct.order[proj]) <= t


def test_density_violations_stop_at_limit():
    """Times raised tenfold break the density bound for many pairs; the scan
    stops at ``limit``, with the first pairs of the full scan."""
    oracle = euclidean_oracle(random_cloud(30, 2, 0))
    ct = tighten(build(oracle), oracle)
    raised = ContractionTree(order=ct.order, parent=ct.parent,
                             times=[10.0 * t for t in ct.times])
    every = density_violations(raised, oracle, limit=30 * 29)
    assert len(every) > 3
    assert density_violations(raised, oracle, limit=3) == every[:3]


def test_density_on_solenoid():
    pts = solenoid_sample(400, seed=3)
    oracle = euclidean_oracle(pts)
    ct = tighten(build(oracle), oracle)
    assert density_violations(ct, oracle) == []


# --- serialization --------------------------------------------------------------

def test_tree_roundtrip_bytes(tmp_path):
    """``read_tree`` reads the input under the format the config records and
    returns its oracle with the tree; rewriting the tree is byte-exact."""
    csv = tmp_path / "a.csv"
    write_points_csv(csv, random_cloud(80, 2, 4))
    oracle, digest = load_input(csv, "points")
    ct = tighten(build(oracle), oracle)
    p1, p2 = tmp_path / "a.tree", tmp_path / "b.tree"
    config = {"format": "points", "seed": 4}
    write_tree(p1, ct, digest, config)
    back, back_oracle = read_tree(p1, csv)
    assert back == ct
    assert [back_oracle.eval(0, j) for j in range(80)] == [oracle.eval(0, j) for j in range(80)]
    write_tree(p2, back, digest, config)
    assert p1.read_bytes() == p2.read_bytes()


def test_build_deterministic():
    oracle = euclidean_oracle(random_cloud(100, 2, 8))
    a = tighten(build(oracle), oracle)
    b = tighten(build(oracle), oracle)
    assert a == b


def test_read_tree_rejects_garbage(tmp_path):
    csv, bad = tmp_path / "one.csv", tmp_path / "bad.tree"
    csv.write_text("0.5\n")
    _oracle, digest = load_input(csv, "points")
    bad.write_text(f'n 2\n# config {{"digest": "{digest}", "format": "points"}}\n0 -1 inf\n')
    with pytest.raises(InputError, match="header says 2 nodes, found 1"):
        read_tree(bad, csv)
    bad.write_text("nonsense\n")
    with pytest.raises(InputError):
        read_tree(bad, csv)
