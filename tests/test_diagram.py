import math
from types import SimpleNamespace

import pytest

from helpers import prim_h0, rank_at
from ripsaw import (
    InputError,
    PersistenceDiagram,
    PrecisionProfile,
    alive,
    approximate,
    build,
    build_filtration,
    circle_oracle,
    circle_sample,
    euclidean_oracle,
    make_profile,
    match_diagrams,
    random_cloud,
    read_sparse,
    reduce,
    related,
    solenoid_sample,
    sparsify,
    tighten,
    verify_interleaving,
    write_sparse,
)
from ripsaw.persistence import DiagramEntry

INF = math.inf

identity = lambda r: r  # noqa: E731
scale_125 = lambda r: 1.25 * r  # noqa: E731


def diag(entries, p=2):
    """A diagram over Z_p of ``entries`` (dim, birth, death), each of dim 0 or 1."""
    return PersistenceDiagram(
        field_char=p, max_dim=1,
        entries=[DiagramEntry(dim=d, birth=b, death=dd) for d, b, dd in entries])


# --- error rectangles ---------------------------------------------------------

def test_approximate_identity_profile_degenerates():
    profile = PrecisionProfile(R=10.0, eps0=0.0, eps1=0.0, N=4, n=4)
    d = diag([(0, 0.0, 1.0), (1, 0.5, 2.0), (0, 0.0, INF)])
    approx = approximate(d, profile)
    assert [(e.dim, e.birth, e.death) for e in approx] == \
        [(e.dim, e.birth, e.death) for e in d.entries]
    for e in approx:
        assert e.rect == (e.birth, e.birth, e.death, e.death)
        assert e.definite  # every surviving entry has death > birth


def test_approximate_possible_entry():
    profile = PrecisionProfile(R=10.0, eps0=0.1, eps1=0.25, N=9, n=9)
    approx = approximate(diag([(1, 1.0, 1.2)]), profile)
    assert not approx[0].definite


def test_approximate_definite_entry_rectangle():
    profile = PrecisionProfile(R=10.0, eps0=0.1, eps1=0.25, N=9, n=9)
    (e,) = approximate(diag([(1, 1.0, 2.0)]), profile)
    assert e.definite
    # corners recomputed by inverting psi: psi(0.8) = 1.0 and psi(1.6) = 2.0
    assert e.rect == pytest.approx((0.8, 1.0, 1.6, 2.0))
    assert profile.psi(e.rect[0]) == pytest.approx(1.0)
    assert profile.psi(e.rect[2]) == pytest.approx(2.0)


def test_approximate_essential_entry():
    profile = PrecisionProfile(R=10.0, eps0=0.1, eps1=0.25, N=9, n=9)
    (e,) = approximate(diag([(0, 0.0, INF)]), profile)
    assert e.essential and e.definite
    assert e.rect[2] == INF and e.rect[3] == INF


# --- relatedness / aliveness ----------------------------------------------------

def test_related_identity_means_equality():
    assert related((1.0, 3.0), (1.0, 3.0), identity)
    assert not related((1.0, 3.0), (1.0, 3.1), identity)
    assert not related((1.0, 3.0), (0.9, 3.0), identity)


def test_related_expansive():
    assert related((1.0, 3.0), (1.1, 3.2), scale_125)


def test_related_fails_on_late_death():
    assert not related((1.0, 3.0), (1.1, 4.5), scale_125)


def test_alive():
    assert alive((1.0, 1.0), identity)
    assert alive((1.0, 1.5), scale_125)       # 1.25 <= 1.5
    assert not alive((1.0, 1.2), scale_125)   # 1.25 > 1.2


def test_alive_infinite_death():
    assert alive((1.0, INF), scale_125)


# --- matching ---------------------------------------------------------------------

def test_match_identical_diagrams():
    entries = [(0.0, 1.0), (0.5, 2.0), (0.0, INF)]
    res = match_diagrams(entries, entries, identity)
    assert res.ok
    assert sorted(res.pairs) == [(0, 0), (1, 1), (2, 2)]


def test_match_leaves_short_entry_unmatched():
    psi = lambda r: 1.5 * r + 0.2  # noqa: E731
    entries_v = [(1.0, 3.0), (0.4, 0.5)]  # second is below psi: not alive
    entries_w = [(1.2, 3.5)]
    res = match_diagrams(entries_v, entries_w, psi)
    assert res.ok
    assert res.pairs == [(0, 0)]


def test_match_reports_uncovered_alive():
    psi = lambda r: r + 0.1  # noqa: E731
    entries_v = [(1.0, 5.0)]
    entries_w = [(3.0, 3.05)]
    res = match_diagrams(entries_v, entries_w, psi)
    assert not res.ok
    assert res.uncovered_alive_v == [0]


def test_definite_rectangles_lower_bound_exact_ranks():
    """Definite rectangles fully inside {b < s, d >= t} never outnumber the
    exact diagram's rank there."""
    pts = random_cloud(30, 2, 21)
    oracle = euclidean_oracle(pts)
    ct = tighten(build(oracle), oracle)
    full_profile = make_profile(ct, eps1=0.0)
    full = reduce(build_filtration(sparsify(ct, oracle, full_profile), 2), 2)
    profile = make_profile(ct, eps1=0.5)
    sparse = reduce(build_filtration(sparsify(ct, oracle, profile), 2), 2)
    approx = approximate(sparse, profile)
    for dim in (0, 1):
        exact_pairs = full.pairs(dim)
        rects = [e for e in approx if e.dim == dim and e.definite]
        grid = sorted({v for b, d in exact_pairs for v in (b, d) if v != INF}
                      | {e.birth for e in rects} | {0.05, 0.2})
        for s in grid:
            for t in grid:
                if s > t:
                    continue
                inside = sum(1 for e in rects if e.rect[1] < s and e.rect[2] >= t)
                assert inside <= rank_at(exact_pairs, s, t)


def test_match_properties_on_random_pipeline():
    """Every pair related, injective, all alive entries covered."""
    pts = random_cloud(35, 2, 17)
    oracle = euclidean_oracle(pts)
    ct = tighten(build(oracle), oracle)
    full_profile = make_profile(ct, eps1=0.0)
    full = reduce(build_filtration(sparsify(ct, oracle, full_profile), 2), 2)
    profile = make_profile(ct, eps1=0.5)
    sparse = reduce(build_filtration(sparsify(ct, oracle, profile), 2), 2)
    for dim in (0, 1):
        pv, pw = full.pairs(dim), sparse.pairs(dim)
        res = match_diagrams(pv, pw, profile.psi)
        assert res.ok
        seen_v, seen_w = set(), set()
        for iv, jw in res.pairs:
            assert related(pv[iv], pw[jw], profile.psi)
            assert iv not in seen_v and jw not in seen_w
            seen_v.add(iv)
            seen_w.add(jw)


def test_cover_matching_frees_a_partner_that_is_not_alive():
    """The alive V entry first takes W entry 0, which is not alive; covering
    the alive W entry 1 must move it over."""
    from ripsaw.diagram import cover_matching

    res = cover_matching([[0, 1]], [0], [1], 2)
    assert res.ok and res.pairs == [(0, 1)]


def test_cover_matching_against_exhaustive_feasibility():
    """On random small graphs, cover_matching succeeds exactly when some
    injective matching covering both required sets exists (checked by
    exhaustive search), and its output is a valid covering matching of
    maximum size."""
    from itertools import permutations

    from ripsaw.diagram import cover_matching
    from helpers import splitmix_draw

    def feasible(adjacency, alive_v, alive_w, n_w):
        # brute force: try all injective maps from V vertices to W slots
        n_v = len(adjacency)
        slots = list(range(n_w)) + [None] * n_v
        for perm in permutations(slots, n_v):
            used = [w for w in perm if w is not None]
            if len(set(used)) != len(used):
                continue
            if any(perm[v] is None for v in alive_v):
                continue
            if any(perm[v] is not None and perm[v] not in adjacency[v]
                   for v in range(n_v)):
                continue
            if any(w not in perm for w in alive_w):
                continue
            return True
        return False

    def max_matching_size(adjacency, n_w):
        best = 0
        for perm in permutations(list(range(n_w)) + [None] * len(adjacency),
                                 len(adjacency)):
            used = [w for w in perm if w is not None]
            if (len(set(used)) == len(used)
                    and all(w is None or w in adjacency[v] for v, w in enumerate(perm))):
                best = max(best, len(used))
        return best

    for seed in range(120):
        n_v = 1 + int(splitmix_draw(seed, 0) * 5)
        n_w = 1 + int(splitmix_draw(seed, 1) * 5)
        adjacency = [
            [w for w in range(n_w) if splitmix_draw(seed, 10 + v * n_w + w) < 0.4]
            for v in range(n_v)
        ]
        alive_v = [v for v in range(n_v) if splitmix_draw(seed, 99 + v) < 0.5]
        alive_w = [w for w in range(n_w) if splitmix_draw(seed, 777 + w) < 0.5]
        res = cover_matching(adjacency, alive_v, alive_w, n_w)
        assert res.ok == feasible(adjacency, alive_v, alive_w, n_w), seed
        assert len(res.pairs) == max_matching_size(adjacency, n_w), seed
        seen_w = set()
        for v, w in res.pairs:
            assert w in adjacency[v]
            assert w not in seen_w
            seen_w.add(w)
        if res.ok:
            matched_v = {v for v, _w in res.pairs}
            assert set(alive_v) <= matched_v
            assert set(alive_w) <= seen_w


def test_cover_matching_walks_a_long_alternating_path():
    """Vertex i is adjacent to W entries i-1 and i, so matching vertex i
    first walks an alternating path through every earlier vertex; a search
    that recursed once per step would exhaust the interpreter's stack."""
    from ripsaw.diagram import cover_matching

    n = 1200
    adjacency = [[i - 1, i] if i else [0] for i in range(n)]
    res = cover_matching(adjacency, range(n), range(n), n)
    assert res.ok and res.pairs == [(i, i) for i in range(n)]


# --- rank queries -------------------------------------------------------------------

def test_rank_at():
    entries = [(1.0, 3.0)]
    assert rank_at(entries, 2.0, 2.5) == 1
    assert rank_at(entries, 1.0, 3.0) == 0  # birth bound is strict
    assert rank_at([], 1.0, 2.0) == 0


def test_rank_at_validates():
    with pytest.raises(InputError):
        rank_at([], 2.0, 1.0)


def test_rank_at_on_diagram_pairs():
    d = diag([(0, 0.0, 2.0), (1, 0.5, 3.0)])
    assert rank_at(d.pairs(0), 1.0, 1.5) == 1
    assert rank_at(d.pairs(1), 1.0, 1.5) == 1


def _random_pairs(seed, salt=0):
    """Up to 11 (birth, death) pairs on a quarter grid: tied values, and an
    infinite death one time in ten."""
    from helpers import splitmix_draw

    pairs = []
    for k in range(int(splitmix_draw(seed, salt) * 12)):
        b = int(splitmix_draw(seed, salt + 2 * k + 1) * 8) / 4
        gap = int(splitmix_draw(seed, salt + 2 * k + 2) * 10)
        pairs.append((b, INF if gap == 9 else b + gap / 4))
    return pairs


def _h0_pairs(seed, salt):
    """An H0-shaped diagram: every birth 0.0, up to 8 deaths on a half grid
    (so deaths tie), and one or two infinite deaths."""
    from helpers import splitmix_draw

    finite = [(0.0, 0.5 + int(splitmix_draw(seed, salt + k + 2) * 6) / 2)
              for k in range(int(splitmix_draw(seed, salt) * 9))]
    return finite + [(0.0, INF)] * (1 + int(splitmix_draw(seed, salt + 1) * 2))


# --- interleaving verification --------------------------------------------------------

def test_verify_refuses_diagrams_over_two_fields():
    d = diag([(1, 1.0, 3.0)])
    with pytest.raises(InputError, match="field characteristics differ: 2 vs 3"):
        verify_interleaving(d, diag([(1, 1.0, 3.0)], p=3),
                            SimpleNamespace(psi=identity, psi_inv=identity))


@pytest.mark.parametrize("psi, first_drop", [
    (lambda r: -r, "from -1.0 to -2.0"),
    (lambda r: r if r < 4.0 else r - 2.5, "from 3.0 to 2.5"),
], ids=["at-once", "past-three-grid-values"])
def test_verify_refuses_a_decreasing_shift(psi, first_drop):
    """psi is checked on the whole grid before any cell is scanned, and the
    refusal names the first pair of grid values where it goes down."""
    d = diag([(1, 1.0, 3.0), (1, 2.0, 5.0)])
    with pytest.raises(InputError, match=f"went down {first_drop}: .* nondecreasing"):
        verify_interleaving(d, d, SimpleNamespace(psi=psi, psi_inv=identity))


def test_verify_witnesses_equal_a_scan_with_rank_at():
    """On random diagram pairs, most of them not interleaved, the witnesses
    are those of the plain scan: every grid cell (s, t) with s <= t, s
    ascending, then t, counted by ``rank_at``, stopping after the cell that
    brings the count to MAX_WITNESSES.  The pairs come as ``_random_pairs``
    and as H0-shaped diagrams, each under an affine shift, under a profile
    capped at R, whose psi is flat on the grid past R, and under psi = id."""
    from ripsaw.diagram import MAX_WITNESSES, _grid

    affine = SimpleNamespace(psi=lambda r: 1.25 * r + 0.125,
                             psi_inv=lambda r: max(0.0, (r - 0.125) / 1.25))
    capped_at_r = PrecisionProfile(R=1.5, eps0=0.125, eps1=0.25, N=9, n=9)
    shifts = (affine, capped_at_r, SimpleNamespace(psi=identity, psi_inv=identity))
    cases = [(_random_pairs(seed), _random_pairs(seed, salt=100), profile, seed)
             for profile in shifts for seed in range(40)]
    cases += [(_h0_pairs(seed, 0), _h0_pairs(seed, 50), profile, seed)
              for profile in shifts for seed in range(20)]
    capped = 0
    for pv, pw, profile, seed in cases:
        psi = profile.psi
        grid = _grid([v for pair in pv + pw for v in pair], profile.psi_inv)
        expected = []
        for s, t in ((s, t) for s in grid for t in grid + [INF] if s <= t):
            if s <= psi(t) and rank_at(pw, s, psi(t)) > rank_at(pv, s, t):
                expected.append((1, s, t, rank_at(pw, s, psi(t)), rank_at(pv, s, t)))
            if psi(s) <= t and rank_at(pv, s, t) > rank_at(pw, psi(s), t):
                expected.append((2, s, t, rank_at(pv, s, t), rank_at(pw, psi(s), t)))
            if len(expected) >= MAX_WITNESSES:
                break
        capped += len(expected) >= MAX_WITNESSES
        report = verify_interleaving(diag([(1, b, d) for b, d in pv]),
                                     diag([(1, b, d) for b, d in pw]), profile)
        rep = report.dimensions.get(1)
        got = [(w.inequality, w.s, w.t, w.lhs, w.rhs) for w in rep.rank_violations] if rep else []
        assert got == expected, (pv, pw, profile, seed)
    assert capped >= 10


def test_verify_pins_the_witnesses_of_a_failing_case():
    """Both inequalities fail, in grid order: s ascending, then t."""
    delta = 0.125
    dv = diag([(1, 1.0, 3.0), (1, 2.0, 2.5)])
    dw = diag([(1, 1.25, 3.0), (1, 2.0, 2.75)])
    report = verify_interleaving(
        dv, dw, SimpleNamespace(psi=lambda r: r + delta, psi_inv=lambda r: r - delta))
    rep = report.dimensions[1]
    assert [(w.inequality, w.s, w.t, w.lhs, w.rhs) for w in rep.rank_violations] == (
        [(2, 1.125, t, 1, 0)
         for t in (1.25, 1.75, 1.875, 2.0, 2.25, 2.375, 2.5, 2.625, 2.75, 2.875, 3.0)]
        + [(1, s, 2.625, 2, 1) for s in (2.25, 2.375, 2.5, 2.625)])
    assert rep.matching.pairs == [] and rep.matching.uncovered_alive_w == [0, 1]


def test_verify_self_identity():
    d = diag([(0, 0.0, 1.0), (0, 0.0, INF), (1, 0.3, 0.9)])
    report = verify_interleaving(d, d, SimpleNamespace(psi=identity, psi_inv=identity))
    assert report.passed


def test_verify_shift_absorbed():
    delta = 0.125
    dv = diag([(1, 1.0, 3.0)])
    dw = diag([(1, 1.0 + delta, 3.0)])
    report = verify_interleaving(
        dv, dw, SimpleNamespace(psi=lambda r: r + delta, psi_inv=lambda r: r - delta))
    assert report.passed


def test_verify_double_shift_fails_with_witness():
    delta = 0.125
    dv = diag([(1, 1.0, 3.0)])
    dw = diag([(1, 1.0 + 2 * delta, 3.0)])
    report = verify_interleaving(
        dv, dw, SimpleNamespace(psi=lambda r: r + delta, psi_inv=lambda r: r - delta))
    assert not report.passed
    rep = report.dimensions[1]
    assert rep.rank_violations or not rep.matching.ok
    if rep.rank_violations:
        w = rep.rank_violations[0]
        assert w.lhs > w.rhs


def test_verify_inflated_death_fails():
    profile = PrecisionProfile(R=100.0, eps0=0.0, eps1=0.25, N=5, n=5)
    dv = diag([(1, 1.0, 2.0)])
    dw = diag([(1, 1.0, 2.0 * 1.25 * 1.01)])  # beyond psi(death)
    report = verify_interleaving(dv, dw, profile)
    assert not report.passed


def test_verify_detects_field_via_report_only():
    # verification is diagram-level; summary renders without raising
    d = diag([(0, 0.0, INF)])
    report = verify_interleaving(d, d, SimpleNamespace(psi=identity, psi_inv=identity))
    assert "dim 0" in report.summary()


def test_summary_describes_second_rank_inequality_witness():
    """An exact H1 class that the other diagram lacks breaks the second
    inequality, and the summary names it with its cell and both ranks."""
    dv = diag([(0, 0.0, INF), (1, 1.0, 2.0)])
    dw = diag([(0, 0.0, INF)])
    report = verify_interleaving(dv, dw, SimpleNamespace(psi=identity, psi_inv=identity))
    assert not report.passed
    assert ("rank_V(s -> t) <= rank_W(psi(s) -> t) fails at (s=2.0, t=2.0): 1 > 0"
            in report.summary())


# --- exact against sparse diagrams, swept ------------------------------------------------

SWEEP_EPS1 = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 100.0)

# (dataset, keep, eps1) cases that failed while psi capped at exactly R, where
# a sparse class that dies at R is still alive under the (b, d] convention
CAP_AT_R_FAILURES = (
    [("circle9", 4, e) for e in SWEEP_EPS1]
    + [("circle9", keep, e) for keep in (7, 9) for e in SWEEP_EPS1 if e >= 2.0]
    + [("cloud24-5", keep, e) for keep in (12, 21, 24) for e in SWEEP_EPS1 if e >= 8.0]
    + [("circle32", 32, e) for e in SWEEP_EPS1 if e >= 8.0]
)


def _sweep_datasets():
    """(name, oracle, field, keeps): circles over Z_2, 2-D clouds over Z_3."""
    for n in range(3, 40, 3):
        yield f"circle{n}", circle_oracle(circle_sample(n)), 2, {n, n - 2, n // 2}
    yield "circle32", circle_oracle(circle_sample(32)), 2, {32}
    for n in (12, 24):
        for seed in range(6):
            oracle = euclidean_oracle(random_cloud(n, 2, seed))
            yield f"cloud{n}-{seed}", oracle, 3, {n, n - n // 8, n // 2}


def test_verify_sweep_exact_against_sparse():
    checked, failed = set(), []
    for name, oracle, p, keeps in _sweep_datasets():
        ct = tighten(build(oracle), oracle)
        exact = reduce(build_filtration(sparsify(ct, oracle, make_profile(ct)), 2), p)
        for keep in sorted(keeps):
            for eps1 in SWEEP_EPS1:
                profile = make_profile(ct, keep=keep, eps1=eps1)
                sparse = reduce(build_filtration(sparsify(ct, oracle, profile), 2), p)
                if not verify_interleaving(exact, sparse, profile).passed:
                    failed.append((name, keep, eps1))
                checked.add((name, keep, eps1))
    assert failed == []
    assert len(checked) == 675 and set(CAP_AT_R_FAILURES) <= checked


@pytest.mark.parametrize("dataset", ["cloud", "solenoid"])
def test_prim_h0_is_the_exact_h0(tmp_path, dataset):
    """At n=200, Prim's H0 equals the H0 that ``reduce`` gives on the eps1 0
    sparse file, and the eps1 0.25 sparse H0 verifies against it."""
    points = random_cloud(200, 2, 0) if dataset == "cloud" else solenoid_sample(200, seed=0)
    oracle = euclidean_oracle(points)
    ct = tighten(build(oracle), oracle)
    prim = prim_h0(oracle)
    assert len(prim.entries) == 200
    for eps1 in (0.0, 0.25):
        path = tmp_path / f"eps{eps1}.sparse"
        write_sparse(path, sparsify(ct, oracle, make_profile(ct, eps1=eps1)), {"eps1": eps1})
        matrix = read_sparse(path)
        h0 = reduce(build_filtration(matrix, 1), 2)
        assert h0.dims() == [0]
        if eps1 == 0.0:
            assert sorted(h0.pairs(0)) == prim.pairs(0)
        assert verify_interleaving(prim, h0, matrix.profile).passed
