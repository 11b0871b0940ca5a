import math
from types import SimpleNamespace

import pytest

from helpers import match_by_pairs, prim_h0, rank_at
from ripsaw import (
    InputError,
    PersistenceDiagram,
    PrecisionProfile,
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


# --- relatedness / aliveness, through single-entry matchings -------------------

@pytest.mark.parametrize("entry_v, entry_w, psi, related", [
    ((1.0, 3.0), (1.0, 3.0), identity, True),
    ((1.0, 3.0), (1.0, 3.1), identity, False),
    ((1.0, 3.0), (0.9, 3.0), identity, False),
    ((1.0, 3.0), (1.1, 3.2), scale_125, True),
    ((1.0, 3.0), (1.25, 3.75), scale_125, True),   # both sides at psi
    ((1.0, 3.0), (1.1, 4.5), scale_125, False),    # death later than psi(3.0)
    ((1.0, 3.0), (1.3, 3.2), scale_125, False),    # birth later than psi(1.0)
    ((1.0, INF), (1.2, INF), scale_125, True),
    ((1.0, INF), (1.2, 9.0), scale_125, False),
], ids=["identity-equal", "identity-later-death", "identity-earlier-birth", "expansive",
        "expansive-corner", "late-death", "late-birth", "infinite-death",
        "finite-against-infinite"])
def test_match_pairs_an_entry_with_what_lies_in_its_box(entry_v, entry_w, psi, related):
    """A W entry is related to (b, d) when b <= bw <= psi(b) and d <= dw <=
    psi(d); with psi = id, the entries are equal.  A single related pair is
    always matched, so the pair list shows the relation."""
    assert match_diagrams([entry_v], [entry_w], psi).pairs == ([(0, 0)] if related else [])


@pytest.mark.parametrize("entry, psi, alive", [
    ((1.0, 1.0), identity, True),
    ((1.0, 1.5), scale_125, True),     # 1.25 <= 1.5
    ((1.0, 1.25), scale_125, True),    # equality at psi(b)
    ((1.0, 1.2), scale_125, False),    # 1.25 > 1.2
    ((1.0, INF), scale_125, True),
], ids=["identity", "survives", "equal-at-psi-b", "dies-within-shift", "infinite-death"])
def test_match_must_cover_an_entry_that_survives_the_shift(entry, psi, alive):
    """An entry is alive, on either side, when psi(b) <= d; with nothing on
    the other side, it is reported uncovered exactly then."""
    expected = [0] if alive else []
    assert match_diagrams([entry], [], psi).uncovered_alive_v == expected
    assert match_diagrams([], [entry], psi).uncovered_alive_w == expected


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
            (b, d), (bw, dw) = pv[iv], pw[jw]
            assert b <= bw <= profile.psi(b) and d <= dw <= profile.psi(d)
            assert iv not in seen_v and jw not in seen_w
            seen_v.add(iv)
            seen_w.add(jw)


def test_match_evaluates_psi_once_per_entry_value():
    """psi runs for the birth and death of each V entry and the birth of each
    W entry, never for a (V, W) pair; ten entries a side with one birth make
    every pair reach the box test."""
    calls = []

    def psi(r):
        calls.append(r)
        return 1.25 * r

    entries_v = [(1.0, 2.0 + k / 4) for k in range(10)]
    entries_w = [(1.0, 2.25 + k / 4) for k in range(10)]
    res = match_diagrams(entries_v, entries_w, psi)
    assert len(calls) <= 2 * len(entries_v) + len(entries_w)
    assert res == match_by_pairs(entries_v, entries_w, lambda r: 1.25 * r)
    assert res.ok and len(res.pairs) == 10


def _nearby_pairs(pairs, seed):
    """``pairs`` each moved up by u = 0, 1/8 or 1/4 in birth and by u or u +
    1/8 in death (an infinite death stays), so that no death falls below its
    birth and many entries land in one another's boxes."""
    from helpers import splitmix_draw

    moved = []
    for k, (b, d) in enumerate(pairs):
        u = int(splitmix_draw(seed, 2 * k) * 3) / 8
        moved.append((b + u, d + u + int(splitmix_draw(seed, 2 * k + 1) * 2) / 8))
    return moved


def test_match_equals_the_per_pair_matching_on_random_diagrams():
    """On 1,440 random diagram pairs (tied values, infinite deaths, W drawn
    apart from V or moved up from it, H0-shaped ones too) under psi = id, an
    affine shift and two profiles with eps0 > 0, one of them capped at R, the
    matching equals the one built by testing every (V, W) pair with psi."""
    affine = lambda r: 1.25 * r + 0.125  # noqa: E731
    profiles = (PrecisionProfile(R=1.5, eps0=0.125, eps1=0.25, N=9, n=9),
                PrecisionProfile(R=10.0, eps0=0.25, eps1=0.125, N=9, n=9))
    shifts = (identity, affine) + tuple(p.psi for p in profiles)
    cases = []
    for seed in range(120):
        pv, h0 = _random_pairs(seed), _h0_pairs(seed, 0)
        cases += [(pv, _random_pairs(seed, salt=100)), (pv, _nearby_pairs(pv, seed)),
                  (h0, _nearby_pairs(h0, seed + 1000))]
    results = []
    for psi in shifts:
        for pv, pw in cases:
            res = match_diagrams(pv, pw, psi)
            assert res == match_by_pairs(pv, pw, psi), (pv, pw)
            results.append(res)
    assert len(results) >= 1000
    assert sum(len(res.pairs) >= 3 for res in results) >= 300
    assert sum(res.ok for res in results) >= 100 and sum(not res.ok for res in results) >= 100


def test_cover_matching_frees_a_partner_that_is_not_alive():
    """The alive V entry first takes W entry 0, which is not alive; covering
    the alive W entry 1 must move it over."""
    from ripsaw.diagram import cover_matching

    res = cover_matching([[0, 1]], [0], [1], 2)
    assert res.ok and res.pairs == [(0, 1)]


def test_cover_matching_against_exhaustive_feasibility():
    """On random small graphs, cover_matching succeeds exactly when some
    injective matching covering both required sets exists (checked by
    exhaustive search), its output is a valid covering matching of maximum
    size, and the alive V entries it leaves uncovered, and the number of
    alive W entries, are what any complete augmenting search gives."""
    from itertools import permutations

    from ripsaw.diagram import cover_matching
    from helpers import splitmix_draw

    def matchings(adjacency, n_w):
        # brute force: every injective map from V vertices to W slots or None
        # that keeps each V vertex in its box
        n_v = len(adjacency)
        for perm in permutations(list(range(n_w)) + [None] * n_v, n_v):
            used = [w for w in perm if w is not None]
            if (len(set(used)) == len(used)
                    and all(w is None or w in adjacency[v] for v, w in enumerate(perm))):
                yield perm, set(used)

    for seed in range(120):
        n_v = 1 + int(splitmix_draw(seed, 0) * 5)
        n_w = 1 + int(splitmix_draw(seed, 1) * 5)
        adjacency = [
            [w for w in range(n_w) if splitmix_draw(seed, 10 + v * n_w + w) < 0.4]
            for v in range(n_v)
        ]
        alive_v = [v for v in range(n_v) if splitmix_draw(seed, 99 + v) < 0.5]
        alive_w = [w for w in range(n_w) if splitmix_draw(seed, 777 + w) < 0.5]
        every = list(matchings(adjacency, n_w))
        res = cover_matching(adjacency, alive_v, alive_w, n_w)
        assert res.ok == any(all(perm[v] is not None for v in alive_v) and set(alive_w) <= used
                             for perm, used in every), seed
        assert len(res.pairs) == max(len(used) for _perm, used in every), seed
        # what no complete augmenting search can change: the alive V entries
        # that one greedy pass in order keeps, and how many alive W entries
        # the best matching covers
        kept = []
        for v in alive_v:
            if any(all(perm[u] is not None for u in kept + [v]) for perm, _used in every):
                kept.append(v)
        assert res.uncovered_alive_v == [v for v in alive_v if v not in kept], seed
        assert len(res.uncovered_alive_w) == len(alive_w) - max(
            len(used.intersection(alive_w)) for _perm, used in every), seed
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
    """Vertex i < n is adjacent to W entries i and i+1, and vertex n only to
    W entry 0, so covering vertex n forces every earlier vertex to move up
    one: any complete search walks an alternating path through all of them,
    and one that recursed once per step would exhaust the interpreter's
    stack."""
    from ripsaw.diagram import cover_matching

    n = 1200
    adjacency = [[i, i + 1] for i in range(n)] + [[0]]
    res = cover_matching(adjacency, range(n + 1), range(n + 1), n + 1)
    assert res.ok and res.pairs == [(i, i + 1) for i in range(n)] + [(n, 0)]


def test_cover_matching_reads_each_neighbour_list_about_once():
    """Vertex i is adjacent to W entries i-1 and i.  Each vertex takes the
    free W entry in its box at once, so the matching reads each of the
    2,399 edges once: every alive W entry is covered by the augmenting
    searches, so no transpose is built.  A search that walked through the
    taken entry first would read about n^2."""
    from ripsaw.diagram import cover_matching

    reads = [0]

    class Counted(list):
        def __iter__(self):
            for item in super().__iter__():
                reads[0] += 1
                yield item

    n = 1200
    adjacency = [Counted([i - 1, i] if i else [0]) for i in range(n)]
    res = cover_matching(adjacency, range(n), range(n), n)
    assert res.ok and res.pairs == [(i, i) for i in range(n)]
    assert reads[0] <= 2 * n - 1


def test_cover_matching_equals_the_three_pass_matching_on_random_graphs():
    """On 20,000 random bipartite graphs (up to 9 vertices a side, up to 40
    in three of ten; empty sides, no edges, all or no entries alive), the
    matching agrees with the three-pass reference in everything a verdict
    reads: ``ok``, the uncovered alive V entries, the number of pairs (both
    maximum) and the number of uncovered alive W entries.  Which W entries
    are left uncovered may differ, as the repair pass starts from another
    matching."""
    import random

    from helpers import cover_matching_three_passes
    from ripsaw.diagram import cover_matching

    rng = random.Random(20_000)
    seen = dict.fromkeys(["empty side", "no edges", "all alive", "none alive", "fail"], 0)
    for _ in range(20_000):
        top = 40 if rng.random() < 0.3 else 9
        n_v, n_w = rng.randint(0, top), rng.randint(0, top)
        density = rng.choice([0.0, 0.1, 0.3, 0.6, 0.9])
        adjacency = [[w for w in range(n_w) if rng.random() < density] for _v in range(n_v)]
        share = rng.choice([0.0, 0.5, 1.0])
        alive_v = [v for v in range(n_v) if rng.random() < share]
        alive_w = [w for w in range(n_w) if rng.random() < share]
        res = cover_matching(adjacency, alive_v, alive_w, n_w)
        ref = cover_matching_three_passes(adjacency, alive_v, alive_w, n_w)
        assert res.ok == ref.ok
        assert res.uncovered_alive_v == ref.uncovered_alive_v
        assert len(res.pairs) == len(ref.pairs)
        assert len(res.uncovered_alive_w) == len(ref.uncovered_alive_w)
        matched_v, matched_w = [v for v, _w in res.pairs], [w for _v, w in res.pairs]
        assert all(w in adjacency[v] for v, w in res.pairs)
        assert len(set(matched_v)) == len(matched_v) and len(set(matched_w)) == len(matched_w)
        assert set(res.uncovered_alive_v) == set(alive_v) - set(matched_v)
        assert set(res.uncovered_alive_w) == set(alive_w) - set(matched_w)
        seen["empty side"] += not (n_v and n_w)
        seen["no edges"] += not any(adjacency)
        seen["all alive"] += share == 1.0
        seen["none alive"] += share == 0.0
        seen["fail"] += not res.ok
    assert min(seen.values()) >= 500, seen


def test_match_shares_one_int_per_sparse_entry(monkeypatch):
    """The neighbour lists refer to one int object per W entry, not to a
    fresh int per related pair: two H0-shaped diagrams of 600 entries whose
    boxes each hold dozens of W entries."""
    import ripsaw.diagram

    handed = []
    real = ripsaw.diagram.cover_matching

    def capture(adjacency, alive_v, alive_w, n_w):
        handed.append(adjacency)
        return real(adjacency, alive_v, alive_w, n_w)

    monkeypatch.setattr(ripsaw.diagram, "cover_matching", capture)
    entries_v = [(0.0, 1.0 + k / 100) for k in range(599)] + [(0.0, INF)]
    entries_w = [(0.0, 1.0 + (k + 0.5) / 100) for k in range(599)] + [(0.0, INF)]
    res = match_diagrams(entries_v, entries_w, lambda r: 1.25 * r)
    (adjacency,) = handed
    assert sum(map(len, adjacency)) > 20 * len(entries_w)
    assert len({id(jw) for nbrs in adjacency for jw in nbrs}) <= len(entries_w)
    assert res.ok and len(res.pairs) == 600


def test_match_builds_the_all_pairs_box_graph(monkeypatch):
    """The neighbour lists ``match_diagrams`` finds by bisecting the W deaths
    are the lists of the box test on every (V, W) pair, and its matching is
    the one ``cover_matching`` finds on those: 40 random diagram pairs of up
    to 300 entries a side, deaths tied on an eighth grid, one in twenty
    infinite, every other pair H0-shaped, under a psi flat past R = 2."""
    import random

    import ripsaw.diagram

    handed = []
    real = ripsaw.diagram.cover_matching

    def capture(adjacency, alive_v, alive_w, n_w):
        handed.append(adjacency)
        return real(adjacency, alive_v, alive_w, n_w)

    def pairs(rng, h0):
        out = []
        for _ in range(rng.randrange(300)):
            b = 0.0 if h0 else rng.randrange(24) / 8
            out.append((b, INF if rng.random() < 0.05 else b + rng.randrange(24) / 8))
        return out

    monkeypatch.setattr(ripsaw.diagram, "cover_matching", capture)
    psi = PrecisionProfile(R=2.0, eps0=0.125, eps1=0.25, N=9, n=9).psi
    related = 0
    for seed in range(40):
        rng = random.Random(seed)
        pv, pw = pairs(rng, seed % 2 == 0), pairs(rng, seed % 2 == 0)
        res = match_diagrams(pv, pw, psi)
        box = [[jw for jw, (bw, dw) in enumerate(pw) if b <= bw <= psi(b) and d <= dw <= psi(d)]
               for b, d in pv]
        assert handed.pop() == box, seed
        assert res == real(box, [iv for iv, (b, d) in enumerate(pv) if psi(b) <= d],
                           [jw for jw, (b, d) in enumerate(pw) if psi(b) <= d], len(pw)), seed
        related += sum(map(len, box))
    assert related > 20_000


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
