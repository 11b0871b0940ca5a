"""Approximate persistence diagrams with error rectangles, and verification
that two diagrams are interleaved.

A diagram computed from a sparsified complex over-estimates births and
deaths: each entry (b, d) is the upper-right corner of the rectangle
[psi_inv(b), b] x [psi_inv(d), d] that must contain the true entry.  An
entry is Definite when d > psi(b), i.e. its corner clears the graph of the
shift map; otherwise it may be an artifact.

``verify_interleaving(P_V, P_W, profile)`` checks the single-shift setting where
W(r) includes into V(r) and V(r) into W(psi(r)): the rank inequalities

    rank_W(s -> psi(t)) <= rank_V(s -> t) <= rank_W(psi(s) -> t)

on every cell (s, t), s <= t, of a grid of critical scales, read off rows of
counts that follow s up the grid, plus a matching that covers every alive
entry on both sides.  One shift map psi does all of it: an entry (b, d) of V
is related to (bw, dw) of W when b <= bw <= psi(b) and d <= dw <= psi(d), and
an entry must be matched when psi(b) <= d.  Every psi here maps inf to inf.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import gt

from .errors import InputError
from .persistence import PersistenceDiagram

INF = math.inf

# rank-inequality failures reported per dimension before the grid scan stops
MAX_WITNESSES = 20


# --- error rectangles -------------------------------------------------------

@dataclass(frozen=True)
class ApproxEntry:
    dim: int
    birth: float
    death: float
    rect: tuple  # (birth_lo, birth_hi, death_lo, death_hi)
    definite: bool

    @property
    def essential(self):
        return self.death == INF


def approximate(diagram: PersistenceDiagram, profile) -> list:
    """The entries of ``diagram`` as ``ApproxEntry`` values, in order, with
    error rectangles and the definite/possible classification.

    Entries with infinite death keep a degenerate, half-open death side
    (their true class is essential as well) and are always definite.
    """
    lo = profile.psi_inv
    return [ApproxEntry(dim=e.dim, birth=e.birth, death=e.death,
                        rect=(lo(e.birth), e.birth, lo(e.death), e.death),
                        definite=e.death > profile.psi(e.birth))
            for e in diagram.entries]


# --- matching ----------------------------------------------------------------

@dataclass
class MatchResult:
    """Injective partial matching between two entry lists.

    ``pairs`` holds (index into V side, index into W side).  ``ok`` means
    every alive entry on both sides is covered; the uncovered alive entries
    are reported otherwise (failure is a value, not an exception).
    """

    pairs: list
    uncovered_alive_v: list
    uncovered_alive_w: list

    @property
    def ok(self):
        return not self.uncovered_alive_v and not self.uncovered_alive_w


def _alternate(x, adjacency, match_x, match_y, keep):
    """Match ``x`` along an alternating path that ends at a free vertex of
    the other side or at a vertex of x's side outside ``keep``, which gives
    up its partner.  No other vertex of x's side loses its partner.

    A breadth-first search: ``reached`` maps each vertex of the other side
    to the vertex of x's side it was reached from, and ``queue`` grows by the
    partners still to extend, so x takes a free neighbour before any path
    walks past it.  The path is flipped back through ``reached``."""
    reached, queue = {}, [x]
    for u in queue:
        for y in adjacency[u]:
            if y in reached:
                continue
            reached[y] = u
            other = match_y.get(y)
            if other is not None and other in keep:
                queue.append(other)
                continue
            if other is not None:
                del match_x[other]
            while y is not None:
                u = match_y[y] = reached[y]
                match_x[u], y = y, match_x.get(u)
            return True
    return False


def match_diagrams(entries_v, entries_w, psi) -> MatchResult:
    """Search for a matching of related pairs covering all alive entries.

    V entry (b, d) is related to the W entries in its box [b, psi(b)] x
    [d, psi(d)], and an entry (b, d) of either side is alive when psi(b) <= d.
    psi runs once per entry value, 2|V| + |W| times.  The W entries are
    sorted by death once; a V entry's box test then runs only on those whose
    death lies in [d, psi(d)], found by bisection, and its neighbours are the
    ones that pass, in index order, with the same int object per W entry."""
    boxes = [(b, psi(b), d, psi(d)) for b, d in entries_v]
    rows = sorted((dw, jw, bw) for jw, (bw, dw) in enumerate(entries_w))
    deaths = [dw for dw, _jw, _bw in rows]
    adjacency = [sorted([jw for dw, jw, bw in rows[bisect_left(deaths, d):bisect_right(deaths, pd)]
                         if b <= bw <= pb and d <= dw <= pd])
                 for b, pb, d, pd in boxes]
    alive_v = [iv for iv, (_b, pb, d, _pd) in enumerate(boxes) if pb <= d]
    alive_w = [jw for jw, (bw, dw) in enumerate(entries_w) if psi(bw) <= dw]
    return cover_matching(adjacency, alive_v, alive_w, len(entries_w))


def cover_matching(adjacency, alive_v, alive_w, n_w) -> MatchResult:
    """Matching in a bipartite graph covering two required vertex sets.

    Kuhn's algorithm, with one augmenting search per V entry (``alive_v``
    first, then the rest in index order), gives a maximum matching that
    covers what it can of ``alive_v``.  Each alive W entry still unmatched
    then follows an alternating path on the transpose, built only then; in
    a maximum matching the path takes the partner of a W entry that is not
    alive, so no V entry and no matched alive W entry loses its partner.
    Both sets end up covered whenever each can be covered alone
    (Mendelsohn-Dulmage)."""
    all_v = range(len(adjacency))
    match_v, match_w = {}, {}
    for v in dict.fromkeys(chain(alive_v, all_v)):
        _alternate(v, adjacency, match_v, match_w, all_v)
    uncovered_alive_v = [iv for iv in alive_v if iv not in match_v]
    uncovered_alive_w = [jw for jw in alive_w if jw not in match_w]
    if uncovered_alive_w:
        radjacency = [[] for _ in range(n_w)]
        for iv, nbrs in enumerate(adjacency):
            for jw in nbrs:
                radjacency[jw].append(iv)
        keep_w = set(alive_w)
        uncovered_alive_w = [jw for jw in uncovered_alive_w
                             if not _alternate(jw, radjacency, match_w, match_v, keep_w)]
    return MatchResult(pairs=sorted(match_v.items()), uncovered_alive_v=uncovered_alive_v,
                       uncovered_alive_w=uncovered_alive_w)


# --- rank queries and interleaving verification ------------------------------

@dataclass
class RankWitness:
    inequality: int  # 1: rank_W(s->psi(t)) <= rank_V(s->t); 2: the reverse bound
    s: float
    t: float
    lhs: int
    rhs: int

    def describe(self):
        side = ("rank_W(s -> psi(t)) <= rank_V(s -> t)" if self.inequality == 1
                else "rank_V(s -> t) <= rank_W(psi(s) -> t)")
        return f"{side} fails at (s={self.s!r}, t={self.t!r}): {self.lhs} > {self.rhs}"


@dataclass
class DimensionReport:
    rank_violations: list
    matching: MatchResult

    @property
    def passed(self):
        return not self.rank_violations and self.matching.ok


@dataclass
class InterleavingReport:
    dimensions: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(rep.passed for rep in self.dimensions.values())

    def summary(self):
        lines = []
        for dim in sorted(self.dimensions):
            rep = self.dimensions[dim]
            status = "ok" if rep.passed else "FAIL"
            lines.append(f"dim {dim}: ranks {'ok' if not rep.rank_violations else 'FAIL'}, "
                         f"matching {'ok' if rep.matching.ok else 'FAIL'} -> {status}")
            for w in rep.rank_violations[:5]:
                lines.append("  " + w.describe())
            for iv in rep.matching.uncovered_alive_v[:5]:
                lines.append(f"  alive exact entry #{iv} unmatched")
            for jw in rep.matching.uncovered_alive_w[:5]:
                lines.append(f"  alive sparse entry #{jw} unmatched")
        return "\n".join(lines)


def _grid(values, psi_inv):
    pts = set()
    for v in values:
        if v != INF:
            w = psi_inv(v)
            pts.update((v, w, psi_inv(w)))
    if pts:
        pts.add(max(pts) + 1.0)
    return sorted(pts)


def _rank_violations(grid, t_grid, shifted, pv, pw):
    """The failing cells (s, t) in scan order (s up ``grid``, then t, 1 before
    2) until MAX_WITNESSES.  Row a[j] is rank_V(s, t_j), b[j] rank_W(s,
    shifted[j]) and c[j] rank_W(psi(s), t_j): a pair born below s (psi(s) for
    c) adds 1 up to the last t-grid index its death covers.  An inequality asks
    a suffix of the t-grid, so rows unchanged since a clean scan are skipped."""
    if down := [(lo, hi) for lo, hi in zip(shifted, shifted[1:]) if hi < lo]:
        raise InputError(f"rank threshold went down from {down[0][0]!r} to {down[0][1]!r}: "
                         "is the shift map nondecreasing?")
    starts = [sorted((b, e - 1) for b, d in pairs if (e := bisect_right(cover, d)))[::-1]
              for pairs, cover in ((pv, t_grid), (pw, shifted), (pw, t_grid))]
    ends = [[0] * len(t_grid) for _ in starts]
    rows, violations, cleared = [None] * 3, [], False
    for k, (s, ps) in enumerate(zip(grid, shifted)):
        for r, cut in enumerate((s, s, ps)):
            while starts[r] and starts[r][-1][0] < cut:  # born below the cut: enters row r
                ends[r][starts[r].pop()[1]] += 1
                rows[r], cleared = None, False
        a, b, c = rows = [x or list(accumulate(reversed(e)))[::-1] for x, e in zip(rows, ends)]
        lo1, lo2 = max(k, bisect_left(shifted, s)), max(k, bisect_left(t_grid, ps))
        if cleared or not (any(map(gt, b[lo1:], a[lo1:])) or any(map(gt, a[lo2:], c[lo2:]))):
            cleared = True
            continue
        for j, t in enumerate(t_grid[k:], k):
            for ineq, lo, lhs, rhs in ((1, lo1, b[j], a[j]), (2, lo2, a[j], c[j])):
                if j >= lo and lhs > rhs:
                    violations.append(RankWitness(ineq, s, t, lhs, rhs))
            if len(violations) >= MAX_WITNESSES:
                return violations
    return violations


def verify_interleaving(diag_v: PersistenceDiagram, diag_w: PersistenceDiagram,
                        profile) -> InterleavingReport:
    """Check that ``diag_w`` is psi-interleaved into ``diag_v``.

    ``diag_v`` is the exact side; ``diag_w`` the approximating side (its
    scales over-estimate by at most psi).  ``profile`` supplies the shift
    map ``psi`` and its inverse ``psi_inv`` (a ``PrecisionProfile`` or any
    object with both); ``psi_inv`` lays out the test grid so that count
    regimes between critical values are not skipped.

    The grid holds every value where a rank count can change: the entry
    values and their psi-preimages.  Each cell (s, t), s <= t, is read off
    three rows of counts over t that follow s up the grid, so psi must be
    nondecreasing, and both diagrams over one field and up to one dimension
    (InputError otherwise).
    """
    if (p := diag_v.field_char) != (q := diag_w.field_char):
        raise InputError(f"field characteristics differ: {p} vs {q}")
    if (a := diag_v.max_dim) != (b := diag_w.max_dim):
        raise InputError(f"diagrams computed up to different dimensions: {a} vs {b}")
    psi, psi_inv = profile.psi, profile.psi_inv
    report = InterleavingReport()
    for dim in sorted(set(diag_v.dims()) | set(diag_w.dims())):
        pv, pw = diag_v.pairs(dim), diag_w.pairs(dim)
        grid = _grid([v for pair in pv + pw for v in pair], psi_inv)
        t_grid = grid + [INF]
        shifted = [psi(t) for t in t_grid]
        report.dimensions[dim] = DimensionReport(
            rank_violations=_rank_violations(grid, t_grid, shifted, pv, pw),
            matching=match_diagrams(pv, pw, psi))
    return report
