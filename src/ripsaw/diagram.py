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

over a grid of critical scales, plus the existence of a matching that covers
every alive entry on both sides, built from the relatedness predicate with
shift pair (psi1, psi2) = (psi, identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InputError
from .persistence import PersistenceDiagram

INF = math.inf

# rank-inequality failures reported per dimension before the grid scan stops
MAX_WITNESSES = 20


def _apply(psi, x):
    return INF if x == INF else psi(x)


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


@dataclass
class ApproxDiagram:
    base: PersistenceDiagram
    profile: object
    entries: list

    def to_json_dict(self, meta=None):
        data = self.base.to_json_dict(meta)
        for out, e in zip(data["entries"], self.entries):
            out["rect"] = ["inf" if v == INF else v for v in e.rect]
            out["class"] = "definite" if e.definite else "possible"
        return data


def approximate(diagram: PersistenceDiagram, profile) -> ApproxDiagram:
    """Attach error rectangles and the definite/possible classification.

    Entries with infinite death keep a degenerate, half-open death side
    (their true class is essential as well) and are always definite.
    """
    entries = []
    for e in diagram.entries:
        b_lo = profile.psi_inv(e.birth)
        d_lo = profile.psi_inv(e.death)
        definite = e.death > _apply(profile.psi, e.birth)
        entries.append(ApproxEntry(
            dim=e.dim, birth=e.birth, death=e.death,
            rect=(b_lo, e.birth, d_lo, e.death), definite=definite))
    return ApproxDiagram(base=diagram, profile=profile, entries=entries)


# --- relatedness and aliveness ----------------------------------------------

def related(entry_v, entry_w, psi1, psi2):
    """May these two entries describe the same feature?

    ``entry_v`` lives in the module whose scales shift forward by psi1 into
    the other module; ``entry_w`` shifts forward by psi2 back.  On real-valued
    diagrams the strictness is chosen so that with psi1 = psi2 = id the
    predicate degenerates to exact interval equality.
    """
    b, d = entry_v
    bw, dw = entry_w
    return (
        bw <= _apply(psi1, b)
        and b <= _apply(psi2, bw)
        and _apply(psi2, dw) >= d
        and dw <= _apply(psi1, d)
    )


def alive(entry, psi1, psi2):
    """Must this entry be matched?  True when it survives a round trip
    through both shifts: psi1(psi2(b)) <= d for an entry of the psi1 side."""
    b, d = entry
    return _apply(psi1, _apply(psi2, b)) <= d


# --- matching ----------------------------------------------------------------

@dataclass
class MatchResult:
    """Injective partial matching between two entry lists.

    ``pairs`` holds (index into V side, index into W side).  ``ok`` means
    every alive entry on both sides is covered; the uncovered alive entries
    are reported otherwise (failure is a value, not an exception).
    """

    pairs: list
    unmatched_v: list
    unmatched_w: list
    uncovered_alive_v: list
    uncovered_alive_w: list

    @property
    def ok(self):
        return not self.uncovered_alive_v and not self.uncovered_alive_w


def _alternate(x, adjacency, match_x, match_y, keep, seen):
    """Match ``x`` along an alternating path that ends at a free vertex of
    the other side or at a vertex of x's side outside ``keep``, which gives
    up its partner.  No other vertex of x's side loses its partner."""
    for y in adjacency[x]:
        if y in seen:
            continue
        seen.add(y)
        other = match_y.get(y)
        if other is None or other not in keep or _alternate(
                other, adjacency, match_x, match_y, keep, seen):
            if match_x.get(other) == y:
                del match_x[other]
            match_x[x] = y
            match_y[y] = x
            return True
    return False


def match_diagrams(entries_v, entries_w, psi1, psi2) -> MatchResult:
    """Search for a matching of related pairs covering all alive entries."""
    adjacency = [
        [jw for jw, ew in enumerate(entries_w) if related(ev, ew, psi1, psi2)]
        for ev in entries_v
    ]
    alive_v = [iv for iv, ev in enumerate(entries_v) if alive(ev, psi1, psi2)]
    alive_w = [jw for jw, ew in enumerate(entries_w) if alive(ew, psi2, psi1)]
    return cover_matching(adjacency, alive_v, alive_w, len(entries_w))


def cover_matching(adjacency, alive_v, alive_w, n_w) -> MatchResult:
    """Matching in a bipartite graph covering two required vertex sets.

    Augmenting paths first cover what they can of ``alive_v``.  Each alive
    W entry still unmatched then follows an alternating path that ends at a
    free V entry or takes the partner of a W entry that is not alive, so
    no V entry and no matched alive W entry loses its partner.  Some matching
    covering ``alive_w`` gives such a path (its symmetric difference with
    the current one), so both sets end up covered whenever each can be
    covered alone (Mendelsohn-Dulmage).  Augmenting from every unmatched V
    entry then makes the matching maximum without uncovering anything.
    """
    all_v = range(len(adjacency))
    match_v, match_w = {}, {}
    for v in alive_v:
        _alternate(v, adjacency, match_v, match_w, all_v, set())
    uncovered_alive_v = [iv for iv in alive_v if iv not in match_v]

    radjacency = [[] for _ in range(n_w)]
    for iv, nbrs in enumerate(adjacency):
        for jw in nbrs:
            radjacency[jw].append(iv)
    keep_w = set(alive_w)
    uncovered_alive_w = [
        jw for jw in alive_w if jw not in match_w
        and not _alternate(jw, radjacency, match_w, match_v, keep_w, set())]

    for v in all_v:
        if v not in match_v:
            _alternate(v, adjacency, match_v, match_w, all_v, set())

    pairs = sorted(match_v.items())
    return MatchResult(
        pairs=pairs,
        unmatched_v=[iv for iv in all_v if iv not in match_v],
        unmatched_w=[jw for jw in range(n_w) if jw not in match_w],
        uncovered_alive_v=uncovered_alive_v,
        uncovered_alive_w=uncovered_alive_w,
    )


# --- rank queries and interleaving verification ------------------------------

def rank_at(pairs, s, t):
    """Number of (birth, death) pairs with birth < s and death >= t
    (features persisting from s to t)."""
    if s > t:
        raise InputError("need s <= t")
    return sum(1 for b, d in pairs if b < s and d >= t)


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
    dim: int
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
        if v == INF:
            continue
        w = psi_inv(v)
        pts.update((v, w, psi_inv(w)))
    if pts:
        pts.add(max(pts) + 1.0)
    return sorted(pts)


def verify_interleaving(diag_v: PersistenceDiagram, diag_w: PersistenceDiagram,
                        profile) -> InterleavingReport:
    """Check that ``diag_w`` is psi-interleaved into ``diag_v``.

    ``diag_v`` is the exact side; ``diag_w`` the approximating side (its
    scales over-estimate by at most psi).  ``profile`` supplies the shift
    map ``psi`` and its inverse ``psi_inv`` (a ``PrecisionProfile`` or any
    object with both); ``psi_inv`` lays out the test grid so that count
    regimes between critical values are not skipped.

    The grid closure covers every distinct value the rank counts can take:
    counts change only where s or t crosses an entry value or a psi-preimage
    of one.
    """
    psi, psi_inv = profile.psi, profile.psi_inv
    report = InterleavingReport()
    for dim in sorted(set(diag_v.dims()) | set(diag_w.dims())):
        pv = diag_v.pairs(dim)
        pw = diag_w.pairs(dim)
        values = [b for b, _d in pv + pw] + [d for _b, d in pv + pw]
        grid = _grid(values, psi_inv)
        t_grid = grid + [INF]
        violations = []
        for s in grid:
            for t in t_grid:
                if s > t:
                    continue
                ps = _apply(psi, s)
                pt = _apply(psi, t)
                if s <= pt:
                    lhs = rank_at(pw, s, pt)
                    rhs = rank_at(pv, s, t)
                    if lhs > rhs:
                        violations.append(RankWitness(1, s, t, lhs, rhs))
                if ps <= t:
                    lhs = rank_at(pv, s, t)
                    rhs = rank_at(pw, ps, t)
                    if lhs > rhs:
                        violations.append(RankWitness(2, s, t, lhs, rhs))
                if len(violations) >= MAX_WITNESSES:
                    break
            if len(violations) >= MAX_WITNESSES:
                break
        matching = match_diagrams(pv, pw, psi, lambda r: r)
        report.dimensions[dim] = DimensionReport(
            dim=dim, rank_violations=violations, matching=matching)
    return report
