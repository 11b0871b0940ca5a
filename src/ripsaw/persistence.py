"""Desk-scale persistent homology over prime fields.

``build_filtration`` enumerates the flag filtration of a (sparse or full)
length matrix up to a simplex-dimension cap; ``reduce`` pairs its simplices
by reducing coboundary columns with clearing, dimension by dimension, and
reports one diagram entry per persistence pair.  The explicit-module algebra
(``normal_form`` and the rank-table conversions) lives in ``ripsaw.modules``.

Conventions: a simplex of diameter w enters the filtration at scales r > w,
so entries mean "feature present for r in (birth, death]".  Vertices are
born at 0.  Zero-length pairs (birth == death) are dropped.  Homology is
reported for dimensions strictly below the enumerated simplex-dimension cap
(computing dimension k needs the k+1 simplices as killers); dimension 0 is
always reported.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import InputError, ResourceGuardError
from .sparsify import SparseLengthMatrix

INF = math.inf

MAX_SIMPLICES_ENV = "RIPSAW_MAX_SIMPLICES"
DEFAULT_MAX_SIMPLICES = 2_000_000


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _simplex_budget(max_simplices):
    if max_simplices is not None:
        return max_simplices
    env = os.environ.get(MAX_SIMPLICES_ENV)
    return int(env) if env else DEFAULT_MAX_SIMPLICES


@dataclass
class Filtration:
    """Simplices as (vertex tuple, diameter), sorted by
    (diameter, dimension, vertex order); every face precedes its cofaces."""

    simplices: list
    dim_cap: int
    n: int


def _edge_data(lengths, threshold):
    """Normalize input to (point count, {(i, j): length} with i < j)."""
    if isinstance(lengths, SparseLengthMatrix):
        n = lengths.size
        pairs = {(i, j): w for i, j, w in lengths.edges}
    else:
        try:
            rows = [[float(x) for x in row] for row in lengths]
        except (TypeError, ValueError):
            rows = None
        n = len(rows or ())
        if rows is None or any(len(row) != n for row in rows):
            raise InputError("expected a square matrix or SparseLengthMatrix")
        pairs = {
            (i, j): rows[i][j]
            for i in range(n)
            for j in range(i + 1, n)
            if math.isfinite(rows[i][j])
        }
    if threshold is not None:
        pairs = {e: w for e, w in pairs.items() if w <= threshold}
    return n, pairs


def _cliques(n, weight, dim_cap):
    """Every clique with at most dim_cap+1 vertices of the graph on 0..n-1
    whose edges are the keys (i, j), i < j, of ``weight``, yielded as
    (increasing vertex tuple, diameter): first every vertex, then a
    depth-first growth from each vertex."""
    if dim_cap < 0:
        raise InputError("dim_cap must be nonnegative")
    above = [set() for _ in range(n)]
    for (i, j) in weight:
        above[i].add(j)
    for v in range(n):
        yield (v,), 0.0
    # each entry: a clique, its diameter, and the vertices above its last
    # vertex that are adjacent to all of its vertices
    stack = [((v,), 0.0, above[v]) for v in range(n)] if dim_cap >= 1 else []
    while stack:
        verts, diam, cands = stack.pop()
        for v in cands:
            d = diam
            for u in verts:
                w = weight[(u, v)]
                if w > d:
                    d = w
            new = verts + (v,)
            yield new, d
            if len(new) <= dim_cap:
                stack.append((new, d, cands & above[v]))


def build_filtration(lengths, dim_cap, threshold=None, max_simplices=None) -> Filtration:
    """Enumerate all cliques with at most dim_cap+1 vertices.

    Missing (infinite) edges block cliques.  Refuses with
    ``ResourceGuardError`` once the enumeration exceeds the cap given by
    ``max_simplices`` or the RIPSAW_MAX_SIMPLICES environment variable.
    """
    budget = _simplex_budget(max_simplices)
    n, weight = _edge_data(lengths, threshold)
    simplices = []
    for simplex in _cliques(n, weight, dim_cap):
        simplices.append(simplex)
        if len(simplices) > budget:
            raise ResourceGuardError(
                f"simplex count exceeds cap {budget} "
                f"(aborted after {len(simplices)} simplices)", count=len(simplices))
    simplices.sort(key=lambda sd: (sd[1], len(sd[0]), sd[0]))
    return Filtration(simplices=simplices, dim_cap=dim_cap, n=n)


def count_simplices(lengths, dim_cap):
    """Clique counts of the edge graph, per dimension 0..dim_cap, streamed
    from the enumeration ``build_filtration`` sorts; nothing is stored."""
    n, weight = _edge_data(lengths, None)
    counts = [0] * (dim_cap + 1)
    for verts, _d in _cliques(n, weight, dim_cap):
        counts[len(verts) - 1] += 1
    return counts


@dataclass(frozen=True)
class DiagramEntry:
    dim: int
    birth: float
    death: float


@dataclass
class PersistenceDiagram:
    """Per-dimension multiset of (birth, death] entries over Z_p."""

    field_char: int
    entries: list

    def dims(self):
        return sorted({e.dim for e in self.entries})

    def pairs(self, dim):
        """The (birth, death) pairs of one homological dimension."""
        return [(e.birth, e.death) for e in self.entries if e.dim == dim]

    def to_json_dict(self, meta=None):
        return {
            "field": self.field_char,
            "entries": [
                {
                    "dim": e.dim,
                    "birth": e.birth,
                    "death": "inf" if e.death == INF else e.death,
                }
                for e in self.entries
            ],
            "meta": meta if meta is not None else {},
        }

    @classmethod
    def from_json_dict(cls, data):
        entries = [
            DiagramEntry(
                dim=int(e["dim"]),
                birth=float(e["birth"]),
                death=INF if e["death"] == "inf" else float(e["death"]),
            )
            for e in data["entries"]
        ]
        return cls(field_char=int(data["field"]), entries=entries)

    def to_text(self):
        lines = []
        for e in self.entries:
            death = "inf" if e.death == INF else repr(e.death)
            lines.append(f"{e.dim} {e.birth!r} {death}")
        return "\n".join(lines) + "\n"


def dump_diagram(path, diagram: PersistenceDiagram, meta=None):
    with open(path, "w") as fh:
        json.dump(diagram.to_json_dict(meta), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_diagram(path):
    with open(path) as fh:
        data = json.load(fh)
    return PersistenceDiagram.from_json_dict(data), data.get("meta", {})


def _sorted_entries(entries):
    return sorted(entries, key=lambda e: (e.dim, e.birth, e.death))


def reduce(filtration: Filtration, p: int) -> PersistenceDiagram:
    """Persistence pairs over Z_p by coboundary reduction with clearing.

    Dimensions d = 0 .. report_cap are reduced in increasing order, where
    report_cap is ``filtration.dim_cap - 1`` (0 when the cap is 0).  Within
    dimension d the d-simplices are visited in reverse filtration order, and
    a d-simplex that was a pivot in dimension d - 1 is skipped (clearing):
    it kills a (d-1)-class and can pair with nothing in dimension d.
    Each coboundary column is generated when its simplex is visited: its
    rows are the (d+1)-simplices formed with the common neighbours of the
    simplex's vertices, with coefficient (-1)^k when the added vertex sits
    at position k.  A column's pivot is its earliest coface in filtration
    order, and a reduced column is kept only when it becomes a pivot.
    Top-dimension simplices only ever appear as rows, never as columns.

    A d-simplex whose column keeps pivot tau yields (diameter of the
    simplex, diameter of tau]; one whose column reduces to zero is an
    essential class, death = inf.  The pairs depend only on the filtration's
    total order, so they equal those of boundary-matrix reduction.
    """
    if not is_prime(p):
        raise InputError(f"field characteristic {p} is not prime")
    simplices = filtration.simplices
    report_cap = max(0, filtration.dim_cap - 1)
    nbrs = [set() for _ in range(filtration.n)]
    for verts, _d in simplices:
        if len(verts) == 2:
            nbrs[verts[0]].add(verts[1])
            nbrs[verts[1]].add(verts[0])

    entries = []
    cleared = set()
    for dim in range(report_cap + 1):
        # filtration index of every (dim+1)-simplex, the rows of this dimension
        index = {verts: k for k, (verts, _d) in enumerate(simplices)
                 if len(verts) == dim + 2}
        pivots = {}
        for k in range(len(simplices) - 1, -1, -1):
            verts, birth = simplices[k]
            if len(verts) != dim + 1 or k in cleared:
                continue
            col = _coboundary(verts, nbrs, index, p)
            # every row of col is in the heap; rows cancelled since are
            # dropped lazily when they reach the top
            heap = list(col)
            heapify(heap)
            while heap:
                low = heap[0]
                if low not in col:
                    heappop(heap)
                    continue
                other = pivots.get(low)
                if other is None:
                    break
                factor = col[low]
                for row, c in other.items():
                    if row in col:
                        v = (col[row] - factor * c) % p
                        if v:
                            col[row] = v
                        else:
                            del col[row]
                    else:
                        col[row] = -factor * c % p
                        heappush(heap, row)
            if col:
                if col[low] != 1:
                    # stored scaled so that the pivot coefficient is 1
                    inv = pow(col[low], -1, p)
                    col = {row: c * inv % p for row, c in col.items()}
                pivots[low] = col
                death = simplices[low][1]
                if birth != death:
                    entries.append(DiagramEntry(dim=dim, birth=birth, death=death))
            else:
                entries.append(DiagramEntry(dim=dim, birth=birth, death=INF))
        cleared = set(pivots)
    return PersistenceDiagram(field_char=p, entries=_sorted_entries(entries))


def _coboundary(verts, nbrs, index, p):
    """Coboundary column {filtration index of coface: coefficient} of a simplex."""
    col = {}
    for v in set.intersection(*(nbrs[u] for u in verts)):
        k = bisect_left(verts, v)
        col[index[verts[:k] + (v,) + verts[k:]]] = p - 1 if k % 2 else 1
    return col
