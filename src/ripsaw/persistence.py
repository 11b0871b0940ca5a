"""Desk-scale persistent homology over prime fields.

``build_filtration`` enumerates the flag filtration of a (sparse or full)
length matrix up to a simplex-dimension cap, storing only the simplices
below the top dimension; ``reduce`` pairs its simplices, dimension 0 by
union-find and the rest by reducing coboundary columns with clearing, with
every coface an implicit integer key and every pivot that needed no addition
kept as its simplex alone, and reports one diagram entry per persistence pair.
The explicit-module algebra (``normal_form`` and the rank-table
conversions) lives in ``ripsaw.modules``.

Conventions: a simplex of diameter w enters the filtration at scales r > w,
so entries mean "feature present for r in (birth, death]".  Vertices are
born at 0.  Zero-length pairs (birth == death) are dropped.  Homology is
reported for dimensions strictly below the enumerated simplex-dimension cap
(computing dimension k needs the k+1 simplices as killers), which is at
least 1.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush

from .errors import InputError, ResourceGuardError
from .sparsify import SparseLengthMatrix

INF = math.inf

MAX_SIMPLICES_ENV = "RIPSAW_MAX_SIMPLICES"
DEFAULT_MAX_SIMPLICES = 2_000_000


def is_prime(p):
    """Deterministic Miller-Rabin over the prime bases up to 37, exact for
    every p < 2**64; a larger p raises InputError."""
    if p >= 2**64:
        raise InputError(f"field characteristic {p} is not below 2**64")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    d = p - 1
    s = (d & -d).bit_length() - 1  # d = odd * 2**s
    for a in bases:
        x = pow(a, d >> s, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _simplex_budget():
    env = os.environ.get(MAX_SIMPLICES_ENV)
    if not env:
        return DEFAULT_MAX_SIMPLICES
    if not env.strip().isdecimal():
        raise InputError(f"{MAX_SIMPLICES_ENV}={env!r} is not a nonnegative integer")
    return int(env)


def _filtration_order(simplex):
    verts, diam = simplex
    return diam, len(verts), verts


@dataclass
class Filtration:
    """The flag filtration of an edge graph up to ``dim_cap``-simplices.

    Only the simplices below the top dimension, the reducer's columns, are
    stored: ``columns`` holds the cliques with at most dim_cap vertices as
    (vertex tuple, diameter), sorted by (diameter, dimension,
    vertex order).  ``weight`` maps each edge (i, j), i < j, of the
    filtration to its length; the top dimension is implicit in it.
    """

    columns: list
    weight: dict
    dim_cap: int
    n: int

    @property
    def simplices(self):
        """Every simplex, top dimension included, as (vertex tuple, diameter)
        sorted by (diameter, dimension, vertex order); every face precedes
        its cofaces.  Built on each read."""
        out = [(verts, d) for verts, d, _ext
               in _cliques(self.n, self.weight, self.dim_cap + 1)]
        out.sort(key=_filtration_order)
        return out


def _edge_data(lengths):
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
    return n, pairs


def _cliques(n, weight, dim_cap):
    """Every vertex and every clique below dimension dim_cap of the graph on
    0..n-1 whose edges are the keys (i, j), i < j, of ``weight``, yielded as
    (increasing vertex tuple, diameter, extensions): the extensions are the
    vertices above the last one adjacent to all of them, so a clique with
    dim_cap vertices has exactly len(extensions) top-dimension cofaces.
    Every vertex comes first, then a depth-first growth from each vertex."""
    if dim_cap < 1:
        raise InputError(f"dim_cap must be at least 1 (homology below it), got {dim_cap}")
    above = [set() for _ in range(n)]
    for (i, j) in weight:
        above[i].add(j)
    for v in range(n):
        yield (v,), 0.0, above[v]
    stack = [((v,), 0.0, above[v]) for v in range(n)] if dim_cap > 1 else []
    while stack:
        verts, diam, cands = stack.pop()
        for v in cands:
            d = diam
            for u in verts:
                w = weight[(u, v)]
                if w > d:
                    d = w
            new = verts + (v,)
            ext = cands & above[v]
            yield new, d, ext
            if len(new) < dim_cap:
                stack.append((new, d, ext))


def build_filtration(lengths, dim_cap) -> Filtration:
    """The flag filtration of all cliques with at most dim_cap+1 vertices.

    Missing (infinite) edges block cliques.  Top-dimension simplices are
    counted from the extension sets of their largest faces, not enumerated.
    Refuses with ``ResourceGuardError`` once the count of every simplex up
    to dim_cap exceeds the RIPSAW_MAX_SIMPLICES environment variable's cap.
    """
    budget = _simplex_budget()
    n, weight = _edge_data(lengths)
    columns = []
    count = 0
    for verts, d, ext in _cliques(n, weight, dim_cap):
        columns.append((verts, d))
        count += 1 + (len(ext) if len(verts) == dim_cap else 0)
        if count > budget:
            raise ResourceGuardError(
                f"simplex count exceeds cap {budget} "
                f"(aborted after {count} simplices)", count=count)
    columns.sort(key=_filtration_order)
    return Filtration(columns=columns, weight=weight, dim_cap=dim_cap, n=n)


def count_simplices(lengths, dim_cap):
    """Clique counts of the edge graph, per dimension 0..dim_cap, streamed
    from the enumeration ``build_filtration`` stores; the top dimension is
    counted from extension sets, and nothing is stored."""
    n, weight = _edge_data(lengths)
    counts = [0] * (dim_cap + 1)
    for verts, _d, ext in _cliques(n, weight, dim_cap):
        counts[len(verts) - 1] += 1
        if len(verts) == dim_cap:
            counts[dim_cap] += len(ext)
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
        """The diagram ``to_json_dict`` wrote; ``InputError`` when a key is
        missing, a value is not a number, or an entry is not a finite birth
        with a death at or after it."""
        try:
            field_char = int(data["field"])
            entries = [
                DiagramEntry(
                    dim=int(e["dim"]),
                    birth=float(e["birth"]),
                    death=INF if e["death"] == "inf" else float(e["death"]),
                )
                for e in data["entries"]
            ]
        except KeyError as exc:
            raise InputError(f"diagram has no {exc} key") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed diagram: {exc}") from None
        for e in entries:
            if not (e.dim >= 0 and math.isfinite(e.birth) and e.death >= e.birth):
                raise InputError(f"bad diagram entry: dim {e.dim}, birth "
                                 f"{e.birth!r}, death {e.death!r}")
        return cls(field_char=field_char, entries=entries)

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
    """(diagram, meta dict) from a JSON file; ``InputError`` when malformed."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        diag = PersistenceDiagram.from_json_dict(data)
    except ValueError as exc:  # also JSON, decoding and InputError failures
        raise InputError(f"{path}: {exc}") from None
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise InputError(f"{path}: diagram meta is not an object")
    return diag, meta


def _sorted_entries(entries):
    return sorted(entries, key=lambda e: (e.dim, e.birth, e.death))


def reduce(filtration: Filtration, p: int) -> PersistenceDiagram:
    """Persistence pairs over Z_p: union-find for dimension 0, coboundary
    reduction with clearing above it.

    Dimension 0 is Kruskal's algorithm over the edges in filtration order:
    an edge that merges two components kills a vertex class, the components
    left are essential, and the merging edges (a dimension-0 reduction's
    pivots) are cleared in dimension 1.  Dimensions d = 1 ..
    ``filtration.dim_cap - 1`` follow in increasing order, each visiting its
    d-simplices in reverse filtration order and skipping those that were
    pivots in dimension d - 1 (clearing): such a simplex kills a
    (d-1)-class and can pair with nothing in dimension d.

    Each coboundary column is generated from the edge graph when its simplex
    is visited: its rows are the (d+1)-simplices formed with the common
    neighbours of the simplex's vertices, with coefficient (-1)^k when the
    added vertex sits at position k.  A row is never stored as a simplex:
    it is the key rank(diameter) * n**(d+2) + base-n code of its vertices,
    rank indexing the sorted distinct lengths, so keys order like the
    filtration and the pivot is the smallest key.  A column whose pivot is
    still free needs no addition and is kept as its index in
    ``filtration.columns`` alone, its coboundary regenerated when a later
    column reaches that pivot; one that needed additions is kept reduced,
    as row and coefficient arrays (64-bit when every key fits).

    A d-simplex whose column keeps pivot tau yields (diameter of the
    simplex, diameter of tau]; one whose column reduces to zero is an
    essential class, death = inf.  The pairs depend only on the filtration's
    total order, so they equal those of boundary-matrix reduction.
    """
    if not is_prime(p):
        raise InputError(f"field characteristic {p} is not prime")
    from array import array  # here, not at module level: `ripsaw gen` never needs it

    n = filtration.n
    columns = filtration.columns
    lengths = sorted({0.0, *filtration.weight.values()})
    rank = {w: k for k, w in enumerate(lengths)}
    # adj[u][v] is the rank of the length of edge uv
    adj = [{} for _ in range(n)]
    for (i, j), w in filtration.weight.items():
        adj[i][j] = adj[j][i] = rank[w]

    merging = _merging_edges(n, filtration.weight, rank)
    entries = [DiagramEntry(dim=0, birth=0.0, death=INF)] * (n - len(merging))
    entries += [DiagramEntry(dim=0, birth=0.0, death=lengths[key // (n * n)])
                for key in merging if key >= n * n]  # zero-length merges are dropped
    cleared = set(merging)
    for dim in range(1, filtration.dim_cap):
        scale = n ** (dim + 2)
        pack = partial(array, "q") if max(len(lengths) * scale, p) <= 2**63 else tuple
        pivots = {}
        for idx in range(len(columns) - 1, -1, -1):
            verts, birth = columns[idx]
            if len(verts) != dim + 1:
                continue
            code = _code(verts, n)
            # its key as a row of dimension dim - 1
            if rank[birth] * (scale // n) + code in cleared:
                continue
            col = _coboundary(verts, code, rank[birth], adj, n, p)
            low = min(col, default=None)
            if low in pivots:
                low = _reduce_column(col, pivots, columns, rank, adj, n, p)
                if col:
                    # stored scaled so that the pivot coefficient is 1
                    inv = pow(col[low], -1, p)
                    pivots[low] = (pack(col), pack([c * inv % p for c in col.values()]))
            elif col:
                # a free pivot needs no addition: keep only the simplex
                pivots[low] = idx
            if not col:
                entries.append(DiagramEntry(dim=dim, birth=birth, death=INF))
            elif birth != lengths[low // scale]:
                entries.append(DiagramEntry(dim=dim, birth=birth, death=lengths[low // scale]))
        cleared = set(pivots)
    return PersistenceDiagram(field_char=p, entries=_sorted_entries(entries))


def _merging_edges(n, weight, rank):
    """Kruskal's algorithm over the edges in filtration order: the keys
    rank(length) * n**2 + i * n + j of the edges that merge two components."""
    parent = list(range(n))
    merging = []
    for key in sorted(rank[w] * n * n + i * n + j for (i, j), w in weight.items()):
        i, j = divmod(key % (n * n), n)
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            merging.append(key)
    return merging


def _reduce_column(col, pivots, columns, rank, adj, n, p):
    """Add pivot columns to ``col`` in place until its lowest row is a free
    pivot or it is zero; returns that lowest row."""
    # every row of col is in the heap; rows cancelled since are dropped
    # lazily when they reach the top
    heap = list(col)
    heapify(heap)
    while heap:
        low = heap[0]
        if low not in col:
            heappop(heap)
            continue
        other = pivots.get(low)
        if other is None:
            return low
        factor = col[low]
        if type(other) is int:
            # a pivot kept as its simplex: regenerate its column, scaled to
            # pivot coefficient 1 through the factor
            verts, birth = columns[other]
            gen = _coboundary(verts, _code(verts, n), rank[birth], adj, n, p)
            factor = factor * pow(gen[low], -1, p) % p
            other = (gen, gen.values())
        for row, c in zip(*other):
            if row in col:
                v = (col[row] - factor * c) % p
                if v:
                    col[row] = v
                else:
                    del col[row]
            else:
                col[row] = -factor * c % p
                heappush(heap, row)
    return None


def _code(verts, n):
    """The base-n code of a vertex tuple."""
    return sum(u * n**k for k, u in enumerate(reversed(verts)))


def _coboundary(verts, code, r, adj, n, p):
    """Coboundary column {row key: coefficient} of the simplex ``verts``
    with vertex code ``code`` and diameter rank ``r``."""
    nbrs = [adj[u] for u in verts]
    common = set(nbrs[0]).intersection(*nbrs[1:])
    if not common:
        return {}
    m = len(verts)
    scale = n ** (m + 1)
    # the code of verts with v inserted at position k is fixed[k] + v * place[k]
    place = [n ** (m - k) for k in range(m + 1)]
    fixed = [code // pw * pw * n + code % pw for pw in place]
    col = {}
    for v in common:
        rv = r
        for ranks in nbrs:
            if ranks[v] > rv:
                rv = ranks[v]
        k = bisect_left(verts, v)
        col[rv * scale + fixed[k] + v * place[k]] = p - 1 if k % 2 else 1
    return col
