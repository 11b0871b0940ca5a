"""Desk-scale persistent homology over prime fields.

``build_filtration`` turns a sparse edge list, as ``sparsify`` and
``read_sparse`` build it, into its flag filtration up to a simplex-dimension
cap: one stable sort by length ranks the edges (ties keep
``SparseLengthMatrix``'s (i, j) order), and the vertices, the edges and the
simplices below the top dimension are stored, each as one integer key,
rank(diameter) * n**(d+1) + base-n code of its d+1 vertices, in filtration
order; the ranked graph is built from the edge keys on first read.
``reduce`` pairs the simplices, dimension 0 by union-find over the edges and
the rest by reducing coboundary columns on that graph with clearing, naming
a simplex, a coface or a pivot that needed no addition by its key alone.

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
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .errors import InputError, ResourceGuardError, excerpt
from .sparsify import PrecisionProfile, SparseLengthMatrix, json_int, json_number

INF = math.inf

MAX_SIMPLICES_ENV = "RIPSAW_MAX_SIMPLICES"
DEFAULT_MAX_SIMPLICES = 2_000_000


def check_field(p):
    """``p`` if it is an int prime below 2**64, which Miller-Rabin over the
    prime bases up to 37 decides exactly; InputError for anything else."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    prime = isinstance(p, int) and not isinstance(p, bool) and 2 <= p < 2**64
    if prime and p not in bases:  # a base that divides p is a witness
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
                prime = False
                break
    if not prime:
        raise InputError(f"field characteristic is not an integer prime below 2**64 ({excerpt(p)})")
    return p


def _simplex_budget():
    env = os.environ.get(MAX_SIMPLICES_ENV) or str(DEFAULT_MAX_SIMPLICES)
    try:
        if env.strip().isdecimal():
            return int(env)
    except ValueError:  # digits past Python's integer-string limit
        pass
    raise InputError(f"{MAX_SIMPLICES_ENV} is not a nonnegative integer ({excerpt(env)})")


def _guard(count, budget):
    """``count``, the simplices stored so far; ``ResourceGuardError`` once it
    exceeds ``budget``."""
    if count > budget:
        raise ResourceGuardError(f"simplex count exceeds cap {budget} "
                                 f"(aborted after {count} simplices)")
    return count


@dataclass
class Filtration:
    """The flag filtration of a ranked graph up to ``dim_cap``-simplices.

    ``lengths`` lists the distinct edge lengths in increasing order, 0.0
    included.  The vertices, the edges (union-find reads them even as the top
    dimension) and the simplices below the top are stored as integer keys:
    ``columns[d]``, for d = 0, 1 and each d < dim_cap with d-simplices (the
    lowest, as cliques are closed under faces), lists the keys rank(diameter)
    * n**(d+1) + base-n code of their d+1 vertices in increasing order, ties
    in ``SparseLengthMatrix``'s (i, j) order.  The top dimension is implicit in
    ``adj``, built from ``columns[1]`` on first read: adj[u][v] is uv's rank.
    """

    lengths: list
    dim_cap: int
    columns: list

    @cached_property
    def adj(self):
        n = len(vertex := self.columns[0])  # the dict keys share its ints
        adj = [{} for _ in vertex]
        for key in self.columns[1]:
            i, j = divmod(key % (n * n), n)
            adj[i][vertex[j]] = adj[j][vertex[i]] = key // (n * n)
        return adj

    @property
    def simplices(self):
        """Every simplex, top dimension included, as (vertex tuple, diameter)
        sorted by (diameter, dimension, vertex order); every face precedes
        its cofaces.  Built on each read."""
        out = [(0, 1, (v,)) for v in self.columns[0]] + sorted(
            (r, len(verts), verts) for verts, _, r in _cliques(self.adj, self.dim_cap + 1))
        return [(verts, self.lengths[r]) for r, _m, verts in out]


def _cliques(adj, dim_cap):
    """Every clique of 2 to dim_cap >= 2 vertices of the ranked graph ``adj``
    on n vertices, grown depth-first from each vertex, yielded as (increasing
    vertex tuple, its base-n code, diameter rank): the code reads the
    vertices as digits, the last one least significant."""
    n = len(adj)
    above = [{u for u in ranks if u > v} for v, ranks in enumerate(adj)]
    stack = [((v,), v, 0, above[v]) for v in range(n)]
    while stack:
        verts, code, diam, cands = stack.pop()
        for v in cands:
            d = diam
            for u in verts:
                r = adj[u][v]
                if r > d:
                    d = r
            new = verts + (v,)
            yield new, code * n + v, d
            if len(new) < dim_cap:
                stack.append((new, code * n + v, d, cands & above[v]))


def build_filtration(matrix, dim_cap) -> Filtration:
    """The flag filtration of all cliques with at most dim_cap+1 vertices of
    the ``SparseLengthMatrix`` ``matrix`` (``InputError`` for anything else,
    and unless ``dim_cap`` is an int >= 1).

    One walk over the edges, stably sorted by length, ranks them; ties keep
    ``SparseLengthMatrix``'s (i, j) order, so the edge keys come out sorted.
    Only at dim_cap >= 3 are larger cliques enumerated, on ``Filtration.adj``
    (built on first read); the top dimension is left implicit for ``reduce``.
    Refuses with ``ResourceGuardError`` once the keys it stores, vertices and
    edges first, exceed the cap in RIPSAW_MAX_SIMPLICES; ``reduce`` goes on
    counting.
    """
    if not isinstance(matrix, SparseLengthMatrix):
        raise InputError("build_filtration takes a SparseLengthMatrix, "
                         f"not {type(matrix).__name__}")
    budget = _simplex_budget()
    if type(dim_cap) is not int or dim_cap < 1:  # a bool is no int here
        raise InputError("dim_cap must be at least 1 (homology below it) and an int, "
                         f"got {type(dim_cap).__name__} ({excerpt(dim_cap)})")
    n = matrix.profile.N
    lengths, edges, base = [0.0], [], 0  # base = rank * n**2 of the last length
    for i, j, w in sorted(matrix.edges, key=itemgetter(2)):
        if w > lengths[-1]:
            lengths.append(w)
            base += n * n
        edges.append(base + i * n + j)
    filt = Filtration(lengths=lengths, dim_cap=dim_cap, columns=[list(range(n)), edges])
    columns, count = filt.columns, _guard(n + len(edges), budget)
    for verts, code, d in _cliques(filt.adj, dim_cap) if dim_cap > 2 else ():
        if (m := len(verts)) > 2:  # edges are stored already
            if m > len(columns):  # the first clique of m vertices
                columns.append([])
            columns[m - 1].append(d * n**m + code)
            count = _guard(count + 1, budget)
    for keys in columns[2:]:
        keys.sort()
    return filt


@dataclass(frozen=True)
class DiagramEntry:
    dim: int
    birth: float
    death: float


@dataclass(frozen=True)
class PersistenceDiagram:
    """Per-dimension multiset of (birth, death] entries over Z_p, for the
    dimensions 0 .. ``max_dim`` that were computed, held as a tuple.  A
    diagram is valid or is never built: ``InputError`` unless the field is a
    prime below 2**64, each entry has dim >= 0 and a finite birth >= 0 with a
    death at or after it, and max_dim is >= 0 and every entry's dim."""

    field_char: int
    max_dim: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        check_field(self.field_char)
        for e in self.entries:
            if not (e.dim >= 0 and 0.0 <= e.birth < INF and e.death >= e.birth):
                raise InputError(f"bad diagram entry: dim {e.dim}, birth "
                                 f"{e.birth!r}, death {e.death!r}")
        if self.max_dim < max((e.dim for e in self.entries), default=0):
            raise InputError(f"diagram max_dim {self.max_dim} is below 0 or an entry's dim")

    def dims(self):
        return sorted({e.dim for e in self.entries})

    def pairs(self, dim):
        """The (birth, death) pairs of one homological dimension."""
        return [(e.birth, e.death) for e in self.entries if e.dim == dim]


def dump_diagram(path, diagram: PersistenceDiagram, profile, config):
    """Write ``diagram`` as JSON: its ``field``, ``max_dim`` and ``entries``
    (an infinite death as the string "inf"), with the profile and the config
    in its ``meta``."""
    entries = [{"dim": e.dim, "birth": e.birth, "death": "inf" if e.death == INF else e.death}
               for e in diagram.entries]
    data = {"field": diagram.field_char, "max_dim": diagram.max_dim, "entries": entries,
            "meta": {"profile": profile.as_meta(), "config": config}}
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_diagram(path):
    """(diagram, its ``PrecisionProfile``) from a JSON file as ``dump_diagram``
    writes it; ``InputError`` naming the file when a key is missing, a value
    is not a JSON number (field, max_dim and dim not JSON integers; an
    infinite death only the string "inf"), the constructor refuses the
    diagram, or ``meta`` records no profile."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        try:
            field_char, max_dim = json_int(data["field"]), json_int(data["max_dim"])
            entries = []
            for e in data["entries"]:
                dim, birth, death = json_int(e["dim"]), json_number(e["birth"]), e["death"]
                if death == "inf":
                    death = INF
                elif math.isinf(death := json_number(death)):
                    raise ValueError(f'death {e["death"]!r} is infinite but not "inf"')
                entries.append(DiagramEntry(dim=dim, birth=birth, death=death))
        except KeyError as exc:
            raise InputError(f"diagram has no {exc} key") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed diagram: {exc}") from None
        diag = PersistenceDiagram(field_char=field_char, max_dim=max_dim, entries=entries)
        meta = data.get("meta")
        if not (isinstance(meta, dict) and "profile" in meta):
            raise InputError("diagram has no 'meta' object with a 'profile' key")
        profile = PrecisionProfile.from_meta(meta["profile"])
    except ValueError as exc:  # also JSON, decoding and InputError failures
        raise InputError(f"{path}: {exc}") from None
    return diag, profile


def reduce(filtration: Filtration, p: int) -> PersistenceDiagram:
    """Persistence pairs over Z_p: union-find for dimension 0, coboundary
    reduction with clearing above it.

    Dimension 0 is Kruskal's algorithm over ``columns[1]``, the sorted edges:
    an edge that merges two components kills a vertex class, the components
    left are essential, and the merging edges (a dimension-0 reduction's
    pivots) are cleared in dimension 1.  The dimensions 1 <= d < dim_cap of
    ``filtration.columns`` follow in increasing order, each visiting its
    d-simplices in reverse filtration order and skipping the keys of
    dimension d - 1's pivot table (clearing): such a simplex kills a
    (d-1)-class and can pair with nothing in dimension d.

    Each coboundary column is generated from ``filtration.adj``, read only
    past dimension 0, when its simplex is visited: its rows are the
    (d+1)-simplices formed with the common neighbours of the simplex's
    vertices, with coefficient (-1)^k when the added vertex sits at position
    k.  A row is never stored as a simplex: it is the key rank(diameter) *
    n**(d+2) + base-n code of its vertices, the encoding of the columns, so
    keys order like the filtration, the pivot is the smallest key, and a
    d-simplex is cleared when its own key was a pivot in dimension d - 1.
    A column whose pivot is still free needs no addition and is kept as its
    simplex's key alone, its coboundary regenerated when a later column
    reaches that pivot; one that needed additions is kept reduced, as row
    and coefficient arrays (64-bit when every key fits).  The stored rows
    count on from ``columns``' keys against the cap in RIPSAW_MAX_SIMPLICES,
    with ``ResourceGuardError`` once the total exceeds it.

    A d-simplex whose column keeps pivot tau yields (diameter of the
    simplex, diameter of tau]; one whose column reduces to zero is an
    essential class, death = inf.  The pairs depend only on the filtration's
    total order, so they equal those of boundary-matrix reduction.
    """
    check_field(p)
    lengths, columns = filtration.lengths, filtration.columns
    n, budget, count = len(columns[0]), _simplex_budget(), sum(map(len, columns))
    pivots = _merging_edges(columns[1], n)
    entries = [DiagramEntry(dim=0, birth=0.0, death=INF)] * (n - len(pivots))
    entries += [DiagramEntry(dim=0, birth=0.0, death=lengths[key // (n * n)])
                for key in pivots if key >= n * n]  # zero-length merges are dropped
    for dim in range(1, min(filtration.dim_cap, len(columns))):
        cleared, pivots = pivots, {}
        scale = n ** (dim + 2)
        pack = partial(array, "q") if max(len(lengths) * scale, p) <= 2**63 else tuple
        for key in reversed(columns[dim]):
            if key in cleared:
                continue
            col = _coboundary(key, dim + 1, filtration.adj, n, p)
            low = min(col, default=None)
            if low in pivots:
                low = _reduce_column(col, pivots, dim + 1, filtration.adj, n, p)
                if col:
                    # stored scaled so that the pivot coefficient is 1
                    inv = pow(col[low], -1, p)
                    pivots[low] = (pack(col), pack([c * inv % p for c in col.values()]))
                    count = _guard(count + len(col), budget)
            elif col:
                # a free pivot needs no addition: keep only the simplex's key
                pivots[low] = key
            r = key // (scale // n)
            if not col or r != low // scale:  # zero-length pairs are dropped
                death = lengths[low // scale] if col else INF
                entries.append(DiagramEntry(dim=dim, birth=lengths[r], death=death))
    return PersistenceDiagram(field_char=p, max_dim=filtration.dim_cap - 1,
                              entries=sorted(entries, key=lambda e: (e.dim, e.birth, e.death)))


def _merging_edges(edges, n):
    """Kruskal's algorithm over ``edges``, the keys rank * n**2 + i * n + j
    of the edges ij, i < j, in filtration order (``columns[1]``): the set of
    the keys of the edges that merge two components."""
    parent = list(range(n))
    merging = set()
    for key in edges:
        i, j = divmod(key % (n * n), n)
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            merging.add(key)
    return merging


def _reduce_column(col, pivots, m, adj, n, p):
    """Add pivot columns to ``col``, the coboundary of a simplex with ``m``
    vertices, in place until its lowest row is a free pivot or it is zero;
    returns that lowest row."""
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
            # a pivot kept as its simplex's key: regenerate its column, scaled to
            # pivot coefficient 1 through the factor
            gen = _coboundary(other, m, adj, n, p)
            # gen[low] is 1 or p - 1, each its own inverse mod p
            factor = factor * gen[low] % p
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


def _coboundary(key, m, adj, n, p):
    """Coboundary column {row key: coefficient} of the simplex with ``m``
    vertices and key ``key`` = rank(diameter) * n**m + base-n vertex code."""
    # the code of verts with v inserted at position k is fixed[k] + v * place[k]
    place = [n ** (m - k) for k in range(m + 1)]
    r, code = divmod(key, place[0])
    verts = [code // pw % n for pw in place[1:]]
    nbrs = [adj[u] for u in verts]
    common = set(nbrs[0]).intersection(*nbrs[1:])
    scale = n ** (m + 1)
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
