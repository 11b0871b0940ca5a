"""Independent test oracles, deliberately written from scratch so they share
no code path with the implementations they check; ``simplex_counts`` reuses
the package's clique enumerator, and checks only what is counted without it."""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from explicit_modules import barcode_from_ranks
from ripsaw.errors import InputError
from ripsaw.persistence import DiagramEntry, PersistenceDiagram, _cliques, _graph
from ripsaw.sparsify import PrecisionProfile, SparseLengthMatrix

INF = math.inf


# --- cover tree: exhaustive parent search ------------------------------------

def brute_force_parent(tree, oracle, x):
    """Scan every node; valid candidates satisfy 2 d(x, y) <= d(y, parent y).
    Ties in distance go to the lowest node index."""
    best, best_d = -1, INF
    for y in range(tree.size):
        d = oracle.eval(x, y)
        if 2.0 * d <= tree.parent_dist[y] and d < best_d:
            best, best_d = y, d
    return best, best_d


# --- contraction trees: projection and time lookup -----------------------------

def project(ctree, x, n):
    """First ancestor of ordered node x (or x itself) with index <= n."""
    assert 0 <= n < ctree.size
    while x > n:
        x = ctree.parent[x]
    return x


def n_of_t(ctree, t):
    """Largest index k with times[k] >= t (the root always qualifies)."""
    assert t >= 0
    return bisect_right([-s for s in ctree.times], -t) - 1


# --- generators: scalar splitmix64 and a step-by-step solenoid sampler -------

def splitmix_draw(seed, counter):
    """One splitmix64 output for ``counter``, reduced to its top 53 bits as a
    fraction of 2**53; computed one value at a time, modulo 2**64."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    z = z ^ (z >> 31)
    return math.ldexp(z >> 11, -53)


def solenoid_step(phi, x, z):
    """One application of the solenoid's contracting doubling map."""
    two_pi_phi = 2.0 * math.pi * phi
    return (
        (2.0 * phi) % 1.0,
        x / 3.0 + math.cos(two_pi_phi),
        z / 3.0 + math.sin(two_pi_phi),
    )


def solenoid_embed(phi, x, z):
    """The point of R^3 that the solenoid coordinates (phi, x, z) stand for."""
    two_pi_phi = 2.0 * math.pi * phi
    radial = 1.0 + x / 3.0
    return (math.cos(two_pi_phi) * radial, math.sin(two_pi_phi) * radial, z)


def solenoid_reference(n, seed, iterations):
    """The solenoid sample point by point: three scalar draws per point, then
    ``iterations`` steps of the map, then the embedding."""
    points = []
    for i in range(n):
        phi = splitmix_draw(seed, 3 * i)
        x = 3.0 * splitmix_draw(seed, 3 * i + 1) - 1.5
        z = 3.0 * splitmix_draw(seed, 3 * i + 2) - 1.5
        for _ in range(iterations):
            phi, x, z = solenoid_step(phi, x, z)
        points.append(solenoid_embed(phi, x, z))
    return points


# --- exact H0: Prim's minimum spanning tree ------------------------------------

def prim_h0(oracle):
    """The exact H0 diagram of the Rips filtration of ``oracle``, over Z_2
    and every other field: H0 is single linkage, so every finite death is the
    length of a minimum spanning tree edge.  Prim's algorithm grows the tree
    from point 0 with n(n-1)/2 evaluations and O(n) memory; edges of length
    0 join duplicates at birth and give no entry, and one class never dies."""
    n = oracle.size
    reach = [INF] * n  # shortest edge from the tree to each point outside it
    outside = set(range(1, n))
    last, deaths = 0, []
    while outside:
        for k in outside:
            reach[k] = min(reach[k], oracle.eval(last, k))
        last = min(outside, key=reach.__getitem__)
        outside.remove(last)
        deaths.append(reach[last])
    entries = [DiagramEntry(0, 0.0, d) for d in sorted(deaths) if d > 0.0]
    return PersistenceDiagram(field_char=2, max_dim=0,
                              entries=entries + [DiagramEntry(0, 0.0, INF)])


# --- diagrams: rank by counting --------------------------------------------------

def rank_at(pairs, s, t):
    """Number of (birth, death) pairs with birth < s and death >= t
    (features persisting from s to t)."""
    if s > t:
        raise InputError("need s <= t")
    return sum(1 for b, d in pairs if b < s and d >= t)


# --- mod-p linear algebra (fresh implementation) ------------------------------

def _eliminate(rows, p):
    """Forward elimination over Z_p; returns (echelon matrix, pivot columns)."""
    a = np.array(rows, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        factors = a[:, c].copy()
        factors[r] = 0
        a = (a - np.outer(factors, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def gauss_rank(rows, p):
    if not len(rows):
        return 0
    _, pivots = _eliminate(rows, p)
    return len(pivots)


def gauss_kernel(rows, p):
    """Kernel basis (as rows) of the matrix whose rows are given."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    work, pivots = _eliminate(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for rr, pc in enumerate(pivots):
            vec[pc] = int(-work[rr, fc]) % p
        basis.append(vec)
    return basis


def random_invertible(rng, n, p):
    while True:
        a = rng.integers(0, p, size=(n, n))
        if gauss_rank(a.tolist(), p) == n:
            return a


# --- brute-force persistence oracle -------------------------------------------

def brute_force_diagram(dist, hom_cap, p):
    """Diagram of a full distance matrix via chain-level ranks.

    For every pair of critical scales the persistent rank of the map on
    homology is computed directly as rank([Z_s | B_t]) - rank(B_t) over Z_p;
    the rank tables are then inverted by inclusion-exclusion.  No column
    reduction, no shared filtration code.

    Returns {dim: sorted list of (birth, death)} with death = inf for
    essential classes.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    scales = sorted({0.0} | {float(dist[i, j]) for i in range(n) for j in range(i + 1, n)})
    last = len(scales) - 1

    def diameter(verts):
        if len(verts) == 1:
            return 0.0
        return max(float(dist[a, b]) for a, b in itertools.combinations(verts, 2))

    simplices = {}
    for k in range(hom_cap + 2):
        simplices[k] = [(verts, diameter(verts))
                        for verts in itertools.combinations(range(n), k + 1)]
    index = {k: {verts: i for i, (verts, _d) in enumerate(simplices[k])}
             for k in simplices}

    def boundary(k):
        """Rows: (k-1)-simplices of the full complex, columns: k-simplices."""
        mat = [[0] * len(simplices[k]) for _ in simplices[k - 1]]
        for j, (verts, _d) in enumerate(simplices[k]):
            for drop in range(len(verts)):
                face = verts[:drop] + verts[drop + 1:]
                mat[index[k - 1][face]][j] = (-1) ** drop % p
        return mat

    result = {}
    for k in range(hom_cap + 1):
        diam_k = [d for (_v, d) in simplices[k]]
        diam_k1 = [d for (_v, d) in simplices[k + 1]]
        bd_k = boundary(k) if k > 0 else None
        bd_k1 = boundary(k + 1)
        nk = len(simplices[k])

        cycles = []
        for s in scales:
            present = [j for j, d in enumerate(diam_k) if d <= s]
            if k == 0:
                basis = [[1 if j == c else 0 for j in range(nk)] for c in present]
            else:
                sub = [[row[j] for j in present] for row in bd_k]
                basis = []
                for vec in gauss_kernel(sub, p):
                    full = [0] * nk
                    for pos, j in enumerate(present):
                        full[j] = vec[pos]
                    basis.append(full)
            cycles.append(basis)

        images = []
        for t in scales:
            cols = [j for j, d in enumerate(diam_k1) if d <= t]
            images.append([[bd_k1[r][j] for r in range(nk)] for j in cols])
        rank_b = [gauss_rank(img, p) if img else 0 for img in images]

        table = np.zeros((last + 1, last + 1), dtype=np.int64)
        for si in range(last + 1):
            for ti in range(si, last + 1):
                stacked = cycles[si] + images[ti]
                r = gauss_rank(stacked, p) if stacked else 0
                table[si, ti] = r - rank_b[ti]
        intervals = barcode_from_ranks(table)
        pairs = []
        for (b, d), mult in intervals.items():
            birth = scales[b + 1]
            death = INF if d == last else scales[d + 1]
            pairs.extend([(birth, death)] * mult)
        result[k] = sorted(pairs)
    return result


def diagram_to_multisets(diagram, hom_cap):
    out = {k: [] for k in range(hom_cap + 1)}
    for e in diagram.entries:
        if e.dim <= hom_cap:
            out[e.dim].append((e.birth, e.death))
    return {k: sorted(v) for k, v in out.items()}


def full_distance_matrix(oracle):
    n = oracle.size
    return np.array([[oracle.eval(i, j) for j in range(n)] for i in range(n)])


def edge_list(dist):
    """The sparse edge list of a square distance matrix (a numpy array or a
    list of rows): its finite entries above the diagonal, with a profile
    that keeps every point."""
    n = len(dist)
    edges = [(i, j, float(dist[i][j])) for i in range(n) for j in range(i + 1, n)
             if math.isfinite(dist[i][j])]
    profile = PrecisionProfile(R=0.0, eps0=0.0, eps1=0.0, N=n, n=n)
    return SparseLengthMatrix(edges=edges, profile=profile)


# --- sparsifier: implied lengths of every pair ---------------------------------

def q_inv(profile, r):
    """Projection-error bound at scale r for the profile's truncated, scaled
    tree."""
    if r == INF:
        return INF
    half_eps0 = profile.eps0 / 2.0
    if profile.eps1 == 0.0:
        return min(r, half_eps0)
    factor = 2.0 + 2.0 / profile.eps1
    if r >= factor * half_eps0:
        return r / factor
    if r >= half_eps0:
        return half_eps0
    return r


@dataclass
class ImpliedLengths:
    """Full implied-length matrix (test oracle; quadratic memory)."""

    lbar: np.ndarray
    missing: np.ndarray

    def kept_edges(self):
        n = self.lbar.shape[0]
        return tuple(
            (i, j, float(self.lbar[i, j]))
            for i in range(n)
            for j in range(i + 1, n)
            if not self.missing[i, j]
        )


def implied_lengths(ctree, oracle, profile):
    """Implied lengths for every retained pair via the unpruned recursion."""
    cutoff = profile.cutoffs(ctree)
    n_keep = profile.N
    order = ctree.order
    lbar = np.zeros((n_keep, n_keep))
    missing = np.zeros((n_keep, n_keep), dtype=bool)
    for j in range(1, n_keep):
        pj = ctree.parent[j]
        tj = cutoff[j]
        for i in range(j):
            if i == pj:
                pp_missing, pp_lbar, dp = False, 0.0, 0.0
            else:
                a, b = (i, pj) if i < pj else (pj, i)
                pp_missing, pp_lbar = missing[a, b], lbar[a, b]
                dp = oracle.eval(order[i], order[pj])
            dd = oracle.eval(order[i], order[j])
            if pp_missing:                  # case (a)
                miss, val = True, pp_lbar
            elif tj >= dp and tj >= dd:     # case (d), wins the t == dp tie
                miss, val = False, dd
            elif tj <= dp:                  # case (b)
                miss, val = True, dp
            else:                           # case (c): dp < t < dd
                miss, val = True, tj
            missing[i, j] = missing[j, i] = miss
            lbar[i, j] = lbar[j, i] = val
    return ImpliedLengths(lbar=lbar, missing=missing)


# --- persistence: simplex keys and textbook boundary-matrix reduction ----------

def decode_simplex_key(key, m, n):
    """(vertex tuple, diameter rank) of the simplex with ``m`` of ``n``
    vertices whose key is rank * n**m plus its vertices read as base-n
    digits, the first most significant."""
    rank, code = divmod(key, n**m)
    digits = []
    for _ in range(m):
        code, digit = divmod(code, n)
        digits.append(digit)
    return tuple(digits[::-1]), rank


def simplex_counts(matrix, dim_cap):
    """Simplices per dimension 0..dim_cap of the sparse edge list's flag
    complex, the n vertices and every larger clique enumerated and counted,
    the top dimension included, as ``Filtration.simplices`` lists them;
    ``build_filtration`` counts the top dimension from extension sets instead."""
    adj = _graph(matrix)[1]
    counts = [len(adj)] + [0] * dim_cap
    for verts, _code, _d, _ext in _cliques(adj, dim_cap + 1):
        counts[len(verts) - 1] += 1
    return counts


def boundary_reduce(filtration, p):
    """Column-reduce the full boundary matrix over Z_p, in filtration order.

    Homology without clearing, the textbook algorithm: every simplex gets a
    boundary column and the pivot is the latest face.  Pairs equal those of
    ``ripsaw.persistence.reduce``, which reduces coboundaries instead.
    Reports dimensions up to ``filtration.dim_cap - 1``.
    """
    simplices = filtration.simplices
    report_cap = filtration.dim_cap - 1
    index = {verts: k for k, (verts, _d) in enumerate(simplices)}
    cols = [
        {index[verts[:k] + verts[k + 1:]]: (-1) ** k % p for k in range(len(verts))}
        if len(verts) > 1 else {}
        for verts, _d in simplices
    ]
    pivots = {}
    for j, col in enumerate(cols):
        while col:
            low = max(col)
            k = pivots.get(low)
            if k is None:
                pivots[low] = j
                break
            other = cols[k]
            factor = col[low] * pow(other[low], -1, p) % p
            for row, c in other.items():
                v = (col.get(row, 0) - factor * c) % p
                if v:
                    col[row] = v
                else:
                    col.pop(row, None)

    entries = []
    for low, j in pivots.items():
        verts, birth = simplices[low]
        death = simplices[j][1]
        if birth != death and len(verts) - 1 <= report_cap:
            entries.append(DiagramEntry(dim=len(verts) - 1, birth=birth, death=death))
    for j, col in enumerate(cols):
        verts, birth = simplices[j]
        if not col and j not in pivots and len(verts) - 1 <= report_cap:
            entries.append(DiagramEntry(dim=len(verts) - 1, birth=birth, death=INF))
    entries.sort(key=lambda e: (e.dim, e.birth, e.death))
    return PersistenceDiagram(field_char=p, max_dim=report_cap, entries=entries)
