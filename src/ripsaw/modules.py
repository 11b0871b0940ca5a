"""Explicit persistence modules over prime fields.

``normal_form`` decomposes a module given by its spaces and maps into
intervals, and ``ranks_from_barcode`` / ``barcode_from_ranks`` convert
between interval multiplicities and the rank table.  This is the only part
of ripsaw that needs numpy (the ``modules`` extra); the pipeline and the
CLI never import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class ExplicitModule:
    """Spaces V(0..L) over Z_p given by dims, with maps[c]: V(c) -> V(c+1)."""

    dims: list
    maps: list
    p: int

    def __post_init__(self):
        if len(self.maps) != len(self.dims) - 1:
            raise InputError("need one map per consecutive pair of spaces")
        for c, m in enumerate(self.maps):
            m = np.asarray(m, dtype=np.int64) % self.p
            if m.shape != (self.dims[c + 1], self.dims[c]):
                raise InputError(f"map {c} has shape {m.shape}, "
                                 f"expected {(self.dims[c + 1], self.dims[c])}")
            self.maps[c] = m

    @property
    def length(self):
        return len(self.dims) - 1


def rref_mod(mat, p):
    """Row-reduced echelon form over Z_p; returns (matrix, pivot columns)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if a[i, c] % p:
                sel = i
                break
        if sel is None:
            continue
        a[[r, sel]] = a[[sel, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_mod(mat, p):
    """Basis vectors (as rows) of the kernel of ``mat`` over Z_p."""
    a = np.asarray(mat, dtype=np.int64)
    cols = a.shape[1]
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if a.shape[0] == 0:
        return np.eye(cols, dtype=np.int64)
    red, pivots = rref_mod(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-red[r, fc]) % p
    return basis


class _Span:
    """Incremental span membership over Z_p via a growing echelon basis."""

    def __init__(self, dim, p):
        self.p = p
        self.rows = np.zeros((0, dim), dtype=np.int64)
        self.pivots = []

    def add_if_independent(self, vec):
        v = np.array(vec, dtype=np.int64) % self.p
        for row, piv in zip(self.rows, self.pivots):
            if v[piv]:
                v = (v - v[piv] * row) % self.p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = v * pow(int(v[piv]), -1, self.p) % self.p
        self.rows = np.vstack([self.rows, v])
        self.pivots.append(piv)
        return True


def normal_form(module: ExplicitModule):
    """Interval multiplicities N[(b, d)] of an explicit module.

    Sweeps births b ascending (b = -1 is "present from the start") and
    deaths d ascending; at (b, d) it extracts vectors of V(b+1) that die
    after step d (kernel of the composed map into V(d+1), everything when
    d is the final index), are independent of the vectors already collected
    in V(b+1), and records their forward orbits.
    """
    p = module.p
    length = module.length
    spans = [_Span(dim, p) for dim in module.dims]
    counts = {}
    for b in range(-1, length):
        start = b + 1
        dim_start = module.dims[start]
        if dim_start == 0:
            continue
        # composed[c] = map from V(start) to V(c), c >= start
        composed = {start: np.eye(dim_start, dtype=np.int64)}
        for c in range(start + 1, length + 1):
            composed[c] = module.maps[c - 1] @ composed[c - 1] % p
        for d in range(start, length + 1):
            if d < length:
                killer = module.maps[d] @ composed[d] % p
                candidates = kernel_mod(killer, p)
            else:
                candidates = np.eye(dim_start, dtype=np.int64)
            for vec in candidates:
                if not spans[start].add_if_independent(vec):
                    continue
                counts[(b, d)] = counts.get((b, d), 0) + 1
                for c in range(start + 1, d + 1):
                    spans[c].add_if_independent(composed[c] @ vec % p)
    return counts


def ranks_from_barcode(intervals, length):
    """Rank table r[s, t] = number of intervals with b < s <= t <= d,
    for 0 <= s <= t <= length.  ``intervals`` maps (b, d) to multiplicity."""
    r = np.zeros((length + 1, length + 1), dtype=np.int64)
    for (b, d), mult in intervals.items():
        for s in range(max(b + 1, 0), min(d, length) + 1):
            for t in range(s, min(d, length) + 1):
                r[s, t] += mult
    return r


def barcode_from_ranks(ranks):
    """Invert the rank table by inclusion-exclusion:
    N[b, d] = r[b+1, d] - r[b+1, d+1] - r[b, d] + r[b, d+1]."""
    ranks = np.asarray(ranks)
    length = ranks.shape[0] - 1

    def get(s, t):
        if s < 0 or t > length or s > t:
            return 0
        return int(ranks[s, t])

    intervals = {}
    for b in range(-1, length):
        for d in range(b + 1, length + 1):
            n = get(b + 1, d) - get(b + 1, d + 1) - get(b, d) + get(b, d + 1)
            if n < 0:
                raise InputError(f"inconsistent rank table at interval ({b}, {d}]")
            if n:
                intervals[(b, d)] = n
    return intervals
