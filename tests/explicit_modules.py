"""Explicit persistence modules over prime fields.

A module indexed by the line 0..L is determined up to isomorphism by its
rank invariant r[s, t] = rank of the composed map V(s) -> V(t) (Carlsson and
Zomorodian 2009; Chazal, de Silva, Glisse and Oudot 2016).  So
``normal_form`` computes that table by elimination over Z_p and inverts it
with ``barcode_from_ranks``; ``ranks_from_barcode`` goes the other way.
A test oracle: no pipeline stage or CLI subcommand uses it, so it lives
with the tests, which install numpy through the ``test`` extra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ripsaw.errors import InputError
from ripsaw.persistence import check_field


@dataclass
class ExplicitModule:
    """Spaces V(0..L) over Z_p given by dims, with maps[c]: V(c) -> V(c+1).

    p must be prime and ``max(dims) * p**2 < 2**63``, so that every product
    and sum the int64 elimination forms stays exact.  Map entries must be
    ints or numpy integers, not bools; an empty map may have any dtype.
    """

    dims: list
    maps: list
    p: int

    def __post_init__(self):
        if len(self.maps) != len(self.dims) - 1:
            raise InputError("need one map per consecutive pair of spaces")
        if max(1, *self.dims) * check_field(self.p)**2 >= 2**63:
            raise InputError(f"cannot compute over Z_{self.p} with dims {self.dims}: "
                             "need p prime and max(dims) * p**2 < 2**63")
        # a new list: the caller's maps are left as they were
        try:
            arrays = [np.asarray(m, dtype=object) for m in self.maps]
            for x in (x for a in arrays for x in a.flat):
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    raise TypeError(f"entry {x!r} is not an integer")
            self.maps = [a.astype(np.int64) % self.p for a in arrays]
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"maps are not integer matrices: {exc}") from None
        for c, m in enumerate(self.maps):
            if m.shape != (self.dims[c + 1], self.dims[c]):
                raise InputError(f"map {c} has shape {m.shape}, "
                                 f"expected {(self.dims[c + 1], self.dims[c])}")

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


def normal_form(module: ExplicitModule):
    """Interval multiplicities N[(b, d)] of an explicit module.

    An interval (b, d) is born at b + 1 (b = -1 is "present from the
    start") and alive through d.  Over a line the rank invariant is
    complete, so the intervals are ``barcode_from_ranks`` of the table of
    ranks of the composed maps V(s) -> V(t), 0 <= s <= t <= L, each
    composed one map at a time and ranked by ``rref_mod``.
    """
    p, length = module.p, module.length
    ranks = np.zeros((length + 1, length + 1), dtype=np.int64)
    for s in range(length + 1):
        composed = np.eye(module.dims[s], dtype=np.int64)
        for t in range(s, length + 1):
            if t > s:
                composed = module.maps[t - 1] @ composed % p
            ranks[s, t] = len(rref_mod(composed, p)[1])
    return barcode_from_ranks(ranks)


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
