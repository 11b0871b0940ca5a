"""Sparse length matrices from contraction trees.

A precision profile fixes the interleaving budget: a relative error ``eps1``,
an absolute error ``eps0`` induced by truncating to the N most significant
points, and the radius cap R.  The induced shift map is

    psi(r) = min(R+, r + max(eps0, eps1 * r))

with R+ the float just above R (a class dying at exactly R is still alive at
R under the (b, d] convention), and the per-point edge cutoffs are the
contraction times scaled by ``q(r) = (2 + 2/eps1) * r`` (infinite when
eps1 == 0, i.e. keep everything).

The sparsifier visits the retained points j = 1 .. N-1 in contraction
order.  The parent of a pair (i, j), i < j, is the pair {i, p} with p the
tree parent of j, and a point's pair with itself has length 0 and is never
missing, so the parent pair of (p, j) is (p, p).  With dd = d(x_i, x_j),
dp = the parent pair's length and t = cutoff of x_j, the cases are

  (a) parent pair missing: edge missing, implied length that of the parent
  (d) t >= max(dd,dp):     edge kept at its true length dd
  (b) t <= dp:             edge missing, implied length dp
  (c) dp < t < dd:         edge missing, implied length t

with (d) deciding the measure-zero tie t == dp >= dd toward keeping (this
is what guarantees that parent edges, where dp == 0, are never missing).
So a pair (i, j) can be kept only when i is p or shares a kept edge with
p.  Every such i comes before j, so its edge with p is known when j is
visited, and d(x_i, x_j) is evaluated only when t >= dp.  The full
implied-length matrix is quadratic in memory, so only the tests build it,
as an oracle; the production path never does.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError, excerpt, read_rows, render_rows

INF = math.inf


def json_int(value):
    """``value`` if it is a JSON integer (an int, not a bool); TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def json_number(value):
    """``value`` as a float if it is a JSON number (an int or a float, not a
    bool); TypeError otherwise, ValueError for an int beyond float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value} is beyond float range") from None


@dataclass(frozen=True)
class PrecisionProfile:
    """Interleaving budget plus the evaluable maps psi, psi_inv and q.

    ``n`` is the original point count and ``N`` the retained count.  A
    profile is valid or is never built: ``InputError`` unless R, eps0 and
    eps1 are finite and >= 0, and 1 <= N <= n.
    """

    R: float
    eps0: float
    eps1: float
    N: int
    n: int

    def __post_init__(self):
        bad = [f"{k} ({excerpt(v)})" for k, v in self.as_meta().items()
               if not (1 <= self.N <= self.n if k in ("n", "N") else math.isfinite(v) and v >= 0.0)]
        if bad:
            raise InputError(f"profile out of range: {', '.join(bad)}")

    def psi(self, r):
        """Shift map: how far scales may move under sparsification."""
        if r == INF:
            return INF
        return min(math.nextafter(self.R, INF), r + max(self.eps0, self.eps1 * r))

    def psi_inv(self, x):
        """Smallest preimage of x under the uncapped shift map (0 below eps0)."""
        if x <= self.eps0:
            return 0.0
        if self.eps1 == 0.0 or x <= (1.0 + 1.0 / self.eps1) * self.eps0:
            return x - self.eps0
        return x / (1.0 + self.eps1)

    def q(self, r):
        """Cutoff scaling applied to contraction times; infinite when
        eps1 == 0, which keeps every pair (duplicates, at time 0, too)."""
        if self.eps1 == 0.0:
            return INF
        if r == 0.0:  # 2/eps1 overflows for subnormal eps1, and inf * 0 is nan
            return 0.0
        return (2.0 + 2.0 / self.eps1) * r

    def cutoffs(self, ctree):
        """Edge cutoffs of the retained points of ``ctree``: their contraction
        times scaled by q (index 0 is the root's, always infinite)."""
        if ctree.size != self.n:
            raise InputError("profile was built for a different tree")
        return [self.q(t) for t in ctree.times[:self.N]]

    def as_meta(self):
        return {
            "n": self.n,
            "N": self.N,
            "eps0": self.eps0,
            "eps1": self.eps1,
            "R": self.R,
        }

    @classmethod
    def from_meta(cls, meta):
        """The profile ``as_meta`` wrote; ``InputError`` when ``meta`` is not
        a JSON object, a key is missing, a value is not a JSON number (a
        count not a JSON integer), the profile is out of range, or it records
        a truncation ``T`` (older files wrote ``"T": null``)."""
        if not isinstance(meta, dict):
            raise InputError("malformed profile: not a JSON object")
        try:
            profile = cls(
                R=json_number(meta["R"]),
                eps0=json_number(meta["eps0"]),
                eps1=json_number(meta["eps1"]),
                N=json_int(meta["N"]),
                n=json_int(meta["n"]),
            )
        except KeyError as exc:
            raise InputError(f"profile has no {exc} key") from None
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed profile: {exc}") from None
        if meta.get("T") is not None:
            raise InputError(f"truncated profile (T = {meta['T']!r}) is not supported")
        return profile


def make_profile(ctree, keep=None, eps1=0.0):
    """Profile for retaining the ``keep`` most significant points of a tree.

    ``eps0`` is twice the contraction time of the first discarded point (0
    when nothing is discarded); ``PrecisionProfile.cutoffs`` derives the edge
    cutoffs from the same tree.  ``InputError`` unless ``keep`` is None or
    an int and ``eps1`` an int or a float (a bool is neither).
    """
    size = ctree.size
    try:
        n_keep = size if keep is None else json_int(keep)
        eps1 = json_number(eps1)
    except (TypeError, ValueError) as exc:
        raise InputError(f"make_profile: {exc}") from None
    eps0 = 2.0 * ctree.times[n_keep] if 0 < n_keep < size else 0.0
    return PrecisionProfile(R=ctree.max_reach, eps0=eps0, eps1=eps1, N=n_keep, n=size)


@dataclass(frozen=True)
class SparseLengthMatrix:
    """Symmetric edge list over the ``profile.N`` retained points, stored
    once with i < j, each edge at its exact oracle distance; absent pairs are
    missing (infinite length).  Valid or never built: ``InputError``, opening
    with the edge's 1-based position, unless each edge (i, j, w) has
    0 <= i < j < N, a finite w >= 0 and (i, j) after the previous edge's."""

    edges: tuple
    profile: PrecisionProfile

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        n, last = self.profile.N, (0, 0)  # every pair i < j is after (0, 0)
        for k, (i, j, w) in enumerate(self.edges, start=1):
            if not 0 <= i < j < n:
                raise InputError(f"{k}: edge ({i}, {j}) out of range")
            if not 0.0 <= w < INF:
                raise InputError(f"{k}: edge length {w!r} is not a finite nonnegative number")
            if (i, j) <= last:
                raise InputError(f"{k}: edge ({i}, {j}) does not come after {last}")
            last = (i, j)


def sparsify(ctree, oracle, profile: PrecisionProfile) -> SparseLengthMatrix:
    """Kept edges of the retained points, found in contraction order and
    gathered per i into (i, j) order; ``InputError`` when oracle and tree differ in size."""
    if oracle.size != ctree.size:
        raise InputError(f"tree has {ctree.size} nodes but input has {oracle.size} points")
    cutoff = profile.cutoffs(ctree)
    order, parent, dist = ctree.order, ctree.parent, oracle.eval
    last = {p: j for j, p in enumerate(parent[:profile.N]) if j}  # last child
    near = {p: [] for p in last}  # kept edges of points with a child still to try
    edges = []
    for j in range(1, profile.N):
        t, p = cutoff[j], parent[j]
        # cutoffs never increase, so an edge of p longer than t is missing
        # (case (b)) for j and for every later child of p
        near[p] = tried = [e for e in near[p] if e[2] <= t]
        if last[p] == j:
            del near[p]
        for a, b, _dp in [(p, p, 0.0), *tried]:
            i = a if b == p else b
            if t >= (dd := dist(order[i], order[j])):  # case (d)
                edge = (i, j, dd)
                edges.append(edge)
                if i in near:
                    near[i].append(edge)
                if j in near:
                    near[j].append(edge)
    # each i is found at most once per j, and j only grows, so each row is in
    # j order (rows grown inside the loop, among the edges, strand freed memory)
    rows = [[] for _ in range(profile.N)]
    for edge in edges:
        rows[edge[0]].append(edge)
    del edges  # the rows hold every edge now
    return SparseLengthMatrix(edges=(e for row in rows for e in row), profile=profile)


def _meta_path(path):
    return Path(path).with_suffix(".meta.json")


def write_sparse(path, matrix: SparseLengthMatrix, config):
    """Write "i j d" lines, in the (i, j) order the matrix holds, plus the
    sidecar: the profile's {n, N, eps0, eps1, R}, the edge count ``edges``,
    the ``sha256`` of the lines written and ``config``."""
    digest = hashlib.sha256()
    with open(path, "w") as fh:
        for block in render_rows(matrix.edges):
            fh.write(block)
            digest.update(block.encode())
    meta = dict(matrix.profile.as_meta(), edges=len(matrix.edges), sha256=digest.hexdigest(),
                config=config)
    with open(_meta_path(path), "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_sparse(path) -> SparseLengthMatrix:
    """The edges and profile ``write_sparse`` wrote; ``InputError`` naming the
    file for a malformed sidecar, one without ``sha256`` or a JSON integer
    ``edges``, a line other than an "i j d" row as ``errors.read_rows``
    accepts it, edges ``SparseLengthMatrix`` refuses (line k holds edge k),
    or a line count and byte sha256 other than the sidecar's."""
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise InputError(f"missing metadata sidecar {meta_path}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        profile = PrecisionProfile.from_meta(meta)
        count, sha256 = json_int(meta["edges"]), meta["sha256"]
    except KeyError as exc:
        raise InputError(f"{meta_path}: sidecar has no {exc} key") from None
    except TypeError as exc:
        raise InputError(f"{meta_path}: sidecar 'edges': {exc}") from None
    except ValueError as exc:  # also JSON, decoding and InputError failures
        raise InputError(f"{meta_path}: {exc}") from None
    digest = hashlib.sha256()
    _head, edges = read_rows(path, "i j d", digest=digest)
    try:
        matrix = SparseLengthMatrix(edges=edges, profile=profile)
    except InputError as exc:
        raise InputError(f"{path}:{exc}") from None
    if count != len(edges):
        raise InputError(f"{path}: {len(edges)} edges, where {meta_path} records {count!r}")
    if digest.hexdigest() != sha256:
        raise InputError(f"{path}: edges do not match the sha256 {meta_path} records")
    return matrix
