"""Simplified cover trees built by sequential insertion, and the tightened
contraction trees derived from them.

A node's a-priori radius is ``r(x) = 2 * d(x, parent x)`` (infinite for the
root).  A new point may attach to candidate ``y`` only when
``2 * d(x, y) <= d(y, parent y)``; its parent is the closest valid candidate.
That rule forces every parent edge to be at most half the grandparent edge,
which is what makes the pruned search and the density bound work.

Tightening replaces the geometric-series radii by exact subtree reaches and
reorders nodes by decreasing reach, yielding a contraction tree: projecting
any point onto the nodes with reach >= t moves it by at most t.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import InputError

INF = math.inf
CONFIG_PREFIX = "# config "


class CoverTree:
    """Insertion-ordered tree: parent map, parent distances, sorted children."""

    def __init__(self):
        self.parent = [-1]
        self.parent_dist = [INF]
        self.children = [[]]

    @property
    def size(self):
        return len(self.parent)

    def radius(self, x):
        """A-priori radius r(x) = 2 d(x, parent x); bounds d to any descendant
        by r(x)/2 and hence d from grandparent to any descendant by r(x)."""
        return 2.0 * self.parent_dist[x]

    def add(self, parent, dist):
        x = len(self.parent)
        self.parent.append(parent)
        self.parent_dist.append(dist)
        self.children.append([])
        # keep children sorted by descending radius so scans can stop early;
        # equal radii keep insertion order
        sibs = self.children[parent]
        pos = len(sibs)
        while pos > 0 and self.parent_dist[sibs[pos - 1]] < dist:
            pos -= 1
        sibs.insert(pos, x)
        return x


def find_parent(tree: CoverTree, oracle, x):
    """Closest valid attachment point for ``x`` among the tree's nodes.

    Explores from the root, pruning the subtree of a child ``c`` of ``y``
    whenever ``d(x, y) > r(c)``: no node at or below ``c`` can then be valid.
    Ties in distance resolve to the lowest node index, so the result equals
    the brute-force argmin over all valid candidates exactly.
    """
    best_d = INF
    best = -1
    stack = [0]
    while stack:
        y = stack.pop()
        d = oracle.eval(x, y)
        if 2.0 * d <= tree.parent_dist[y] and (d < best_d or (d == best_d and y < best)):
            best_d, best = d, y
        for c in tree.children[y]:
            if d <= tree.radius(c):
                stack.append(c)
            else:
                break
    return best, best_d


def build(oracle) -> CoverTree:
    """Insert points 0, 1, ... in order; point 0 is the root."""
    tree = CoverTree()
    for x in range(1, oracle.size):
        parent, dist = find_parent(tree, oracle, x)
        tree.add(parent, dist)
    return tree


@dataclass
class ContractionTree:
    """Reordered tree with nonincreasing contraction times.

    ``order[k]`` is the original point index of ordered node k, ``parent`` is
    the strictly decreasing parent map on ordered indices, and ``times`` are
    the reach values, ``times[0] == inf``.
    """

    order: list
    parent: list
    times: list
    children: list = field(init=False, repr=False, compare=False)
    _neg_times: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.children = [[] for _ in self.order]
        for k in range(1, len(self.order)):
            self.children[self.parent[k]].append(k)
        self._neg_times = [-t for t in self.times]

    @property
    def size(self):
        return len(self.order)

    def project(self, x, n):
        """First ancestor of x (or x itself) with ordered index <= n."""
        if not 0 <= n < self.size:
            raise InputError(f"truncation index {n} out of range")
        while x > n:
            x = self.parent[x]
        return x

    def n_of_t(self, t):
        """Largest index k with times[k] >= t (the root always qualifies)."""
        if t < 0:
            raise InputError("scale must be nonnegative")
        return bisect_right(self._neg_times, -t) - 1


def tighten(tree: CoverTree, oracle) -> ContractionTree:
    """Replace a-priori radii by exact subtree reaches and reorder.

    ``spread(x)`` is the largest distance from any descendant of x (x
    included) to x's parent; ``reach(x)`` is the largest spread in x's
    subtree.  Reaches never exceed the a-priori radii, are monotone along the
    tree, and serve as the contraction times after sorting nodes by
    (reach descending, insertion index ascending).
    """
    n = tree.size
    spread = [0.0] * n
    for y in range(1, n):
        x = y
        while x != 0:
            d = oracle.eval(y, tree.parent[x])
            if d > spread[x]:
                spread[x] = d
            x = tree.parent[x]
    reach = list(spread)
    for x in range(n - 1, 0, -1):
        p = tree.parent[x]
        if p != 0 and reach[x] > reach[p]:
            reach[p] = reach[x]
    reach[0] = INF

    # reach is monotone along tree edges and parents have smaller insertion
    # indices, so every parent precedes its children in this order
    order = sorted(range(n), key=lambda i: (-reach[i], i))
    pos = [0] * n
    for k, old in enumerate(order):
        pos[old] = k
    parent = [-1] + [pos[tree.parent[order[k]]] for k in range(1, n)]
    assert all(parent[k] < k for k in range(1, n))
    times = [reach[order[k]] for k in range(n)]
    return ContractionTree(order=order, parent=parent, times=times)


def density_violations(ctree: ContractionTree, oracle, limit=10):
    """Pairs i < j with d(x_i, x_j) < times[j] / 4, at most ``limit`` of them.

    Empty for any input satisfying the triangle inequality; general weighted
    graphs may violate it, which callers should surface as a warning.
    """
    out = []
    order = ctree.order
    for j in range(1, ctree.size):
        bound = ctree.times[j] / 4
        for i in range(j):
            if oracle.eval(order[i], order[j]) < bound:
                out.append((i, j))
                if len(out) >= limit:
                    return out
    return out


def contraction_violations(ctree: ContractionTree, oracle, limit=10):
    """Witnesses (x, t) from the time multiset with d(x, project(x, n(t))) > t.

    For each node the constraint binds only at the smallest multiset time
    mapping to each ancestor, so the scan is O(n * depth * log n).
    """
    finite = sorted(t for t in ctree.times if t != INF)
    order = ctree.order
    out = []
    for x in range(1, ctree.size):
        child = x
        while child != 0:
            anc = ctree.parent[child]
            # times t with n(t) in [anc, child) lie in (times[child], times[anc]]
            lo = ctree.times[child]
            hi = ctree.times[anc]
            k = bisect_right(finite, lo)
            if k < len(finite) and finite[k] <= hi:
                t = finite[k]
                if oracle.eval(order[x], order[anc]) > t:
                    out.append((x, t))
                    if len(out) >= limit:
                        return out
            child = anc
    return out


def _format_time(t):
    return "inf" if t == INF else repr(t)


def _parse_time(tok):
    return INF if tok == "inf" else float(tok)


def write_tree(path, ctree: ContractionTree, config=None):
    """Serialize one node per line, in contraction order.

    Fields are "index parent_index time" using original point indices (the
    root's parent is -1); the line order encodes the contraction ordering.
    Floats print in shortest round-trip form, so rewriting is byte-exact.
    """
    with open(path, "w") as fh:
        fh.write(f"n {ctree.size}\n")
        if config is not None:
            fh.write(CONFIG_PREFIX + json.dumps(config, sort_keys=True) + "\n")
        for k in range(ctree.size):
            orig = ctree.order[k]
            par = -1 if k == 0 else ctree.order[ctree.parent[k]]
            fh.write(f"{orig} {par} {_format_time(ctree.times[k])}\n")


def read_tree(path, digest=None) -> ContractionTree:
    """Parse a file written by ``write_tree``.

    When ``digest`` is given and the file's config line records a different
    input digest, the tree was built for another input and is refused.
    Files that record no digest are accepted.
    """
    order, parent_orig, times = [], [], []
    declared = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if digest is not None and text.startswith(CONFIG_PREFIX):
                try:
                    recorded = json.loads(text[len(CONFIG_PREFIX):]).get("digest")
                except (ValueError, AttributeError):
                    raise InputError(f"{path}:{lineno}: malformed config line") from None
                if recorded is not None and recorded != digest:
                    raise InputError(f"{path}: tree was built from a different input "
                                     f"(digest {recorded}, input has {digest})")
            if not text or text.startswith("#"):
                continue
            if declared is None:
                head = text.split()
                if len(head) != 2 or head[0] != "n" or not head[1].isdigit():
                    raise InputError(f"{path}:{lineno}: expected header 'n <count>'")
                declared = int(head[1])
                if declared < 1:
                    raise InputError(f"{path}:{lineno}: need at least one node")
                continue
            toks = text.split()
            if len(toks) != 3:
                raise InputError(f"{path}:{lineno}: expected 'index parent time'")
            try:
                order.append(int(toks[0]))
                parent_orig.append(int(toks[1]))
                times.append(_parse_time(toks[2]))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            if not times[-1] >= 0.0:
                raise InputError(f"{path}:{lineno}: contraction time is "
                                 f"{times[-1]!r}, not >= 0")
    if declared is None:
        raise InputError(f"{path}: empty tree file")
    if len(order) != declared:
        raise InputError(f"{path}: header says {declared} nodes, found {len(order)}")
    pos = {orig: k for k, orig in enumerate(order)}
    if len(pos) != len(order):
        raise InputError(f"{path}: duplicate node index")
    parent = [-1]
    for k in range(1, len(order)):
        p = parent_orig[k]
        if p not in pos or pos[p] >= k:
            raise InputError(f"{path}: node {order[k]} has invalid parent {p}")
        parent.append(pos[p])
    if times[0] != INF:
        raise InputError(f"{path}: root time must be inf")
    for k in range(1, len(order)):
        if times[k] > times[k - 1]:
            raise InputError(f"{path}: times increase at position {k}")
    return ContractionTree(order=order, parent=parent, times=times)
