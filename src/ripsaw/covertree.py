"""Simplified cover trees built by sequential insertion, and the tightened
contraction trees derived from them.

A node's a-priori radius is ``r(x) = 2 * d(x, parent x)`` (infinite for the
root).  A new point may attach to candidate ``y`` only when
``2 * d(x, y) <= d(y, parent y)``; its parent is the closest valid candidate.
That rule forces every parent edge to be at most half the grandparent edge,
which is what makes the pruned search and the density bound work.

Tightening replaces the geometric-series radii by exact subtree reaches and
reorders nodes by decreasing reach, yielding a contraction tree: projecting
any point onto the nodes with reach >= t moves it by at most t.  A
``ContractionTree`` checks its own shape when it is built, whether by
``tighten``, ``read_tree`` or by hand, so no consumer meets an invalid one;
the contraction and density bounds need the oracle and are checked by
``contraction_violations`` and ``density_violations``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right, insort
from dataclasses import dataclass

from . import metric
from .errors import InputError, excerpt, read_rows, render_rows

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

    def add(self, parent, dist):
        x = len(self.parent)
        self.parent.append(parent)
        self.parent_dist.append(dist)
        self.children.append([])
        # keep children sorted by descending radius so scans can stop early;
        # equal radii keep insertion order
        insort(self.children[parent], x, key=lambda c: -self.parent_dist[c])
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
            if d <= 2.0 * tree.parent_dist[c]:
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


@dataclass(frozen=True)
class ContractionTree:
    """Reordered tree with nonincreasing contraction times.

    ``order[k]`` is the original point index of ordered node k, ``parent`` is
    the strictly decreasing parent map on ordered indices, and ``times`` are
    the reach values, ``times[0] == inf``.  A tree is valid or is never
    built: ``InputError`` unless ``order`` is a permutation of 0..n-1, the
    root's parent is -1 and every other node's parent comes before it, and
    the times after the root's are finite, >= 0 and never increase; a
    refusal about one node opens with its 1-based position.
    """

    order: tuple
    parent: tuple
    times: tuple

    def __post_init__(self):
        for name in ("order", "parent", "times"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.order)
        if n == 0 or len(self.parent) != n or len(self.times) != n:
            raise InputError(f"{n} nodes, {len(self.parent)} parents and "
                             f"{len(self.times)} times: need one of each per node, "
                             "and at least one node")
        if sorted(self.order) != list(range(n)):
            raise InputError(f"node indices are not exactly 0..{n - 1}")
        if self.parent[0] != -1 or self.times[0] != INF:
            raise InputError(f"1: root has parent {self.parent[0]} and time "
                             f"{self.times[0]!r}, not -1 and inf")
        for k in range(1, n):
            t = self.times[k]
            if not 0 <= self.parent[k] < k:
                raise InputError(f"{k + 1}: node {self.order[k]} at position {k} has parent "
                                 f"position {self.parent[k]}, not in 0..{k - 1}")
            # `not t >= 0` also holds for nan
            if not (t >= 0.0 and t != INF):
                raise InputError(f"{k + 1}: node {self.order[k]}: contraction time is {t!r}, "
                                 "not finite and >= 0")
            if t > self.times[k - 1]:
                raise InputError(f"{k + 1}: times increase at position {k}")

    @property
    def size(self):
        return len(self.order)

    @property
    def max_reach(self):
        """R, the largest finite contraction time (0.0 for a single node)."""
        return self.times[1] if self.size > 1 else 0.0


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
        if reach[x] > reach[p]:
            reach[p] = reach[x]
    reach[0] = INF

    # reach is monotone along tree edges and parents have smaller insertion
    # indices, so every parent precedes its children in this order
    order = sorted(range(n), key=lambda i: (-reach[i], i))
    pos = [0] * n
    for k, old in enumerate(order):
        pos[old] = k
    parent = [-1] + [pos[tree.parent[order[k]]] for k in range(1, n)]
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
    """Witnesses (x, t) from the time multiset with d(x, y) > t, where n(t)
    is the largest index k with times[k] >= t and y is the first ancestor of
    x (or x itself) with index <= n(t).

    For each node the constraint binds only at the smallest multiset time
    mapping to each ancestor, so the scan is O(n * depth * log n).
    """
    finite = ctree.times[:0:-1]  # ascending: the times after the root's never increase
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


def _rendered(ctree: ContractionTree, config):
    """The lines of a ``.tree`` file: the header ``n <count>``, the config
    line (``config`` as sorted-key JSON), then one row "index parent time"
    per node in contraction order, in original indices (root's parent -1)."""
    yield f"n {ctree.size}\n"
    yield f"{CONFIG_PREFIX}{json.dumps(config, sort_keys=True)}\n"
    parents = [-1, *(ctree.order[k] for k in ctree.parent[1:])]
    yield from render_rows(list(zip(ctree.order, parents, ctree.times)))


def write_tree(path, ctree: ContractionTree, digest, config):
    """Serialize ``ctree`` with ``config``, which records the input's
    ``format``, plus its ``digest``; floats print in shortest round-trip
    form, so rewriting is byte-exact."""
    with open(path, "w") as fh:
        fh.writelines(_rendered(ctree, dict(config, digest=digest)))


def read_tree(path, input_path):
    """(tree, oracle of ``input_path`` read under the ``format`` the tree
    records); ``InputError`` naming the tree, and the line at fault when
    one is, unless line 2 is a config line recording a ``format`` of
    ``metric.FORMATS`` and the input's ``digest``, the later lines are rows
    that ``errors.read_rows`` accepts and that make a valid tree, and lines
    1 and 2 are as ``write_tree`` renders that tree and config."""
    head, nodes = read_rows(path, "index parent time", head=2)
    if not head[1].startswith(CONFIG_PREFIX.encode()):
        raise InputError(f"{path}:2: expected the config line '{CONFIG_PREFIX}{{...}}'")
    try:
        config = json.loads(head[1][len(CONFIG_PREFIX):])
        recorded, fmt = config["digest"], config.get("format")
    except (ValueError, TypeError, KeyError):
        raise InputError(f"{path}:2: malformed config line: "
                         "no JSON object with a 'digest' key") from None
    if fmt not in metric.FORMATS:
        raise InputError(f"{path}:2: the config line records no input format "
                         f"ripsaw reads (format {fmt!r})")
    oracle, digest = metric.load_input(input_path, fmt)
    if recorded != digest:
        raise InputError(f"{path}: tree was built from a different input "
                         f"(digest {recorded}, input has {digest})")
    pos = {orig: k for k, (orig, _par, _time) in enumerate(nodes)}
    pos[-1] = -1  # the root's parent
    try:
        ctree = ContractionTree(order=[orig for orig, _par, _time in nodes],
                                parent=[pos[par] for _orig, par, _time in nodes],
                                times=[time for _orig, _par, time in nodes])
    except KeyError as exc:
        raise InputError(f"{path}: parent {exc} is no node of the tree") from None
    except InputError as exc:  # one about a node opens with its position k, on line k + 2
        k, _, rest = str(exc).partition(": ")
        raise InputError(f"{path}:{int(k) + 2}: {rest}" if k.isdigit()
                         else f"{path}: {exc}") from None
    for lineno, (raw, line) in enumerate(zip(head, _rendered(ctree, config)), start=1):
        if raw != line.encode():
            raise InputError(f"{path}:{lineno}: expected {excerpt(line)}, as ripsaw writes it")
    return ctree, oracle
