"""In-memory spans around the public functions the ripsaw CLI calls.

Tracing lives entirely in the benchmark: ``install`` replaces module
attributes with timing wrappers and ``Tracer.uninstall`` puts the originals
back, so an untraced chain never executes wrapped code.  Each span records
its name, start, end, parent span and run id, plus counts measured where the
work happens (oracle evaluations, edges kept, simplices, diagram entries).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter


class Tracer:
    """Span stack plus the oracle-evaluation counter the proxies bump."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.evals = 0
        self._stack = []
        self._patches = []

    def begin(self, name):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
            "_evals0": self.evals,
            "_child_evals": 0,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        evals = self.evals - span.pop("_evals0")
        own = evals - span.pop("_child_evals")
        if own:
            span["counts"]["evals"] = own
        if self._stack:
            self._stack[-1]["_child_evals"] += evals

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class CountingOracle:
    """Forwards ``eval`` to a wrapped oracle and counts each call."""

    def __init__(self, inner, tracer):
        self.size = inner.size
        self._eval = inner.eval
        self._tracer = tracer

    def eval(self, i, j):
        self._tracer.evals += 1
        return self._eval(i, j)


def _wrap(tracer, fn, name, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                span["counts"].update(count(result, args))
            return result
        finally:
            tracer.end(span)
    return wrapper


def _simplex_counts(filtration, _args):
    by_dim = Counter(len(verts) - 1 for verts, _d in filtration.simplices)
    return {f"simplices.d{d}": c for d, c in sorted(by_dim.items())}


# (module, attribute, counts taken from (result, args)); the span is named
# "<module>.<attribute>".
TARGETS = [
    ("metric", "load_points", None),
    ("covertree", "build", None),
    ("covertree", "tighten", None),
    ("covertree", "density_violations", None),
    ("covertree", "write_tree", None),
    ("covertree", "read_tree", None),
    ("sparsify", "make_profile", None),
    ("sparsify", "sparsify", lambda m, _a: {"edges_kept": len(m.edges)}),
    ("sparsify", "write_sparse", None),
    ("sparsify", "read_sparse", None),
    ("persistence", "build_filtration", _simplex_counts),
    ("persistence", "reduce", lambda d, _a: {"entries": len(d.entries)}),
    ("persistence", "dump_diagram", None),
    ("persistence", "load_diagram", None),
    ("diagram", "verify_interleaving",
     lambda _r, a: {"verify_entries": len(a[0].entries) + len(a[1].entries)}),
    ("diagram", "match_diagrams", lambda r, _a: {"match_pairs": len(r.pairs)}),
    ("svgplot", "render_svg", None),
]

# The names under which cli.py imports these ripsaw.sparsify functions.
CLI_ALIASES = {
    "make_profile": "make_profile",
    "sparsify": "sparsify_matrix",
    "read_sparse": "read_sparse",
    "write_sparse": "write_sparse",
}


def install(tracer):
    """Wrap every target in place; ``tracer.uninstall()`` reverts it.

    ripsaw is imported here, not at module level, because run.py uses this
    module without ripsaw on its path.
    """
    cli = importlib.import_module("ripsaw.cli")
    metric = importlib.import_module("ripsaw.metric")
    for modname, attr, count in TARGETS:
        module = importlib.import_module(f"ripsaw.{modname}")
        wrapped = _wrap(tracer, getattr(module, attr), f"{modname}.{attr}", count)
        tracer.patch(module, attr, wrapped)
        if attr in CLI_ALIASES:
            tracer.patch(cli, CLI_ALIASES[attr], wrapped)

    build_oracle = metric.euclidean_oracle

    def counting_euclidean_oracle(points):
        return CountingOracle(build_oracle(points), tracer)

    tracer.patch(metric, "euclidean_oracle",
                 _wrap(tracer, counting_euclidean_oracle, "metric.euclidean_oracle"))


def self_time(span, children):
    """Span duration minus the part of it that its child spans cover."""
    lo, hi = span["start"], span["end"]
    covered = 0.0
    reach = lo
    for child in sorted(children, key=lambda c: c["start"]):
        start = max(child["start"], reach)
        end = min(child["end"], hi)
        if end > start:
            covered += end - start
            reach = end
    return (hi - lo) - covered


def self_times(spans):
    """Self time of every span, keyed by span id."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    return {s["id"]: self_time(s, children.get(s["id"], [])) for s in spans}
