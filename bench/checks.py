"""Output checks: content hashes of sparse files and diagrams, and invariants
that hold for every input.

Hashes cover content only: the ``i j d`` edge lines of a sparse file and the
(dim, birth, death) entries of a diagram.  Metadata sidecars, ``# config``
lines and the diagram's ``meta`` object are left out so that adding fields
to them does not read as a changed answer.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def sparse_edges(path):
    """The (i, j, d) edges of a sparse file, ignoring blank and '#' lines."""
    edges = []
    with open(path) as fh:
        for line in fh:
            text = line.strip()
            if text and not text.startswith("#"):
                i, j, d = text.split()
                edges.append((int(i), int(j), float(d)))
    return edges


def diagram_entries(path):
    """Sorted (dim, birth, death) entries of a diagram JSON file."""
    with open(path) as fh:
        data = json.load(fh)
    return sorted(
        (int(e["dim"]), float(e["birth"]), math.inf if e["death"] == "inf" else float(e["death"]))
        for e in data["entries"])


def sparse_hash(path):
    return _digest(f"{i} {j} {d!r}" for i, j, d in sparse_edges(path))


def diagram_hash(path):
    return _digest(f"{dim} {b!r} {d!r}" for dim, b, d in diagram_entries(path))


def sparse_point_count(path):
    """Retained point count N from a sparse file's metadata sidecar."""
    with open(Path(path).with_suffix(".meta.json")) as fh:
        return int(json.load(fh)["N"])


def check_step(argv, rc, stdout):
    """Check one subcommand's exit code and outputs.

    Returns (problem or None, {output name: content hash}, edges written).
    """
    if rc != 0:
        return f"exit code {rc}", {}, 0
    command = argv[0]
    if command == "verify":
        if stdout.strip().splitlines()[-1:] != ["PASS"]:
            return "verify did not print PASS", {}, 0
        return None, {}, 0
    if command not in ("sparsify", "persist"):
        return None, {}, 0
    path = argv[argv.index("--out") + 1]
    out = Path(path).name
    if command == "sparsify":
        edges = sparse_edges(path)
        n = sparse_point_count(path)
        eps1 = float(argv[argv.index("--eps1") + 1])
        if eps1 == 0 and len(edges) != n * (n - 1) // 2:
            return f"eps1=0 kept {len(edges)} of {n * (n - 1) // 2} edges", {}, len(edges)
        return None, {out: sparse_hash(path)}, len(edges)
    # Every vertex is born at 0 and parent edges are always kept, so H0 has
    # one entry per point and exactly one essential class.
    entries = diagram_entries(path)
    h0 = [e for e in entries if e[0] == 0]
    n = sparse_point_count(argv[argv.index("--input") + 1])
    if len(h0) != n or sum(1 for e in h0 if e[2] == math.inf) != 1:
        return f"H0 has {len(h0)} entries for {n} points", {}, 0
    return None, {out: diagram_hash(path)}, 0
