"""Distance oracles over point clouds, explicit matrices, and the circle.

There is one oracle type, ``Oracle``: ``size`` points and ``eval(i, j)``
returning a finite, nonnegative, symmetric length with ``eval(i, i) == 0``.
Each factory validates its input and supplies the length function; the
values it reads are copied, so concurrent reads are safe.  The triangle
inequality is *not* assumed by the abstraction itself (explicit matrices may
encode arbitrary weighted graphs); consumers that rely on it say so.
"""

from __future__ import annotations

import hashlib
import math

from .errors import InputError, excerpt, lines


class Oracle:
    """``size`` points and the length function ``eval(i, j)`` between them."""

    def __init__(self, size, length):
        self.size = size
        self.eval = length


def euclidean_oracle(points) -> Oracle:
    """Euclidean distances; all points must share one dimension."""
    pts = [tuple(float(c) for c in p) for p in points]
    if not pts:
        raise InputError("no points given")
    dim = len(pts[0])
    for k, p in enumerate(pts):
        if len(p) != dim:
            raise InputError(f"point {k} has dimension {len(p)}, expected {dim}")
        if not all(math.isfinite(c) for c in p):
            raise InputError(f"point {k} has a non-finite coordinate")
    return Oracle(len(pts), lambda i, j: math.dist(pts[i], pts[j]))


def circle_oracle(angles) -> Oracle:
    """Geodesic distance on the unit-circumference circle R/Z, from angles
    in [0, 1)."""
    angs = [float(a) for a in angles]
    if not angs:
        raise InputError("no angles given")
    for k, a in enumerate(angs):
        if not (0.0 <= a < 1.0):
            raise InputError(f"angle {k} = {a!r} outside [0, 1)")

    def length(i, j):
        gap = abs(angs[i] - angs[j])
        return min(gap, 1.0 - gap)
    return Oracle(len(angs), length)


def matrix_oracle(lower_triangle) -> Oracle:
    """Lengths read from a row-major lower-triangle list.

    The list length must be n(n-1)/2 for some n >= 1; the diagonal is an
    implicit zero.  The empty list denotes a single point.
    """
    values = [float(v) for v in lower_triangle]
    m = len(values)
    # invert m = n(n-1)/2
    n = int((1 + math.isqrt(1 + 8 * m)) // 2)
    if n * (n - 1) // 2 != m:
        raise InputError(f"{m} entries is not a triangular count n(n-1)/2")
    for k, v in enumerate(values):
        if not math.isfinite(v):
            raise InputError(f"entry {k} is not finite")
        if v < 0:
            raise InputError(f"entry {k} is negative")

    def length(i, j):
        if i == j:
            return 0.0
        if i < j:
            i, j = j, i
        return values[i * (i - 1) // 2 + j]
    return Oracle(n, length)


def load_points(path):
    """Parse a point CSV: one point per line, comma or whitespace separated,
    every line holding at least one value and as many as the first."""
    points = []
    for lineno, text in lines(path):
        if text.startswith("#"):
            continue
        try:
            coords = tuple(float(tok) for tok in text.replace(",", " ").split())
        except ValueError:
            raise InputError(f"{path}:{lineno}: not a row of numbers ({excerpt(text)})") from None
        if not coords:
            raise InputError(f"{path}:{lineno}: no values")
        if points and len(coords) != len(points[0]):
            raise InputError(f"{path}:{lineno}: {len(coords)} values, "
                             f"where the first point has {len(points[0])}")
        points.append(coords)
    if not points:
        raise InputError(f"{path}: no points")
    return points


def load_lower_distance(path):
    """Parse a lower-distance-matrix file (comma/newline separated decimals);
    ``InputError`` naming ``path:lineno`` for a value that is not a finite
    number >= 0."""
    values = []
    for lineno, text in lines(path):
        for tok in text.replace(",", " ").split():
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not (math.isfinite(value) and value >= 0.0):
                raise InputError(f"{path}:{lineno}: not a finite number >= 0 ({excerpt(tok)})")
            values.append(value)
    return values


FORMATS = ("points", "circle", "lower-distance")  # as `ripsaw tree --format` names them


def load_input(path, fmt):
    """(oracle, sha256 digest of the parsed values) of the input file ``path``
    read as format ``fmt``; an ``InputError`` from the oracle's checks names
    the file.  Names are looked up at call time, so wrappers see each call."""
    if fmt == "points":
        values, make = load_points(path), euclidean_oracle
    elif fmt == "circle":
        rows = load_points(path)
        if len(rows[0]) != 1:
            raise InputError(f"{path}: each row holds {len(rows[0])} values, not one angle")
        values, make = [row[0] for row in rows], circle_oracle
    else:  # "lower-distance", the last of FORMATS
        values, make = load_lower_distance(path), matrix_oracle
    try:
        oracle = make(values)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return oracle, hashlib.sha256(repr(values).encode()).hexdigest()
