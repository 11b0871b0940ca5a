"""Seeded, portable dataset generators: circle samples, solenoid samples,
uniform clouds, and the point-CSV writer of `ripsaw gen`.

Randomness comes from a counter-based splitmix64 construction so point sets
reproduce bit-for-bit across platforms and languages.  The draw for counter
``i`` under seed ``s`` is::

    z = (s + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2^64
    z = z ^ (z >> 31)
    u = (z >> 11) / 2^53        # uniform in [0, 1)

Draws are computed a block of at most ``_BLOCK`` counters at a time.  A
block's counters sit in the 128-bit lanes of one Python integer, each value
in its lane's low 64 bits, so each stage above is a few big-integer
operations per block.  ``keep`` masks every lane to its low word: before a
multiply it clears the bits a right shift pulled in from the next lane, so
no lane's product reaches 2^128 and carries into its neighbour.  Lanes are
packed and unpacked with an explicit little-endian layout, never the
platform's byte order, so each draw equals the per-counter formula above on
every platform.  The writer formats a block of at most ``_BLOCK`` rows with
one ``%`` and writes it before building the next, so its memory does not
grow with the sample.
"""

from __future__ import annotations

import math
import struct
from itertools import chain

from .errors import InputError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK = 4096
_ITERATIONS = 12


def unit_doubles(seed: int, count: int) -> list:
    """The draws for counters ``0 .. count - 1``, in order."""
    draws = []
    for start in range(0, count, _BLOCK):
        m = min(_BLOCK, count - start)
        words = struct.Struct(f"<{2 * m}Q")
        lanes = [0] * (2 * m)
        lanes[0::2] = range(start + 1, start + m + 1)
        idx = int.from_bytes(words.pack(*lanes), "little")
        ones = int.from_bytes((b"\x01" + bytes(15)) * m, "little")
        keep = ones * _MASK
        z = (idx * _GAMMA + (seed & _MASK) * ones) & keep
        z = (((z ^ (z >> 30)) & keep) * _MIX1) & keep
        z = (((z ^ (z >> 27)) & keep) * _MIX2) & keep
        z = ((z ^ (z >> 31)) & keep) >> 11
        draws += [w / 2.0 ** 53 for w in words.unpack(z.to_bytes(16 * m, "little"))[0::2]]
    return draws


def write_points_csv(path, points):
    """Write one point per line, its coordinates as float reprs joined by
    commas; ``InputError``, and no file, when a point's length differs from
    the first point's."""
    dim = len(points[0]) if points else 0
    k = next((k for k, p in enumerate(points) if len(p) != dim), None)
    if k is not None:
        raise InputError(f"point {k} has {len(points[k])} values, "
                         f"where the first point has {dim}")
    row = ",".join(["%r"] * dim) + "\n"
    with open(path, "w") as fh:
        for start in range(0, len(points), _BLOCK):
            block = points[start:start + _BLOCK]
            fh.write(row * len(block) % tuple(map(float, chain.from_iterable(block))))


def circle_sample(n: int):
    """n equispaced angles k/n on the unit-circumference circle."""
    if n < 1:
        raise InputError("need n >= 1")
    return [k / n for k in range(n)]


def random_cloud(n: int, dim: int, seed: int):
    """n uniform points in the unit cube [0,1)^dim, deterministic per seed."""
    if n < 1 or dim < 1:
        raise InputError("need n >= 1 and dim >= 1")
    draws = unit_doubles(seed, n * dim)
    return [tuple(draws[k:k + dim]) for k in range(0, n * dim, dim)]


def solenoid_sample(n: int, seed: int = 0):
    """Sample the solenoid attractor of the doubling torus map.

    Seeds (phi, x, z) are drawn with phi uniform in [0,1) and x, z uniform in
    [-1.5, 1.5]; the contracting map

        (phi, x, z) -> (2*phi mod 1, x/3 + cos(2*pi*phi), z/3 + sin(2*pi*phi))

    is applied ``_ITERATIONS`` (12) times, and the result is embedded in R^3 via

        (phi, x, z) -> (cos(2*pi*phi)*(1 + x/3), sin(2*pi*phi)*(1 + x/3), z).

    Iterating from box-uniform seeds only approximates a uniform draw on the
    attractor itself; after 12 iterations the per-slice structure is far
    finer than desk-scale subsampling resolves.
    """
    if n < 1:
        raise InputError("need n >= 1")
    cos, sin = math.cos, math.sin
    two_pi = 2.0 * math.pi
    draws = unit_doubles(seed, 3 * n)
    points = []
    for phi, x, z in zip(draws[0::3], draws[1::3], draws[2::3]):
        x, z = 3.0 * x - 1.5, 3.0 * z - 1.5
        for _ in range(_ITERATIONS):
            angle = two_pi * phi
            phi, x, z = (2.0 * phi) % 1.0, x / 3.0 + cos(angle), z / 3.0 + sin(angle)
        angle = two_pi * phi
        radial = 1.0 + x / 3.0
        points.append((cos(angle) * radial, sin(angle) * radial, z))
    return points
