"""Seeded, portable dataset generators: circle samples, solenoid samples,
uniform clouds.

Randomness comes from a counter-based splitmix64 construction so point sets
reproduce bit-for-bit across platforms and languages.  The draw for counter
``i`` under seed ``s`` is::

    z = (s + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2^64
    z = z ^ (z >> 31)
    u = (z >> 11) / 2^53        # uniform in [0, 1)

A sample's draws are computed in one batch, stage by stage over all its
counters; each equals the per-counter formula above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def unit_doubles(seed: int, count: int) -> list:
    """The draws for counters ``0 .. count - 1``, in order."""
    first = seed + _GAMMA
    zs = [z & _MASK for z in range(first, first + count * _GAMMA, _GAMMA)]
    zs = [((z ^ (z >> 30)) * _MIX1) & _MASK for z in zs]
    zs = [((z ^ (z >> 27)) * _MIX2) & _MASK for z in zs]
    return [((z ^ (z >> 31)) >> 11) / 2.0 ** 53 for z in zs]


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


@dataclass
class SolenoidParams:
    n: int
    seed: int = 0
    iterations: int = 12

    def __post_init__(self):
        if self.n < 1:
            raise InputError("need n >= 1")
        if self.iterations < 1:
            raise InputError("need iterations >= 1")


def solenoid_sample(params: SolenoidParams):
    """Sample the solenoid attractor of the doubling torus map.

    Seeds (phi, x, z) are drawn with phi uniform in [0,1) and x, z uniform in
    [-1.5, 1.5]; the contracting map

        (phi, x, z) -> (2*phi mod 1, x/3 + cos(2*pi*phi), z/3 + sin(2*pi*phi))

    is applied ``iterations`` times, and the result is embedded in R^3 via

        (phi, x, z) -> (cos(2*pi*phi)*(1 + x/3), sin(2*pi*phi)*(1 + x/3), z).

    Iterating from box-uniform seeds only approximates a uniform draw on the
    attractor itself; after the default 12 iterations the per-slice structure
    is far finer than desk-scale subsampling resolves.
    """
    cos, sin = math.cos, math.sin
    two_pi = 2.0 * math.pi
    draws = unit_doubles(params.seed, 3 * params.n)
    points = []
    for phi, x, z in zip(draws[0::3], draws[1::3], draws[2::3]):
        x, z = 3.0 * x - 1.5, 3.0 * z - 1.5
        for _ in range(params.iterations):
            angle = two_pi * phi
            phi, x, z = (2.0 * phi) % 1.0, x / 3.0 + cos(angle), z / 3.0 + sin(angle)
        angle = two_pi * phi
        radial = 1.0 + x / 3.0
        points.append((cos(angle) * radial, sin(angle) * radial, z))
    return points
