"""The interleaving guarantee and the file formats on generated spaces.

Hypothesis draws small metric spaces of four kinds: 2-D clouds, integer-grid
clouds (ties and duplicate points), circle samples at angles k/64, and
lower-distance matrices of L1 distances between integer points.  For each it
draws eps1 in [0, 8], how many points to keep and a prime p, and checks that
the sparse diagram is psi-interleaved into the exact one, as the profile
``sparsify`` would write states it, and that sparse files and diagrams read
back equal to what was written.  A second suite checks the guarantee in
dimension 2 on noisy samples of the unit sphere in R^3, and on the
octahedron, whose one 2-class is born at sqrt(2) and dies at 2.  Runs are
derandomized and keep no example database, so every run checks the same
cases.
"""

import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import boundary_reduce
from ripsaw import (
    build,
    build_filtration,
    circle_oracle,
    euclidean_oracle,
    make_profile,
    matrix_oracle,
    read_sparse,
    reduce,
    sparsify,
    tighten,
    verify_interleaving,
    write_sparse,
)
from ripsaw.persistence import dump_diagram, load_diagram

MAX_POINTS = 24


def _l1_lower(points):
    return matrix_oracle([abs(a[0] - b[0]) + abs(a[1] - b[1])
                          for i, a in enumerate(points) for b in points[:i]])


MAKE_ORACLE = {
    "cloud": euclidean_oracle,
    "grid": euclidean_oracle,
    "circle": lambda ks: circle_oracle([k / 64 for k in ks]),
    "lower-distance": _l1_lower,
}


def _sized(elements):
    return st.lists(elements, min_size=1, max_size=MAX_POINTS)


_coord = st.floats(-4.0, 4.0)
_grid = st.tuples(st.integers(0, 4), st.integers(0, 4))
SPACES = st.one_of(
    st.tuples(st.just("cloud"), _sized(st.tuples(_coord, _coord))),
    st.tuples(st.just("grid"), _sized(_grid)),
    st.tuples(st.just("circle"), _sized(st.integers(0, 63))),
    st.tuples(st.just("lower-distance"), _sized(_grid)),
)


@st.composite
def cases(draw):
    """(space kind, its values, eps1, points kept, field characteristic)."""
    kind, values = draw(SPACES)
    eps1 = draw(st.floats(0.0, 8.0))
    keep = draw(st.integers(1, len(values)))
    p = draw(st.sampled_from([2, 3, 5]))
    return kind, values, eps1, keep, p


def _pipeline(case, dim_cap=2):
    """The exact and the sparse diagram of a case, the sparse matrix and its
    profile; homology below ``dim_cap``, by default in dimensions 0 and 1,
    as ``persist`` computes it."""
    kind, values, eps1, keep, p = case
    oracle = MAKE_ORACLE[kind](values)
    tree = tighten(build(oracle), oracle)
    profile = make_profile(tree, keep=keep, eps1=eps1)
    matrix = sparsify(tree, oracle, profile)
    exact = reduce(build_filtration(sparsify(tree, oracle, make_profile(tree)), dim_cap), p)
    return exact, reduce(build_filtration(matrix, dim_cap), p), matrix, profile


PROPERTY = settings(derandomize=True, database=None, deadline=None)


@settings(PROPERTY, max_examples=500)
@given(cases())
# a duplicate point has contraction time 0, and with a subnormal eps1 its
# cutoff q(0) was inf * 0 = nan, which dropped the zero-length edge
@example(("circle", [0, 0], 1.1125369292536007e-308, 2, 2))
def test_sparse_diagram_is_interleaved(case):
    exact, sparse, _matrix, profile = _pipeline(case)
    report = verify_interleaving(exact, sparse, profile)
    assert report.passed, report.summary()


@settings(PROPERTY, max_examples=40)
@given(cases())
def test_files_read_back_equal(case):
    _exact, sparse, matrix, profile = _pipeline(case)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.sparse"
        write_sparse(path, matrix, {})
        assert read_sparse(path) == matrix
        dump_diagram(path.with_suffix(".json"), sparse, profile, {})
        assert load_diagram(path.with_suffix(".json")) == (sparse, profile)


OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
SPHERE_EPS1 = [0.25, 0.5, 1.0, 4.0]


@st.composite
def sphere_spaces(draw):
    """(points, eps1): 8 to 28 points near the unit sphere in R^3, in uniform
    directions at radii 1 +- noise."""
    n = draw(st.integers(8, 28))
    noise = draw(st.sampled_from([0.0, 0.1, 0.3]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    points = []
    for _ in range(n):
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        radius = (1.0 + noise * rng.uniform(-1.0, 1.0)) / math.hypot(*v)
        points.append(tuple(radius * x for x in v))
    return points, draw(st.sampled_from(SPHERE_EPS1))


@pytest.mark.parametrize("p", [2, 3])
@settings(PROPERTY, max_examples=12)
@given(space=sphere_spaces())
def test_sparse_diagram_is_interleaved_in_dimension_2(space, p):
    """dim_cap 3: homology through dimension 2, with the tetrahedra as
    killers, every point kept.  A reducer that errs alike on both sides
    would still pass the interleaving, so the sparse diagram must also equal
    the textbook boundary reduction of its filtration."""
    points, eps1 = space
    exact, sparse, matrix, profile = _pipeline(
        ("cloud", points, eps1, len(points), p), dim_cap=3)
    assert sparse == boundary_reduce(build_filtration(matrix, 3), p)
    report = verify_interleaving(exact, sparse, profile)
    assert report.passed, report.summary()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("eps1", SPHERE_EPS1)
def test_octahedron_has_one_2_class(eps1, p):
    """The 2-sphere of the octahedron's eight faces appears at sqrt(2), once
    every edge but the three diagonals is in, and dies at 2 with them; the
    sparse diagram keeps it within the interleaving."""
    exact, sparse, _matrix, profile = _pipeline(("cloud", OCTAHEDRON, eps1, 6, p), dim_cap=3)
    assert exact.pairs(2) == [(math.sqrt(2), 2.0)]
    assert verify_interleaving(exact, sparse, profile).passed
