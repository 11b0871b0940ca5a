"""The interleaving guarantee and the file formats on generated spaces.

Hypothesis draws small metric spaces of four kinds: 2-D clouds, integer-grid
clouds (ties and duplicate points), circle samples at angles k/64, and
lower-distance matrices of L1 distances between integer points.  For each it
draws eps1 in [0, 8], how many points to keep and a prime p, and checks that
the sparse diagram is psi-interleaved into the exact one, as the profile
``sparsify`` would write states it, and that sparse files and diagrams read
back equal to what was written.  Runs are derandomized and keep no example
database, so every run checks the same cases.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _pipeline(case):
    """The exact and the sparse diagram of a case, the sparse matrix and its
    profile; homology in dimensions 0 and 1, as ``persist`` computes it."""
    kind, values, eps1, keep, p = case
    oracle = MAKE_ORACLE[kind](values)
    tree = tighten(build(oracle), oracle)
    profile = make_profile(tree, keep=keep, eps1=eps1)
    matrix = sparsify(tree, oracle, profile)
    exact = reduce(build_filtration(sparsify(tree, oracle, make_profile(tree)), 2), p)
    return exact, reduce(build_filtration(matrix, 2), p), matrix, profile


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
        write_sparse(path, matrix)
        assert read_sparse(path) == matrix
        meta = {"profile": profile.as_meta()}
        dump_diagram(path.with_suffix(".json"), sparse, meta=meta)
        assert load_diagram(path.with_suffix(".json")) == (sparse, meta)
