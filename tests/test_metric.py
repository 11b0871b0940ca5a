import math

import pytest

from helpers import splitmix_draw
from ripsaw import InputError, circle_oracle, euclidean_oracle, matrix_oracle
from ripsaw.generators import random_cloud, write_points_csv
from ripsaw.metric import load_lower_distance, load_points


def test_euclidean_345():
    o = euclidean_oracle([(0, 0), (3, 4)])
    assert o.eval(0, 1) == 5.0


def test_euclidean_single_point():
    o = euclidean_oracle([(1, 1)])
    assert o.eval(0, 0) == 0.0


def test_euclidean_right_angle():
    o = euclidean_oracle([(0, 0), (1, 0), (0, 1)])
    assert o.eval(1, 2) == math.sqrt(2)


def test_euclidean_rejects_mixed_dimensions():
    with pytest.raises(InputError):
        euclidean_oracle([(0, 0), (1, 2, 3)])


@pytest.mark.parametrize("make,message", [(euclidean_oracle, "no points given"),
                                          (circle_oracle, "no angles given")])
def test_oracle_refuses_empty_input(make, message):
    with pytest.raises(InputError, match=message):
        make([])


def test_circle_distances():
    o = circle_oracle([0.0, 0.5])
    assert o.eval(0, 1) == 0.5
    o = circle_oracle([0.0, 0.9])
    assert o.eval(0, 1) == pytest.approx(0.1)
    o = circle_oracle([0.25, 0.25])
    assert o.eval(0, 1) == 0.0


def test_circle_rejects_out_of_range():
    with pytest.raises(InputError):
        circle_oracle([0.0, 1.0])
    with pytest.raises(InputError):
        circle_oracle([-0.1])


def test_matrix_oracle():
    o = matrix_oracle([])
    assert o.size == 1 and o.eval(0, 0) == 0.0
    o = matrix_oracle([2.0])
    assert o.size == 2 and o.eval(0, 1) == 2.0
    o = matrix_oracle([1, 2, 3])
    assert o.size == 3
    assert o.eval(2, 1) == 3.0
    assert o.eval(1, 2) == 3.0


def test_matrix_oracle_rejects_bad_input():
    with pytest.raises(InputError):
        matrix_oracle([1.0, 2.0])  # not triangular
    with pytest.raises(InputError):
        matrix_oracle([-1.0])
    with pytest.raises(InputError):
        matrix_oracle([math.inf])


@pytest.mark.parametrize("seed", range(3))
def test_symmetry_and_zero_diagonal(seed):
    pts = random_cloud(30, 3, seed)
    oracles = [
        euclidean_oracle(pts),
        circle_oracle([splitmix_draw(seed, k) for k in range(30)]),
        matrix_oracle([splitmix_draw(seed ^ 99, k) for k in range(30 * 29 // 2)]),
    ]
    for o in oracles:
        for k in range(100):
            i = int(splitmix_draw(seed + 1, 2 * k) * o.size)
            j = int(splitmix_draw(seed + 1, 2 * k + 1) * o.size)
            assert o.eval(i, j) == o.eval(j, i)
            assert o.eval(i, i) == 0.0


def test_euclidean_triangle_inequality():
    pts = random_cloud(40, 2, 5)
    o = euclidean_oracle(pts)
    for k in range(300):
        i = int(splitmix_draw(7, 3 * k) * 40)
        j = int(splitmix_draw(7, 3 * k + 1) * 40)
        m = int(splitmix_draw(7, 3 * k + 2) * 40)
        assert o.eval(i, j) <= o.eval(i, m) + o.eval(m, j) + 1e-12


def test_points_roundtrip(tmp_path):
    pts = random_cloud(17, 3, 1)
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    assert load_points(path) == pts


def test_load_points_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n1,x\n")
    with pytest.raises(InputError, match="2"):
        load_points(path)


def test_load_points_reports_line_of_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("# angles\n0.25\n0.5, 0.125\n")
    with pytest.raises(InputError, match=r"ragged\.csv:3: 2 values, where the first point has 1"):
        load_points(path)


@pytest.mark.parametrize("text", [",\n,\n,\n", " , \n , \n", "# x\n,,\n"])
def test_load_points_refuses_row_of_no_values(tmp_path, text):
    path = tmp_path / "empty-rows.csv"
    path.write_text(text)
    with pytest.raises(InputError, match=r"empty-rows\.csv:\d: no values"):
        load_points(path)


def test_load_points_accepts_whitespace(tmp_path):
    path = tmp_path / "ws.csv"
    path.write_text("0 0\n1\t2\n")
    assert load_points(path) == [(0.0, 0.0), (1.0, 2.0)]


def test_load_lower_distance(tmp_path):
    path = tmp_path / "d.lower"
    path.write_text("1.5\n2.5, 3.5\n")
    assert load_lower_distance(path) == [1.5, 2.5, 3.5]
