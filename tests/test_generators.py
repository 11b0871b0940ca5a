import pytest

from helpers import solenoid_embed, solenoid_reference, solenoid_step, splitmix_draw
from ripsaw import (InputError, circle_oracle, circle_sample, generators, random_cloud,
                    solenoid_sample)
from ripsaw.generators import unit_doubles, write_points_csv

SEEDS = [0, 1, 7, -3, 2**64 + 5]
# Seeds whose low 64 bits are all ones, and one far below -2**64.
LANE_SEEDS = [2**64 - 1, -2**70]


def test_circle_sample_n4():
    assert circle_sample(4) == [0.0, 0.25, 0.5, 0.75]


def test_circle_sample_single():
    assert circle_sample(1) == [0.0]


def test_circle_sample_32_spacing():
    angles = circle_sample(32)
    o = circle_oracle(angles)
    dists = [o.eval(i, j) for i in range(32) for j in range(i + 1, 32)]
    assert min(dists) == 1 / 32


def test_circle_rotational_symmetry():
    angles = circle_sample(12)
    o = circle_oracle(angles)
    base = sorted(o.eval(i, j) for i in range(12) for j in range(i + 1, 12))
    for shift in (1, 5):
        rotated = sorted(
            o.eval((i + shift) % 12, (j + shift) % 12)
            for i in range(12) for j in range(i + 1, 12))
        assert [pytest.approx(a) for a in base] == rotated


def test_solenoid_step_from_origin():
    assert solenoid_step(0.0, 0.0, 0.0) == (0.0, 1.0, 0.0)
    assert solenoid_embed(0.0, 1.0, 0.0) == (1 + 1 / 3, 0.0, 0.0)


def test_solenoid_step_half_turn():
    phi, x, z = solenoid_step(0.5, 0.0, 0.0)
    assert phi == 0.0
    assert x == pytest.approx(-1.0)
    assert z == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("iterations", [1, 5, 12])
@pytest.mark.parametrize("seed", SEEDS)
def test_solenoid_sample_equals_step_by_step_reference(monkeypatch, seed, iterations):
    """The batched draws and the inline map give exactly the reference floats,
    at the sampler's 12 steps of the map and, with its step count set, after
    1 and 5 steps, where a wrong step is not yet blurred by the ones after."""
    assert generators._ITERATIONS == 12
    monkeypatch.setattr(generators, "_ITERATIONS", iterations)
    for n in (1, 2, 500):
        assert solenoid_sample(n, seed=seed) == solenoid_reference(n, seed, iterations)


@pytest.mark.parametrize("seed", SEEDS + LANE_SEEDS)
def test_unit_doubles_equal_scalar_draws(seed):
    assert unit_doubles(seed, 40) == [splitmix_draw(seed, c) for c in range(40)]
    assert unit_doubles(seed, 0) == []
    cloud = random_cloud(6, 3, seed)
    assert cloud == [tuple(splitmix_draw(seed, 3 * i + k) for k in range(3))
                     for i in range(6)]


@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 24000])
@pytest.mark.parametrize("seed", [0, -3] + LANE_SEEDS)
def test_unit_doubles_equal_scalar_draws_across_blocks(seed, count):
    """Every draw of a lone lane, a block one lane short of full, a full
    block, one lane past it, and the n=8000 solenoid's 24,000 draws."""
    assert unit_doubles(seed, count) == [splitmix_draw(seed, c) for c in range(count)]


@pytest.mark.parametrize("points", [[(1.0, 2.0), (3.0,)], [(1, 2), (3,), (4, 5, 6)]],
                         ids=["short-last", "coordinate-count-fits"])
def test_write_points_csv_refuses_ragged_points(tmp_path, points):
    """The second list holds six values, as two rows of three would; it is
    refused at its second point, not written as three rows of two."""
    path = tmp_path / "ragged.csv"
    with pytest.raises(InputError, match="point 1 has 1 values, where the first point has 2"):
        write_points_csv(path, points)
    assert not path.exists()


def test_write_points_csv_writes_float_reprs_across_blocks(tmp_path):
    points = [(k, k / 3, -0.0) for k in range(4097)] + [(1e309, float("nan"), 2**60)]
    path = tmp_path / "p.csv"
    write_points_csv(path, points)
    assert path.read_text() == "".join(",".join(repr(float(c)) for c in p) + "\n"
                                       for p in points)
    write_points_csv(path, [])
    assert path.read_text() == ""


def test_solenoid_deterministic():
    assert solenoid_sample(50, seed=123) == solenoid_sample(50, seed=123)


def test_solenoid_inside_torus_bound():
    for p in solenoid_sample(400, seed=2):
        assert p[0] ** 2 + p[1] ** 2 <= (1 + 1.5 / 3) ** 2 + 1e-12
        assert abs(p[2]) <= 1.5


def test_random_cloud_deterministic_and_in_cube():
    a = random_cloud(3, 2, 42)
    b = random_cloud(3, 2, 42)
    assert a == b
    for p in random_cloud(100, 4, 0):
        assert all(0.0 <= c < 1.0 for c in p)
    assert len(random_cloud(1, 2, 0)) == 1


def test_seeds_differ():
    assert random_cloud(5, 2, 0) != random_cloud(5, 2, 1)


def test_param_validation():
    with pytest.raises(Exception):
        circle_sample(0)
    for n in (0, -1):
        with pytest.raises(InputError, match="need n >= 1"):
            solenoid_sample(n)
