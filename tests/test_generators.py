import re

import numpy as np
import pytest

from hstmatch import generators
from hstmatch.generators import (
    FAMILIES,
    MAX_COORDINATES,
    MAX_POINTS,
    GeneratorSpec,
    euclidean_metric,
    generate_instance,
    line_metric,
)
from hstmatch.metric import validate_metric
from hstmatch.oracle import optimal_matching


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("ring", 4, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec("star", 0, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec("euclidean", 4, seed=0, dim=0)
    for bad in (0.0, -1.0, float("nan"), float("inf"), True, np.True_, "5", None, 10**400):
        with pytest.raises(ValueError, match="^coord_range must be finite and positive, got [^\n]+$"):
            GeneratorSpec("line", 4, seed=0, coord_range=bad)
    # Specs only: none of these builds a metric.
    for family, n_max in (("euclidean", MAX_POINTS // 2), ("line", MAX_POINTS // 2),
                          ("star", MAX_POINTS - 1), ("nested-uniform", MAX_POINTS - 1)):
        GeneratorSpec(family, n_max, seed=0)
        for n in (n_max + 1, 10**18):
            with pytest.raises(ValueError, match=f"^{family} n={n} needs .* above MAX_POINTS = {MAX_POINTS}$"):
                GeneratorSpec(family, n, seed=0)
    # The coordinate bound applies to euclidean specs only: 2n * dim coordinates.
    GeneratorSpec("euclidean", MAX_POINTS // 2, seed=0, dim=MAX_COORDINATES // MAX_POINTS)
    GeneratorSpec("line", MAX_POINTS // 2, seed=0, dim=10**18)
    for n, dim in ((MAX_POINTS // 2, MAX_COORDINATES // MAX_POINTS + 1), (1, MAX_COORDINATES // 2 + 1), (1, 10**18)):
        message = f"^euclidean n={n} dim={dim} needs {2 * n * dim} coordinates, above MAX_COORDINATES = {MAX_COORDINATES}$"
        with pytest.raises(ValueError, match=message):
            GeneratorSpec("euclidean", n, seed=0, dim=dim)


@pytest.mark.parametrize(
    "field, bad",
    [("n", 2.7), ("n", 3.0), ("n", True), ("n", "3"), ("dim", 2.0), ("dim", False), ("dim", None),
     ("seed", 1.5), ("seed", True), ("seed", "0"), ("seed", -5)],
)
@pytest.mark.parametrize("family", FAMILIES)
def test_spec_refuses_fields_that_are_not_integers_in_range(family, field, bad):
    kwargs = {"n": 3, "seed": 0, "dim": 2, field: bad}
    expect = "a non-negative" if field == "seed" else "a positive"
    with pytest.raises(ValueError, match=f"^{field} must be {expect} integer, got {bad!r}$") as err:
        GeneratorSpec(family, **kwargs)
    assert "\n" not in str(err.value)


def test_spec_takes_numpy_integers_like_ints():
    spec = GeneratorSpec("euclidean", np.int32(3), seed=np.uint64(7), dim=np.int64(2))
    assert generate_instance(spec).servers == generate_instance(GeneratorSpec("euclidean", 3, seed=7)).servers


def test_star_instance_structure_and_opt():
    inst = generate_instance(GeneratorSpec("star", 3, seed=0))
    assert inst.servers == (1, 2, 3)
    assert inst.requests == (0, 1, 2)
    assert optimal_matching(inst).cost == pytest.approx(1.0)


def test_nested_uniform_structure_and_opt():
    inst = generate_instance(GeneratorSpec("nested-uniform", 2, seed=0))
    assert inst.servers == (1, 2)
    assert inst.requests == (0, 1)  # the unshared request comes first
    assert optimal_matching(inst).cost == pytest.approx(1.0)
    big = generate_instance(GeneratorSpec("nested-uniform", 9, seed=0))
    assert optimal_matching(big).cost == pytest.approx(1.0)


def test_line_single_pair_opt_is_coordinate_gap():
    inst = generate_instance(GeneratorSpec("line", 1, seed=5))
    assert inst.n == 1
    gap = float(inst.metric.dist[inst.servers[0], inst.requests[0]])
    assert optimal_matching(inst).cost == pytest.approx(gap)


def test_euclidean_and_line_sizes():
    inst = generate_instance(GeneratorSpec("euclidean", 5, seed=1, dim=3))
    assert inst.n == 5 and len(inst.metric) == 10
    assert sorted(inst.servers + inst.requests) == list(range(10))
    inst = generate_instance(GeneratorSpec("line", 4, seed=1))
    assert inst.n == 4 and len(inst.metric) == 8


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_metrics_are_valid(family):
    for n in (1, 2, 7, 128):
        inst = generate_instance(GeneratorSpec(family, n, seed=n))
        assert validate_metric(inst.metric) is None


def test_generation_is_deterministic_in_seed():
    a = generate_instance(GeneratorSpec("euclidean", 6, seed=42))
    b = generate_instance(GeneratorSpec("euclidean", 6, seed=42))
    c = generate_instance(GeneratorSpec("euclidean", 6, seed=43))
    assert np.array_equal(a.metric.dist, b.metric.dist)
    assert a.servers == b.servers and a.requests == b.requests
    assert not np.array_equal(a.metric.dist, c.metric.dist)


@pytest.mark.parametrize("n, dim", [(1, 1), (2, 3), (17, 2), (40, 8), (33, 9), (25, 12), (9, 17)])
def test_euclidean_rows_in_chunks_are_bit_exact(monkeypatch, n, dim):
    pts = np.random.default_rng(n * dim).random((n, dim)) * 10.0 ** np.arange(-2, dim - 2)
    diff = pts[:, None, :] - pts[None, :, :]
    one_shot = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(one_shot, 0.0)
    for entries in (1, n * dim, 5 * n * dim, 1 << 20):
        monkeypatch.setattr(generators, "_CHUNK_ENTRIES", entries)
        assert np.array_equal(euclidean_metric(pts).dist, one_shot)


@pytest.mark.parametrize("coords, shape", [([0.0, 1.0, 3.0], (3,)), ([], (0,)), (5.0, ()), ([[[0.0, 1.0]]], (1, 1, 2))])
def test_euclidean_metric_refuses_coordinates_that_are_not_a_2d_array(coords, shape):
    # Unchecked, a 1-d list would read as one point in len(coords) dimensions, and [] as one point in none.
    message = f"euclidean coordinates must be a 2-d (n, dim) array, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        euclidean_metric(coords)


@pytest.mark.parametrize("coords, shape", [([[0, 1], [3, 4]], (2, 2)), (7.0, ()), ([[5.0]], (1, 1))])
def test_line_metric_refuses_coordinates_that_are_not_a_1d_array(coords, shape):
    # Unchecked, [[0, 1], [3, 4]] would be flattened into four points on a line.
    with pytest.raises(ValueError, match=f"^{re.escape(f'line coordinates must be a 1-d array, got shape {shape}')}$"):
        line_metric(coords)
    assert line_metric([0.0, 1.0, 3.0]).dist.shape == (3, 3)


@pytest.mark.parametrize(
    "build, coords, family",
    [(euclidean_metric, [[10**400], [0]], "euclidean"), (euclidean_metric, [[0, -(10**400)]], "euclidean"),
     (line_metric, [10**400, 0], "line"), (line_metric, [0, -(10**400)], "line")],
)
def test_coordinates_beyond_the_float_range_are_refused_in_one_line(build, coords, family):
    # numpy's conversion raises a bare OverflowError on a Python int past the largest float.
    message = f"{family} coordinates must be finite reals; an integer beyond the float range is not"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(coords)
    assert build([[10**100], [0]] if family == "euclidean" else [10**300, 0]).dist.shape == (2, 2)  # a large int is taken
