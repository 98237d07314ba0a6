import json
import warnings

import numpy as np
import pytest

from hstmatch.generators import euclidean_metric, line_metric, star_metric, uniform_metric
from hstmatch.metric import (
    FiniteMetric,
    Instance,
    MetricStructureError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    submetric_of_servers,
    validate_metric,
)


def test_validate_accepts_degenerate_and_two_point():
    assert validate_metric([[0.0]]) is None
    assert validate_metric([[0, 1], [1, 0]]) is None


def test_validate_flags_triangle_violation_with_triple():
    v = validate_metric([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    assert v is not None and v.kind == "triangle"
    i, j, k = v.where
    assert {i, j} == {0, 1} and k == 2
    assert str(v) == "dist[0][1] = 5.0 > dist[0][2] + dist[2][1] = 2.0"


def test_validate_ignores_overflowing_detours():
    # dist[0][2] + dist[2][1] overflows to inf, which can never be a violation.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_metric(line_metric([0.0, 1.0, 1e308]).dist) is None


def test_validate_flags_diagonal_and_symmetry():
    v = validate_metric([[0, 1], [1, 0.5]])
    assert v is not None and v.kind == "diagonal" and v.where == (1,)
    v = validate_metric([[0, 1], [2, 0]])
    assert v is not None and v.kind == "symmetry"


@pytest.mark.parametrize(
    "bad",
    [
        [[0, 1, 2], [1, 0, 1]],  # non-square
        [[0, -1], [-1, 0]],  # negative
        [[0, float("nan")], [float("nan"), 0]],
        [[0, float("inf")], [float("inf"), 0]],
    ],
)
def test_structural_junk_raises(bad):
    with pytest.raises(MetricStructureError):
        validate_metric(bad)


def test_random_euclidean_metrics_always_valid():
    # Pairwise Euclidean distances satisfy the axioms by construction.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        dim = int(rng.integers(1, 4))
        m = euclidean_metric(rng.random((n, dim)))
        assert validate_metric(m) is None


@pytest.mark.parametrize("size", [1, 2, 17, 256])
def test_generator_families_validate_up_to_256(size):
    assert validate_metric(star_metric(size)) is None
    assert validate_metric(uniform_metric(size)) is None
    rng = np.random.default_rng(size)
    assert validate_metric(line_metric(rng.uniform(0, 100, size))) is None
    if size <= 64:
        assert validate_metric(euclidean_metric(rng.random((size, 3)))) is None


def test_metric_is_immutable():
    m = FiniteMetric.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        m.dist[0, 1] = 3.0


def make_instance(dist, servers, requests):
    return Instance(metric=FiniteMetric.from_matrix(dist), servers=servers, requests=requests)


def test_instance_invariants():
    d = [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        make_instance(d, (0,), (0, 1))
    with pytest.raises(ValueError):
        make_instance(d, (), ())
    with pytest.raises(ValueError):
        make_instance(d, (0, 2), (0, 1))


def test_submetric_deduplicates_and_maps():
    m = uniform_metric(5)
    inst = Instance(metric=m, servers=(1, 1, 3), requests=(0, 2, 4))
    sub, mapping = submetric_of_servers(inst)
    assert len(sub) == 2
    assert mapping == {1: 0, 3: 1}
    assert sub.points == (m.points[1], m.points[3])
    assert validate_metric(sub) is None


def test_submetric_full_cover_is_identity():
    rng = np.random.default_rng(3)
    m = euclidean_metric(rng.random((4, 2)))
    inst = Instance(metric=m, servers=(0, 1, 2, 3), requests=(3, 2, 1, 0))
    sub, mapping = submetric_of_servers(inst)
    assert mapping == {i: i for i in range(4)}
    assert np.array_equal(sub.dist, m.dist)


def test_submetric_single_server():
    m = uniform_metric(3)
    inst = Instance(metric=m, servers=(1,), requests=(2,))
    sub, mapping = submetric_of_servers(inst)
    assert sub.dist.shape == (1, 1) and sub.dist[0, 0] == 0.0
    assert mapping == {1: 0}


def test_submetric_distances_bit_identical():
    rng = np.random.default_rng(9)
    m = euclidean_metric(rng.random((8, 3)))
    inst = Instance(metric=m, servers=(5, 2, 2, 7), requests=(0, 1, 3, 4))
    sub, mapping = submetric_of_servers(inst)
    for p in (2, 5, 7):
        for q in (2, 5, 7):
            assert sub.dist[mapping[p], mapping[q]] == m.dist[p, q]


def test_instance_json_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    m = euclidean_metric(rng.random((6, 2)))
    inst = Instance(metric=m, servers=(0, 2, 2), requests=(1, 3, 5))
    data = instance_to_dict(inst)
    assert set(data) == {"points", "dist", "servers", "requests"}
    back = instance_from_dict(json.loads(json.dumps(data)))
    assert np.array_equal(back.metric.dist, m.dist)  # repr round trip is exact
    assert back.servers == inst.servers and back.requests == inst.requests

    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert np.array_equal(again.metric.dist, m.dist)
    assert again.metric.points == m.points


def test_instance_rejects_non_integer_entries():
    base = {"points": ["0", "1"], "dist": [[0.0, 1.0], [1.0, 0.0]], "servers": [0], "requests": [1]}
    for field, bad in (("servers", 0.9), ("requests", True), ("servers", 1.0), ("requests", "1")):
        with pytest.raises(ValueError, match=f"{field}\\[0\\] = {bad!r}"):
            instance_from_dict({**base, field: [bad]})
    m = uniform_metric(3)
    inst = Instance(metric=m, servers=(np.int64(2), 0), requests=np.array([1, 2], dtype=np.int32))
    assert inst.servers == (2, 0) and inst.requests == (1, 2)
    assert all(type(p) is int for p in inst.servers + inst.requests)


def test_instance_json_missing_field():
    with pytest.raises(ValueError):
        instance_from_dict({"points": ["0"], "dist": [[0.0]], "servers": [0]})
