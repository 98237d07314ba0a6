import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import k_major_triangle, random_tree, reference_request_triangle, tree_metric
from hstmatch import metric, online
from hstmatch.generators import euclidean_metric, line_metric, star_metric, uniform_metric
from hstmatch.metric import (
    TRIANGLE_SLACK,
    FiniteMetric,
    Instance,
    MetricStructureError,
    ensure_valid_metric,
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
        [[0, 10**400], [10**400, 0]],  # an integer beyond the largest float
    ],
)
def test_structural_junk_raises(bad):
    with pytest.raises(MetricStructureError):
        validate_metric(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        (5.0, "distance matrix must be square, got shape ()"),
        ([1.0, 2.0], "distance matrix must be square, got shape (2,)"),
        ([[0, 1, 2], [1, 0, 1]], "distance matrix must be square, got shape (2, 3)"),
        ([[]], "distance matrix must be square, got shape (1, 0)"),
        ([[0, float("nan")], [1, 0]], "distance matrix contains NaN or infinite entries"),
        ([[0, -1], [-1, 0]], "negative distance -1.0 at (0, 1)"),
        ([[0, 10**400], [10**400, 0]], "distance matrix holds an integer too large for a float"),
    ],
)
def test_from_matrix_scans_once_and_keeps_every_message(monkeypatch, bad, message):
    calls = []
    monkeypatch.setattr(metric, "_as_square_matrix", lambda d, _fn=metric._as_square_matrix: calls.append(1) or _fn(d))
    with pytest.raises(MetricStructureError, match=f"^{re.escape(message)}$"):
        FiniteMetric.from_matrix(bad)
    m = FiniteMetric.from_matrix([[0, 2], [2, 0]])
    assert m.points == ("0", "1") and m.dist.tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert calls == [1, 1]  # one scan per from_matrix call
    with pytest.raises(MetricStructureError, match="^3 labels for a 2x2 matrix$"):
        FiniteMetric.from_matrix([[0, 2], [2, 0]], points="abc")


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


@st.composite
def coordinate_arrays(draw, max_dim):
    """n x dim coordinates with magnitudes from 1e-150 to 1e150, both signs, zeros and repeats."""
    n = draw(st.integers(1, 128))
    dim = draw(st.integers(1, max_dim))
    magnitude = st.floats(1e-150, 1e150)
    pool = draw(st.lists(st.just(0.0) | magnitude | magnitude.map(lambda x: -x), min_size=1, max_size=8))
    low = draw(st.integers(-150, 149))
    high = draw(st.integers(low, 149))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = rng.uniform(1.0, 10.0, (n, dim)) * 10.0 ** rng.integers(low, high + 1, (n, dim))
    spread[rng.random((n, dim)) < 0.5] *= -1.0
    repeated = rng.choice(np.asarray(pool), size=(n, dim))
    return np.where(rng.random((n, dim)) < draw(st.sampled_from([0.0, 0.5, 1.0])), repeated, spread)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(size=st.integers(1, 128))
def test_star_and_uniform_are_valid_by_construction(size):
    assert validate_metric(star_metric(size)) is None
    assert validate_metric(uniform_metric(size)) is None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coords=coordinate_arrays(max_dim=1))
def test_line_metric_is_valid_by_construction(coords):
    assert validate_metric(line_metric(coords[:, 0])) is None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coords=coordinate_arrays(max_dim=12))
def test_euclidean_metric_is_valid_by_construction(coords):
    try:
        m = euclidean_metric(coords)
    except ValueError as exc:
        # Only where a squared difference underflows does the constructor run the exact check.
        gaps = np.diff(np.sort(coords, axis=0), axis=0)
        assert (gaps[gaps > 0] < 2.0**-511).any() and str(exc).startswith("invalid metric: ")
        return
    assert validate_metric(m) is None


@st.composite
def triangle_cases(draw):
    """Symmetric zero-diagonal matrices on both sides of the triangle check.

    A valid metric of one of five kinds, optionally collapsed onto zero-distance
    classes, rescaled so its sums overflow, and pushed to an excess of tol and
    one ulp either side of it on one triple.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["euclidean", "line", "uniform", "star", "tree"]))
    size = draw(st.integers(1, 40))
    if kind == "euclidean":
        d = euclidean_metric(rng.random((size, draw(st.integers(1, 4)))) * 10.0 ** rng.integers(-3, 4)).dist
    elif kind == "line":
        d = line_metric(rng.uniform(-50.0, 50.0, size)).dist
    elif kind == "uniform":
        d = uniform_metric(size).dist
    elif kind == "star":
        d = star_metric(size).dist
    else:
        d = tree_metric(random_tree(rng, draw(st.integers(1, 4)), lam=draw(st.floats(1.5, 6.0)))).dist
    d = np.array(d)
    if draw(st.booleans()):  # zero-distance classes: several points per base point
        cls = rng.integers(0, len(d), draw(st.integers(1, 48)))
        d = d[np.ix_(cls, cls)]
    if draw(st.booleans()) and d.max() > 0:  # entries near the float maximum: detours overflow
        d = d / d.max() * (np.finfo(float).max * draw(st.floats(0.5, 1.0)))
    n = len(d)
    if n >= 3 and draw(st.booleans()):
        i, j, k = (int(x) for x in rng.choice(n, 3, replace=False))
        tol = TRIANGLE_SLACK * float(d.max())
        with np.errstate(over="ignore"):
            edge = (d[i, k] + d[k, j]) + tol
        if np.isfinite(edge):
            ulps = draw(st.sampled_from([-1, 0, 1]))
            d[i, j] = d[j, i] = {-1: np.nextafter(edge, 0.0), 0: edge, 1: np.nextafter(edge, np.inf)}[ulps]
    return d


def tol_of(d) -> float:
    return TRIANGLE_SLACK * float(d.max()) if len(d) else 0.0


def assert_names_a_failing_triangle(d, violation) -> None:
    """A reported triple (i, j, k) has i <= j, k outside {i, j}, and an excess above tol, in the message too."""
    i, j, k = violation.where
    assert violation.kind == "triangle" and i <= j and k not in (i, j)
    with np.errstate(over="ignore"):
        assert d[i, j] - (d[i, k] + d[k, j]) > tol_of(d)
    assert str(violation) == f"dist[{i}][{j}] = {d[i, j]} > dist[{i}][{k}] + dist[{k}][{j}] = {d[i, k] + d[k, j]}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=triangle_cases())
def test_row_scan_agrees_with_the_k_major_loop(d):
    fails = k_major_triangle(d, tol_of(d)) is not None
    for chunk in (metric._CHUNK_ENTRIES, 64):  # 64: blocks of one row or a few, splitting every row range
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_CHUNK_ENTRIES", chunk)
            got = validate_metric(d)
        assert (got is not None) == fails
        if got is not None:
            assert_names_a_failing_triangle(d, got)


def test_row_scan_sees_tol_to_the_ulp():
    # The far point fixes the max entry, so tol stays TRIANGLE_SLACK * 10
    # while dist[0][2] moves across the excess tol over the detour through 1.
    d = line_metric([0.0, 1.0, 3.0, 10.0]).dist.copy()
    tol = TRIANGLE_SLACK * 10.0
    edge = 3.0 + tol
    verdicts = []
    for e in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 4.0)):
        d[0, 2] = d[2, 0] = e
        got = validate_metric(d)
        assert (got is None) == (k_major_triangle(d, tol) is None) == (metric._first_triangle(d, tol) is None)
        verdicts.append(got)
    assert verdicts[0] is None and verdicts[1] is None and verdicts[-1].where == (0, 2, 1)
    assert_names_a_failing_triangle(d, verdicts[-1])


def test_row_scan_temporaries_stay_under_the_cap(monkeypatch):
    d = line_metric(np.arange(400.0)).dist
    monkeypatch.setattr(metric, "_CHUNK_ENTRIES", 4096)
    tracemalloc.start()
    try:
        assert metric._first_triangle(d, 0.0) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The block of sums plus numpy's 8192-element ufunc buffer, not a 400x400 matrix (1.28 MB).
    assert peak <= 8 * 4096 + 8 * 8192


def test_generated_matrix_loaded_again_is_checked():
    # A generated metric is trusted by construction; the same matrix read from JSON is checked at load.
    rng = np.random.default_rng(4)
    m = euclidean_metric(rng.random((12, 3)))
    inst = Instance(metric=m, servers=(0, 1, 2, 3, 4, 5), requests=(6, 7, 8, 9, 10, 11))
    data = json.loads(json.dumps(instance_to_dict(inst)))
    assert np.array_equal(instance_from_dict(data).metric.dist, m.dist)
    # The whole matrix's diagonal and symmetry are checked, not only the servers'.
    for i, j, message in [
        (7, 7, r"dist\[7\]\[7\] = 10\.0 != 0$"),
        (6, 7, r"dist\[6\]\[7\] = 10\.0 != dist\[7\]\[6\] = "),
    ]:
        request_points = json.loads(json.dumps(data))
        request_points["dist"][i][j] = 10.0
        with pytest.raises(ValueError, match="^invalid metric: " + message):
            instance_from_dict(request_points)
    data["dist"][1][4] = data["dist"][4][1] = 10.0  # the cloud's diameter is sqrt(3)
    server_triangle = "invalid metric: dist[1][4] = 10.0 > dist[1][5] + dist[5][4] = "
    with pytest.raises(ValueError, match="^" + re.escape(server_triangle)):
        instance_from_dict(data)


def test_ensure_valid_metric_checks_on_every_call_and_marks_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(metric, "validate_metric", lambda m, _fn=validate_metric: calls.append(m) or _fn(m))
    m = FiniteMetric.from_matrix([[0, 1], [1, 0]])
    assert ensure_valid_metric(m) is m and ensure_valid_metric(m) is m
    assert calls == [m, m] and set(vars(m)) == {"points", "dist"}
    message = "invalid metric: dist[0][1] = 5.0 > dist[0][2] + dist[2][1] = 2.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ensure_valid_metric(FiniteMetric.from_matrix([[0, 5, 1], [5, 0, 1], [1, 1, 0]]))


@st.composite
def request_triangle_cases(draw):
    """An instance whose requests discretize_all sends to their images.

    The matrix is a line metric, the same with entries scaled up or down, or
    small random integers (neither symmetric nor a metric); nonzero
    diagonals are allowed too, since the check reads only the entries it names.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["line", "perturbed", "integers"]))
    if kind == "integers":
        d = rng.integers(0, 6, (size, size)).astype(float)
    else:
        d = np.array(line_metric(rng.uniform(0.0, 10.0, size)).dist)
        if kind == "perturbed":
            d[rng.random((size, size)) < 0.2] *= rng.choice([0.5, 1.0 + 1e-9, 2.0])
    n = draw(st.integers(1, 2 * size))
    servers = tuple(int(p) for p in rng.integers(0, size, n))
    requests = tuple(int(p) for p in rng.integers(0, size, n))
    return Instance(metric=FiniteMetric.from_matrix(d), servers=servers, requests=requests)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=request_triangle_cases(), chunk=st.sampled_from([1, 24, 1 << 20]))
def test_request_triangles_match_the_brute_force_loop(inst, chunk):
    d = inst.metric.dist
    pts = sorted(set(inst.servers))
    images = tuple(min(pts, key=lambda s: d[r, s]) for r in inst.requests)  # min keeps the first: the lowest index
    want = reference_request_triangle(inst, images)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(online, "_CHUNK_ENTRIES", chunk)  # one request per block, a few, or all at once
        if want is None:
            got = online.discretize_all(inst)
            assert got == images and all(type(g) is int for g in got)
            return
        i, j, k = want
        message = f"invalid metric: dist[{i}][{j}] = {d[i, j]} > dist[{i}][{k}] + dist[{k}][{j}] = {d[i, k] + d[k, j]}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as refused:
            online.discretize_all(inst)
        assert type(refused.value) is ValueError


def test_euclidean_underflow_falls_back_to_the_exact_check():
    # Squared gaps of 1e-162 round to zero while 2e-162 squared does not, so
    # the computed distances 0, 0 and 2.2e-162 break the triangle inequality.
    with pytest.raises(ValueError, match="invalid metric: dist\\[0\\]\\[2\\]"):
        euclidean_metric([[0.0], [1e-162], [2e-162]])
    assert validate_metric(euclidean_metric([[0.0], [1e-162]])) is None  # two points are a metric


def test_metric_is_immutable():
    m = FiniteMetric.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        m.dist[0, 1] = 3.0
    given = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = FiniteMetric(points=("a", "b"), dist=given)
    given[0, 1] = 3.0  # the metric holds its own copy of an ndarray
    assert m.dist[0, 1] == 1.0 and m.dist.flags.writeable is False


def test_metric_converts_a_list_matrix_once():
    n = 300
    rows = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
    labels = tuple(str(i) for i in range(n))
    tracemalloc.start()
    try:
        FiniteMetric(points=labels, dist=rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One 300x300 matrix and its finiteness mask (1.125 matrices), not the matrix and a copy of it.
    assert peak <= 1.5 * 8 * n * n


def test_from_matrix_converts_a_list_matrix_once():
    # The labels are counted off the rows, so from_matrix peaks as the constructor does (1.13 matrices),
    # not at a conversion for the count plus the constructor's own (2.15).
    n = 300
    rows = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
    tracemalloc.start()
    try:
        m = FiniteMetric.from_matrix(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n
    assert m.points == tuple(str(i) for i in range(n)) and m.dist.tolist() == rows


def make_instance(dist, servers, requests):
    return Instance(metric=FiniteMetric.from_matrix(dist), servers=servers, requests=requests)


def test_instance_invariants():
    d = [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        make_instance(d, (0,), (0, 1))
    with pytest.raises(ValueError):
        make_instance(d, (), ())
    with pytest.raises(ValueError, match=r"^servers\[1\] = 2 outside 0\.\.1$"):
        make_instance(d, (0, 2), (0, 1))
    with pytest.raises(ValueError, match=r"^requests\[0\] = -1 outside 0\.\.1$"):
        make_instance(d, (0, 1), (-1, 1))


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


def test_instance_rejects_non_numeric_distances():
    base = {"points": ["0", "1"], "servers": [0], "requests": [1]}
    for bad in ("1", True, None, [1.0]):
        dist = [[0.0, 1.0], [bad, 0.0]]
        with pytest.raises(ValueError, match=f"^dist\\[1\\]\\[0\\] = {re.escape(repr(bad))} is not a number$"):
            instance_from_dict({**base, "dist": dist})
    with pytest.raises(MetricStructureError, match="^distance matrix holds an integer too large for a float$"):
        instance_from_dict({**base, "dist": [[0, 10**400], [10**400, 0]]})
    inst = instance_from_dict({**base, "dist": [[0, 1], [1.0, 0]]})  # JSON integers are numbers
    assert inst.metric.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_instance_from_dict_refuses_more_than_max_points_before_it_converts_the_matrix():
    class Unconvertible(list):  # a list, so that only reading its rows can raise
        def __iter__(self):
            raise AssertionError("the matrix was converted")

    labels = [f"p{i}" for i in range(metric.MAX_POINTS)]
    document = {"dist": Unconvertible(), "servers": [0], "requests": [0]}
    for points in (labels + ["one too many"], labels + [None]):
        with pytest.raises(ValueError, match="^instance has 8193 points, above MAX_POINTS = 8192$"):
            instance_from_dict({**document, "points": points})
    with pytest.raises(AssertionError, match="^the matrix was converted$"):  # at the bound, the matrix is read
        instance_from_dict({**document, "points": labels})


def test_instance_rejects_non_string_labels():
    base = {"dist": [[0.0, 1.0], [1.0, 0.0]], "servers": [0], "requests": [1]}
    for bad in (None, True, 1, 1.5, {"a": 1}, ["a"]):
        with pytest.raises(ValueError, match=f"^points\\[1\\] = {re.escape(repr(bad))} is not a string$"):
            instance_from_dict({**base, "points": ["a", bad]})
    for bad, kind in (("ab", "str"), ({"a": 0, "b": 1}, "dict"), (None, "NoneType")):
        with pytest.raises(ValueError, match=f"^points must be a list of strings, got {kind}$"):
            instance_from_dict({**base, "points": bad})
    assert instance_from_dict({**base, "points": ["", "\u00e9"]}).metric.points == ("", "\u00e9")


def test_instance_json_missing_field():
    with pytest.raises(ValueError):
        instance_from_dict({"points": ["0"], "dist": [[0.0]], "servers": [0]})
