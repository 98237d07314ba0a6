"""Instance documents fuzzed through ``hstmatch run`` in-process, under every algorithm tag.

Each document either runs (exit 0, one line of finite JSON on stdout, the same
report in the --report file, no ratio below one, and a -o trace that
``helpers.check_trace`` accepts against the document) or is refused (exit 1,
nothing on stdout, no report or trace file, exactly one JSON error line on
stderr). A refusal is a ValueError of the program's own, never a numpy warning
turned into an error.
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import check_trace
from hstmatch.cli import main
from hstmatch.harness import ALGORITHMS

# Floats a document may hold: signed zeros, subnormals, ordinary values, values near the
# largest double, and the NaN and Infinity tokens that Python's json reads and writes.
SPECIAL = [0.0, -0.0, 5e-324, 1e-318, 1e-310, 1e-10, 0.5, 1.0, 3.0, 1e307, 1.5e308, 1.7976931348623157e308,
           float("nan"), float("inf"), -1.0]


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON token {token} in a report")


@st.composite
def documents(draw) -> dict:
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):  # a line metric at some scale: valid unless the scale breaks it
        scale = draw(st.sampled_from([1.0, 5e-324, 1e-310, 1e-300, 1e150, 1e307, 1e308]))
        xs = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 7]), min_size=n, max_size=n))
        dist = [[abs(a - b) * scale for b in xs] for a in xs]
    else:  # symmetric entries from SPECIAL, zero diagonal
        dist = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = draw(st.sampled_from(SPECIAL))
    if n >= 3 and draw(st.booleans()):  # zeros that are not transitive: a~b, b~c, yet a, c apart
        far = draw(st.sampled_from([5e-324, 1e-10, 1.0, 1e299, 1e308]))
        dist[0][1] = dist[1][0] = dist[1][2] = dist[2][1] = 0.0
        dist[0][2] = dist[2][0] = far
    if draw(st.booleans()):  # point 1 duplicates point 0
        dist[1] = list(dist[0])
        for row in dist:
            row[1] = row[0]
        dist[1][1] = dist[0][1] = dist[1][0] = 0.0
    if draw(st.integers(0, 9)) == 0:  # one entry anywhere, symmetry and diagonal included
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        dist[i][j] = draw(st.sampled_from(SPECIAL))
    m = draw(st.integers(1, 6))
    points = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    return {"points": [f"p{i}" for i in range(n)], "dist": dist, "servers": draw(points), "requests": draw(points)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_in_process(*argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(document=documents())
@example(document={"points": ["a", "b"], "dist": [[0, 1.5e308], [1.5e308, 0]], "servers": [0, 0], "requests": [1, 1]})
@example(document={"points": list("abcd"), "dist": [[0, 0, 1e-10, 1], [0, 0, 5e-324, 1], [1e-10, 5e-324, 0, 1],
                                                   [1, 1, 1, 0]], "servers": [0, 2, 3], "requests": [1, 0, 3]})
@example(document={"points": list("abcd"), "dist": [[0, 0, 1e-10, 1], [0, 0, 6.7e-319, 1], [1e-10, 6.7e-319, 0, 1],
                                                   [1, 1, 1, 0]], "servers": [0, 2, 3], "requests": [1, 0, 3]})
def test_every_run_ends_in_a_finite_report_or_one_error_line(workdir, document):
    instance, report_path, trace_path = workdir / "instance.json", workdir / "report.json", workdir / "trace.csv"
    instance.write_text(json.dumps(document))
    for tag in ALGORITHMS:
        report_path.unlink(missing_ok=True)
        trace_path.unlink(missing_ok=True)
        code, out, err = run_in_process(
            "run", "--instance", instance, "--algorithm", tag, "--episodes", 3, "--report", report_path,
            "-o", trace_path,
        )
        if code == 0:
            assert err == ""
            lines = out.split("\n")
            assert len(lines) == 2 and lines[1] == ""
            report = json.loads(lines[0], parse_constant=_reject_constant)
            assert json.loads(report_path.read_text(), parse_constant=_reject_constant) == report
            if report["kind"] == "ratio":
                assert report["min"] >= 1.0 - 1e-9, (tag, report)
            check_trace(document, trace_path.read_text(), report["opt"], report["episodes"])
        else:
            assert code == 1 and out == "" and not report_path.exists() and not trace_path.exists()
            lines = err.split("\n")
            assert len(lines) == 2 and lines[1] == "", err
            message = json.loads(lines[0])["error"]
            assert message.split(":")[0] in ("ValueError", "MetricStructureError"), (tag, message)
