"""Instance documents fuzzed through ``hstmatch run`` in-process, under every algorithm tag, and ``hstmatch embed``;
argument strings fuzzed through ``hstmatch sweep``.

Each document either runs (exit 0, one line of finite JSON on stdout, the same
report in the --report file, no ratio below one, and a -o trace that
``helpers.check_trace`` accepts against the document) or is refused (exit 1,
nothing on stdout, no report or trace file, exactly one JSON error line on
stderr). A refusal is a ValueError of the program's own, never a numpy warning
turned into an error. ``embed`` either prints one tree whose leaves carry every
zero-distance class's full server count, as ``check_embed_dump`` reads them from
the document, or is refused in the same way. A ``sweep`` either writes one row
per (size, algorithm) pair or is refused in the same way, with no table written.
Documents with broken structure (ragged rows, nested lists, objects where lists
belong, numbers beyond the largest float, a dist that is no list) go through
``run`` and ``embed`` and either run or are refused in the same way.
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import check_embed_dump, check_trace
from hstmatch.cli import main
from hstmatch.generators import FAMILIES
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
            _assert_one_error_line(err, tag)
    code, out, err = run_in_process("embed", "--instance", instance, "--seed", 3)
    if code == 0:
        assert err == ""
        lines = out.split("\n")
        assert len(lines) == 2 and lines[1] == ""
        check_embed_dump(document, json.loads(lines[0]))
    else:
        assert code == 1 and out == ""
        _assert_one_error_line(err, "embed")


def _assert_one_error_line(err: str, command: str) -> None:
    lines = err.split("\n")
    assert len(lines) == 2 and lines[1] == "", err
    message = json.loads(lines[0])["error"]
    assert message.split(":")[0] in ("ValueError", "MetricStructureError"), (command, message)


# Values that do not belong in an instance document, or only just: JSON numbers beyond the largest float
# (written as the bare tokens 1e400, -1e400 and a 5,000-digit integer, past Python's conversion limit),
# huge and 64-bit integers, and strings, booleans, nulls, objects and nested lists where numbers or lists go.
JUNK = ["1e400", "-1e400", "1e5000digits", 10**400, -(10**400), 2**64, 2**1024, None, True, "0", {}, {"0": 0},
        [], [0], [[0]], 1.5]
BARE = {'"1e400"': "1e400", '"-1e400"': "-1e400", '"1e5000digits"': "1" + "0" * 5000}


@st.composite
def malformed_documents(draw) -> str:
    """A valid line-metric document with one to three parts broken, as JSON text."""
    n = draw(st.integers(1, 4))
    dist = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
    doc = {"points": [f"p{i}" for i in range(n)], "dist": dist, "servers": list(range(n)),
           "requests": list(range(n))[::-1]}
    junk = st.sampled_from(JUNK)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = doc["dist"] if isinstance(doc["dist"], list) and doc["dist"] else None
        site = draw(st.sampled_from(["dist", "nest", "row", "ragged", "entry", "pair", "field", "index"]))
        if site == "dist":  # no list at all
            doc["dist"] = draw(junk)
        elif site == "nest":  # one level of lists too many
            doc["dist"] = [doc["dist"]]
        elif rows is None or not isinstance(rows[i % len(rows)], list):
            continue
        elif site == "row":
            rows[i % len(rows)] = draw(junk)
        elif site == "ragged":  # one entry short or one too many
            row = rows[i % len(rows)]
            row.pop() if row and draw(st.booleans()) else row.append(1.0)
        elif site in ("entry", "pair"):  # one entry, or both entries of a pair
            value = draw(junk)
            for a, b in ((i, j), (j, i))[: 1 if site == "entry" else 2]:
                if a < len(rows) and isinstance(rows[a], list) and b < len(rows[a]):
                    rows[a][b] = value
        elif site == "field":
            doc[draw(st.sampled_from(["points", "servers", "requests"]))] = draw(junk)
        elif isinstance(doc["servers"], list) and doc["servers"]:
            doc["servers"][i % len(doc["servers"])] = draw(junk)
    text = json.dumps(doc)
    for quoted, bare in BARE.items():
        text = text.replace(quoted, bare)
    return text


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=malformed_documents())
@example(text='{"points": ["a", "b"], "dist": [[0, 1], [1]], "servers": [0], "requests": [1]}')
@example(text='{"points": ["a", "b"], "dist": {"0": [0, 1], "1": [1, 0]}, "servers": [0], "requests": [1]}')
@example(text='{"points": ["a", "b"], "dist": [[0, 1e400], [1e400, 0]], "servers": [0], "requests": [1]}')
@example(text=json.dumps({"points": ["a", "b"], "dist": [[0, 10**400], [10**400, 0]], "servers": [0], "requests": [1]}))
@example(text='{"points": ["a"], "dist": 5, "servers": [0], "requests": [0]}')
def test_every_malformed_document_runs_or_gives_one_error_line(workdir, text):
    instance = workdir / "malformed.json"
    instance.write_text(text)
    for argv in (("run", "--algorithm", "rwgm", "--episodes", 2), ("embed",)):
        code, out, err = run_in_process(argv[0], "--instance", instance, *argv[1:])
        if code == 0:
            lines = out.split("\n")
            assert err == "" and len(lines) == 2 and lines[1] == "" and json.loads(lines[0])
        else:
            assert code == 1 and out == ""
            _assert_one_error_line(err, argv[0])


SIZE_ENTRIES = ["1", "2", "3", "0", "-2", "", "2.5", "+2", " 2", "2_0", "x", "1e1"]
ALGORITHM_ENTRIES = [*ALGORITHMS, "", "RWGM", "rwgm "]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(FAMILIES),
    sizes=st.lists(st.sampled_from(SIZE_ENTRIES), min_size=1, max_size=3).map(",".join),
    algorithms=st.lists(st.sampled_from(ALGORITHM_ENTRIES), min_size=1, max_size=3).map(",".join),
)
@example(family="line", sizes="4,,5", algorithms="rwgm")
@example(family="line", sizes="2,3", algorithms="rwgm,greedy,optimal")
def test_every_sweep_writes_its_rows_or_one_error_line(workdir, family, sizes, algorithms):
    table = workdir / "sweep.csv"
    table.unlink(missing_ok=True)
    code, out, err = run_in_process(
        "sweep", "--family", family, f"--sizes={sizes}", f"--algorithms={algorithms}", "--episodes", 2, "-o", table
    )  # "--sizes=-2,1", as "--sizes -2,1" would read "-2,1" as a flag
    if code == 0:
        rows = len(sizes.split(",")) * len(algorithms.split(","))
        assert err == "" and json.loads(out) == {"written": str(table), "rows": rows}
        lines = table.read_text().split("\n")
        assert lines[0] == "n,algorithm,mean_ratio,std_error" and len(lines) == rows + 2 and lines[-1] == ""
    else:
        assert code == 1 and out == "" and not table.exists()
        _assert_one_error_line(err, "sweep")
    entries = sizes.split(",") + algorithms.split(",")
    if "" in entries or any(not (s.isascii() and s.removeprefix("-").isdigit()) for s in sizes.split(",")):
        assert code == 1 and ("sizes" in err or "algorithms" in err), err  # the refusal names its flag
