import json
import subprocess
import sys
from pathlib import Path

import pytest

import hstmatch
from hstmatch import harness
from hstmatch.cli import main
from hstmatch.generators import GeneratorSpec, generate_instance
from hstmatch.harness import ALGORITHMS
from hstmatch.metric import MAX_POINTS, instance_from_dict, load_instance


def run_cli(*args):
    return main([str(a) for a in args])


def test_generate_round_trips(tmp_path):
    out = tmp_path / "inst.json"
    assert run_cli("generate", "--family", "star", "--n", 4, "--seed", 3, "-o", out) == 0
    inst = load_instance(out)
    direct = generate_instance(GeneratorSpec("star", 4, seed=3))
    assert inst.servers == direct.servers and inst.requests == direct.requests


def test_run_writes_trace_and_report(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli("generate", "--family", "star", "--n", 8, "--seed", 0, "-o", inst_path)
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.json"
    code = run_cli(
        "run", "--instance", inst_path, "--algorithm", "greedy",
        "--episodes", 5, "--seed", 1, "-o", trace, "--report", report,
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["algorithm"] == "greedy"
    assert data["mean_ratio"] == pytest.approx(15.0)
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "episode,step,request_point,server_point,cost"
    assert len(lines) == 9
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["opt"] == pytest.approx(1.0)


def test_run_optimal_reports_ratio_one(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli("generate", "--family", "euclidean", "--n", 5, "--seed", 2, "-o", inst_path)
    assert run_cli("run", "--instance", inst_path, "--algorithm", "optimal", "--seed", 0) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["mean_ratio"] == pytest.approx(1.0)


def test_sweep_reproducible_files(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--family", "line", "--sizes", "2,4", "--algorithms", "rwgm,greedy",
            "--episodes", 20, "--seed", 5]
    assert run_cli(*args, "-o", a) == 0
    assert run_cli(*args, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("n,algorithm,mean_ratio,std_error\n")


def test_embed_dumps_tree(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli("generate", "--family", "euclidean", "--n", 6, "--seed", 4, "-o", inst_path)
    tree_path = tmp_path / "tree.json"
    assert run_cli("embed", "--instance", inst_path, "--seed", 9, "--dump-tree", tree_path) == 0
    dump = json.loads(tree_path.read_text())
    assert set(dump) == {"lambda", "scale", "height", "nodes"}
    mults = [n["multiplicity"] for n in dump["nodes"] if n["multiplicity"] is not None]
    assert sum(mults) == 6
    # Identical seeds dump identical trees; the lambda override applies.
    again = tmp_path / "tree2.json"
    run_cli("embed", "--instance", inst_path, "--seed", 9, "--dump-tree", again)
    assert tree_path.read_bytes() == again.read_bytes()
    assert run_cli("embed", "--instance", inst_path, "--seed", 9, "--lambda", 2.5, "--dump-tree", again) == 0
    assert json.loads(again.read_text())["lambda"] == 2.5


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_embed_rejects_non_finite_lambda(tmp_path, capsys, lam):
    inst_path = tmp_path / "inst.json"
    run_cli("generate", "--family", "euclidean", "--n", 4, "--seed", 4, "-o", inst_path)
    capsys.readouterr()
    tree_path = tmp_path / "tree.json"
    assert run_cli("embed", "--instance", inst_path, "--lambda", lam, "--dump-tree", tree_path) == 1
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    assert "lam must be finite" in json.loads(lines[0])["error"]
    assert not tree_path.exists()


# Three points on a line at 0, 1e-200 and 1e200.
SPREAD_1E400 = {
    "points": ["a", "b", "c"],
    "dist": [[0.0, 1e-200, 1e200], [1e-200, 0.0, 1e200], [1e200, 1e200, 0.0]],
    "servers": [0, 1, 2],
    "requests": [2, 1, 0],
}


@pytest.mark.parametrize(
    "instance, extra, message",
    [
        (None, ["--lambda", "1.0000001"], "MAX_TREE_NODES"),
        (SPREAD_1E400, [], "floating-point range"),
    ],
)
def test_embed_refuses_unbuildable_trees(tmp_path, capsys, instance, extra, message):
    inst_path = tmp_path / "inst.json"
    if instance is None:
        run_cli("generate", "--family", "euclidean", "--n", 6, "--seed", 4, "-o", inst_path)
    else:
        inst_path.write_text(json.dumps(instance))
    capsys.readouterr()
    tree_path = tmp_path / "tree.json"
    assert run_cli("embed", "--instance", inst_path, *extra, "--dump-tree", tree_path) == 1
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error.startswith("ValueError: ") and message in error
    assert not tree_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--family", "star", "--n", "4"],
        ["run", "--instance", "inst.json", "--algorithm", "rwgm"],
        ["sweep", "--family", "star", "--sizes", "2"],
        ["embed", "--instance", "inst.json"],
    ],
    ids=["generate", "run", "sweep", "embed"],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    extra = [] if argv[0] in ("run", "embed") else ["-o", out]
    argv = [str(tmp_path / a) if a == "inst.json" else a for a in argv]
    assert run_cli(*argv, *extra, "--seed", "-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hstmatch " + argv[0])
    assert "argument --seed: must be a non-negative integer, got -1" in err
    assert not out.exists()


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    src = Path(hstmatch.__file__).resolve().parents[1]
    code = "import sys, hstmatch.cli; sys.exit('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    # Runs and sweeps that solve for the optimum load only the solver.
    inst_path = tmp_path / "inst.json"
    run_cli("generate", "--family", "euclidean", "--n", 6, "--seed", 4, "-o", inst_path)
    commands = [
        ["run", "--instance", inst_path, "--algorithm", "rwgm", "--episodes", 3, "-o", tmp_path / "trace.csv"],
        ["sweep", "--family", "line", "--sizes", "3,5", "--algorithms", "rwgm,greedy,optimal",
         "--episodes", 3, "-o", tmp_path / "sweep.csv"],
    ]
    code = (
        "import sys, hstmatch.cli; code = hstmatch.cli.main(sys.argv[1:]); "
        "sys.exit(code or 10 * ('scipy.optimize' in sys.modules))"
    )
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c", code, *map(str, argv)], cwd=src, capture_output=True, timeout=60
        )
        assert proc.returncode == 0, (argv[0], proc.returncode, proc.stderr.decode())
    assert (tmp_path / "trace.csv").exists() and (tmp_path / "sweep.csv").exists()


def one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("entry", ["1", True, None])
def test_run_rejects_non_numeric_distances(tmp_path, capsys, entry):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(
        {"points": ["a", "b"], "dist": [[0.0, entry], [1.0, 0.0]], "servers": [0], "requests": [1]}
    ))
    report = tmp_path / "report.json"
    assert run_cli("run", "--instance", inst_path, "--algorithm", "optimal", "--report", report) == 1
    assert one_error_line(capsys) == f"ValueError: dist[0][1] = {entry!r} is not a number"
    assert not report.exists()


def test_run_locates_an_out_of_range_point(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    document = {"points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "servers": [0, 1]}
    inst_path.write_text(json.dumps({**document, "requests": [5, 2]}))
    report = tmp_path / "report.json"
    assert run_cli("run", "--instance", inst_path, "--algorithm", "greedy", "--report", report) == 1
    assert one_error_line(capsys) == "ValueError: requests[0] = 5 outside 0..2"
    assert not report.exists()


def test_run_rejects_non_string_labels(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(
        {"points": [None, True], "dist": [[0.0, 1.0], [1.0, 0.0]], "servers": [0], "requests": [1]}
    ))
    report = tmp_path / "report.json"
    assert run_cli("run", "--instance", inst_path, "--algorithm", "optimal", "--report", report) == 1
    assert one_error_line(capsys) == "ValueError: points[0] = None is not a string"
    assert not report.exists()


@pytest.mark.parametrize(
    "document, message",
    [
        ([], "instance JSON must be an object, got list"),
        (None, "instance JSON must be an object, got NoneType"),
        ({"servers": 5}, "servers must be a list of point indices, got int"),
        ({"requests": 5}, "requests must be a list of point indices, got int"),
    ],
)
def test_run_rejects_misshapen_instance_json(tmp_path, capsys, document, message):
    if isinstance(document, dict):
        document = {"points": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]], "servers": [0], "requests": [1], **document}
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(document))
    report = tmp_path / "report.json"
    assert run_cli("run", "--instance", inst_path, "--algorithm", "optimal", "--report", report) == 1
    assert one_error_line(capsys) == f"ValueError: {message}"
    assert not report.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--family", "line", "--n", 15000], "line n=15000 needs 30000 points"),
        (["generate", "--family", "star", "--n", 8192], "star n=8192 needs 8193 points"),
        (["sweep", "--family", "euclidean", "--sizes", "4,4097"], "euclidean n=4097 needs 8194 points"),
    ],
)
def test_generators_refuse_more_than_max_points(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, "-o", out) == 1
    assert one_error_line(capsys) == f"ValueError: {message}, above MAX_POINTS = 8192"
    assert not out.exists()


def test_generate_refuses_too_many_coordinates(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run_cli("generate", "--family", "euclidean", "--n", 1, "--dim", 4000000, "-o", out) == 1
    assert one_error_line(capsys) == (
        "ValueError: euclidean n=1 dim=4000000 needs 8000000 coordinates, above MAX_COORDINATES = 4194304"
    )
    assert not out.exists()


def test_generate_rejects_infinite_coord_range(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = run_cli("generate", "--family", "line", "--n", 4, "--coord-range", "inf", "-o", out)
    assert code == 1
    assert one_error_line(capsys) == "ValueError: coord_range must be finite and positive, got inf"
    assert not out.exists()


@pytest.mark.parametrize(
    "sizes, algorithms, message",
    [("4", "", "algorithms must be nonempty"), ("", "rwgm", "sizes must be nonempty")],
)
def test_sweep_rejects_empty_lists(tmp_path, capsys, sizes, algorithms, message):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--family", "line", "--sizes", sizes, "--algorithms", algorithms, "-o", out)
    assert code == 1
    assert one_error_line(capsys) == f"ValueError: {message}"
    assert not out.exists()


def _six_points_with_a_bad_server_triple() -> dict:
    dist = [[0.0 if i == j else 50.0 for j in range(6)] for i in range(6)]
    for (i, j), v in {(3, 4): 1.0, (4, 5): 0.1, (3, 5): 100.0}.items():
        dist[i][j] = dist[j][i] = v
    return {"points": list("abcdef"), "dist": dist, "servers": [3, 4, 5], "requests": [0, 1, 2]}


BAD_INSTANCES = {
    # Servers at points 3, 4, 5: the violation is named by instance points, not submetric positions.
    "server-triple": (_six_points_with_a_bad_server_triple(), "dist[3][5] = 100.0 > dist[3][4] + dist[4][5] = 1.1"),
    # dist[r][s] = 0 but dist[s][r] = 10: the oracle and the traces would read different rows.
    "asymmetric-rows": (
        {
            "points": list("abcd"),
            "dist": [[0, 10, 10, 10], [10, 0, 10, 10], [0, 10, 0, 10], [10, 0, 10, 0]],
            "servers": [0, 1],
            "requests": [2, 3],
        },
        "dist[0][2] = 10.0 != dist[2][0] = 0.0",
    ),
    # c is 0.1 from its image b, b is 1 from server a, yet c is 100 from a.
    "request-triangle": (
        {"points": list("abc"), "dist": [[0, 1, 100], [1, 0, 0.1], [100, 0.1, 0]], "servers": [0, 1],
         "requests": [2, 2]},
        "dist[2][0] = 100.0 > dist[2][1] + dist[1][0] = 1.1",
    ),
}
# The load check and the request-triangle check cover every command that reads an instance.
LOADED = [("run", "--algorithm", tag) for tag in ALGORITHMS] + [("embed",)]


@pytest.mark.parametrize("name", ["server-triple", "asymmetric-rows", "request-triangle"])
@pytest.mark.parametrize("command", LOADED)
def test_instances_that_break_a_checked_triangle_or_pair_fail_with_one_line(tmp_path, capsys, name, command):
    document, message = BAD_INSTANCES[name]
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(document))
    assert run_cli(command[0], "--instance", inst_path, *command[1:]) == 1
    assert one_error_line(capsys) == f"ValueError: invalid metric: {message}"


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON token {token}")


# Each document maps a tag to the error its run is refused with, or to the mean ratio it reports.
OVERFLOWS = {
    # Two points 1.5e308 apart: the optimum's sum and every episode's total overflow.
    "huge-optimum": (
        {"points": ["a", "b"], "dist": [[0, 1.5e308], [1.5e308, 0]], "servers": [0, 0], "requests": [1, 1]},
        dict.fromkeys(ALGORITHMS, "episode 0 costs inf against an optimum of inf"),
    ),
    # Every entry is at most 1, but the optimum is the subnormal 5e-324, so a total of 1e-10
    # over it overflows; the optimal run's own ratio is 1.
    "subnormal-optimum": (
        {"points": list("abcd"), "dist": [[0, 0, 1e-10, 1], [0, 0, 5e-324, 1], [1e-10, 5e-324, 0, 1], [1, 1, 1, 0]],
         "servers": [0, 2, 3], "requests": [1, 0, 3]},
        {**dict.fromkeys(ALGORITHMS[:3], "episode 0 costs 1e-10 against an optimum of 5e-324"), "optimal": 1.0},
    ),
    # Each ratio is 1.49e308, finite, but five of them sum past the largest double.
    "mean": (
        {"points": list("abcd"), "dist": [[0, 0, 1e-10, 1], [0, 0, 6.7e-319, 1], [1e-10, 6.7e-319, 0, 1],
                                          [1, 1, 1, 0]], "servers": [0, 2, 3], "requests": [1, 0, 3]},
        {"rwgm": "mean inf, standard error inf", "rwgm-proportional": "mean inf, standard error inf",
         "greedy": 1e-10 / 6.7e-319, "optimal": 1.0},
    ),
}


@pytest.mark.parametrize("tag", ALGORITHMS)
@pytest.mark.parametrize("name", list(OVERFLOWS))
def test_runs_that_overflow_a_float_fail_with_one_line(tmp_path, capsys, name, tag):
    document, outcomes = OVERFLOWS[name]
    inst_path, trace, report = tmp_path / "inst.json", tmp_path / "trace.csv", tmp_path / "report.json"
    inst_path.write_text(json.dumps(document))
    code = run_cli("run", "--instance", inst_path, "--algorithm", tag, "--episodes", 5, "-o", trace, "--report", report)
    out, err = capsys.readouterr()
    if isinstance(outcomes[tag], str):
        assert code == 1 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == f"ValueError: {tag} run overflows: {outcomes[tag]}"
        assert not trace.exists() and not report.exists()
    else:
        assert code == 0 and err == ""
        assert json.loads(out, parse_constant=_reject_constant)["mean_ratio"] == outcomes[tag]


@pytest.mark.parametrize("name", ["huge-optimum", "mean"])
def test_a_sweep_that_overflows_fails_with_one_line(tmp_path, capsys, monkeypatch, name):
    document, outcomes = OVERFLOWS[name]
    monkeypatch.setattr(harness, "generate_instance", lambda spec: instance_from_dict(document))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--family", "line", "--sizes", 2, "--algorithms", "rwgm,greedy", "-o", out) == 1
    assert one_error_line(capsys) == f"ValueError: rwgm run overflows: {outcomes['rwgm']}"
    assert not out.exists()


def test_a_sweep_refuses_a_zero_optimum_before_it_runs_a_tag(capsys, monkeypatch, tmp_path):
    document = {"points": ["a", "b"], "dist": [[0, 1], [1, 0]], "servers": [0, 1], "requests": [1, 0]}
    monkeypatch.setattr(harness, "generate_instance", lambda spec: instance_from_dict(document))
    monkeypatch.setattr(harness, "_run_tag", lambda *args: pytest.fail("a tag ran"))
    assert run_cli("sweep", "--family", "line", "--sizes", 2, "-o", tmp_path / "sweep.csv") == 1
    assert one_error_line(capsys) == "ValueError: instance (family=line, n=2) has zero optimum"


def test_a_loaded_instance_has_at_most_max_points(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    points = [f"p{i}" for i in range(MAX_POINTS + 1)]
    inst_path.write_text(json.dumps({"points": points, "dist": [[0]], "servers": [0], "requests": [0]}))
    assert run_cli("run", "--instance", inst_path, "--algorithm", "greedy") == 1
    assert one_error_line(capsys) == "ValueError: instance has 8193 points, above MAX_POINTS = 8192"


def test_runtime_failure_emits_json_error_line(tmp_path, capsys):
    code = run_cli("run", "--instance", tmp_path / "missing.json", "--algorithm", "greedy")
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert "error" in json.loads(err)


def test_usage_errors_exit_nonzero(capsys):
    assert run_cli("generate", "--family", "moebius", "--n", 4, "-o", "x.json") == 2
    capsys.readouterr()
