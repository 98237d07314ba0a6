import json
import subprocess
import sys
from pathlib import Path

import pytest

import hstmatch
from hstmatch.cli import main
from hstmatch.generators import GeneratorSpec, generate_instance
from hstmatch.metric import load_instance


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


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = Path(hstmatch.__file__).resolve().parents[1]
    code = "import sys, hstmatch.cli; sys.exit('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_runtime_failure_emits_json_error_line(tmp_path, capsys):
    code = run_cli("run", "--instance", tmp_path / "missing.json", "--algorithm", "greedy")
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert "error" in json.loads(err)


def test_usage_errors_exit_nonzero(capsys):
    assert run_cli("generate", "--family", "moebius", "--n", 4, "-o", "x.json") == 2
    capsys.readouterr()
