"""Smoke tests of the study scripts under tools/: each runs as a command in its own process, and the A/B tool's
CLI sequence also in this one."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from hstmatch import cli

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def run_tool(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *map(str, argv)], cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_ab_inprocess_finds_the_same_code_the_same():
    proc = run_tool(TOOLS / "ab_inprocess.py", "src", "src", "--workload", "depot-serve", "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "same reports: True, same CLI files: True;" in lines[-2]
    result = json.loads(lines[-1])
    assert result["workload"] == "depot-serve" and result["pairs"] == 2
    assert result["same_reports"] is True and result["same_cli_files"] is True
    assert result["a_src_lines"] == result["b_src_lines"] > 0
    spreads = [result[f"{side}_load_spread"] for side in "ab"]
    assert all(type(x) is float and x >= 0 for x in spreads) and type(result["load_resolved"]) is bool
    shown = f"per load (spread {spreads[0]} and {spreads[1]}" + ("" if result["load_resolved"] else ", unresolved")
    assert shown + ")," in lines[-2]
    stages = {"images", "setup", "seeds", "frt_embed", "attach_servers", "rwgm_init", "serve"}
    assert set(result["b_stage_ms"]) == set(result["stage_median_b_over_a"]) == set(result["stage_b_wins"]) == stages
    assert all(r > 0 for r in result["stage_median_b_over_a"].values())
    assert all(type(w) is int and 0 <= w <= 2 for w in result["stage_b_wins"].values())
    ratio, wins = result["stage_median_b_over_a"]["frt_embed"], result["stage_b_wins"]["frt_embed"]
    assert f"frt_embed {ratio} ({wins}/2)" in lines[-2]


def test_ab_inprocess_times_only_new_files(monkeypatch, tmp_path):
    # Every file a timed CLI sequence writes did not exist when the sequence started: a side's directory is
    # reused from pair to pair, so the tool deletes the outputs before starting its clock, not overwrites them.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench/ first on the path
    spec = importlib.util.spec_from_file_location("ab_inprocess", TOOLS / "ab_inprocess.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    for name, wl in ab.perfbench_run.workloads(smoke=True).items():
        instance = tmp_path / f"{name}.json"
        if wl.instance is not None:
            ab.perfbench_run.inputs.write(wl.instance(3), instance)
        cmds = ab.perfbench_run.commands(wl, 3, instance)
        workdir = tmp_path / name
        outputs = [workdir / out for cmd in cmds for out in cmd.outputs]
        at_start = []

        def main(argv):
            if len(at_start) < sequences:  # the sequence's first command: its clock has started
                at_start.append([path.exists() for path in outputs])
            return cli.main(argv)

        written = []
        for sequences in (1, 2, 3):
            seconds, files = ab.run_commands(main, cmds, workdir)
            assert seconds > 0 and sorted(files) == sorted(path.name for path in outputs)
            written.append(files)
        assert at_start == [[False] * len(outputs)] * 3, name
        assert written[0] == written[1] == written[2] and all(written[0].values()), name


def test_child_peak_reads_the_commands_own_peak(tmp_path):
    out = tmp_path / "star.json"
    proc = run_tool(TOOLS / "child_peak.py", "--", "generate", "--family", "star", "--n", "4", "-o", out)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["command"] == ["generate", "--family", "star", "--n", "4", "-o", str(out)]
    assert result["exit"] == 0 and result["vmhwm_mb"] > 0
    assert json.loads(out.read_text())["servers"] == [1, 2, 3, 4]
