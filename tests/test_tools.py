"""Smoke tests of the study scripts under tools/: each runs as a command in its own process."""
import json
import subprocess
import sys
from pathlib import Path

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
    stages = {"images", "setup", "seeds", "frt_embed", "attach_servers", "rwgm_init", "serve"}
    assert set(result["b_stage_ms"]) == set(result["stage_median_b_over_a"]) == set(result["stage_b_wins"]) == stages
    assert all(r > 0 for r in result["stage_median_b_over_a"].values())
    assert all(type(w) is int and 0 <= w <= 2 for w in result["stage_b_wins"].values())
    ratio, wins = result["stage_median_b_over_a"]["frt_embed"], result["stage_b_wins"]["frt_embed"]
    assert f"frt_embed {ratio} ({wins}/2)" in lines[-2]


def test_child_peak_reads_the_commands_own_peak(tmp_path):
    out = tmp_path / "star.json"
    proc = run_tool(TOOLS / "child_peak.py", "--", "generate", "--family", "star", "--n", "4", "-o", out)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["command"] == ["generate", "--family", "star", "--n", "4", "-o", str(out)]
    assert result["exit"] == 0 and result["vmhwm_mb"] > 0
    assert json.loads(out.read_text())["servers"] == [1, 2, 3, 4]
