#!/usr/bin/env python3
"""Peak resident memory of one hstmatch CLI command, as its own process reads it.

    python3 tools/child_peak.py [--src SRC] -- run --instance depots.json --algorithm rwgm --episodes 1000 -o t.csv

Starts a fresh Python child that runs ``hstmatch.cli.main`` on the arguments
after ``--`` with ``SRC`` (default: this checkout's ``src/``) first on its
path. When the command returns, the child reads its own ``VmHWM``, the
high-water mark of its resident set, from ``/proc/self/status``. That is the
command's own peak: a parent's ``ru_maxrss`` for a fork+exec child keeps the
parent's size before the exec, so it cannot show a child smaller than the
process that started it. Prints one JSON line with the command, its exit
code and the peak in MB (2**20 bytes). Linux only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
from hstmatch.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "vmhwm_kb": kb}))
"""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds the hstmatch package")
    p.add_argument("command", nargs=argparse.REMAINDER, help="-- followed by the hstmatch arguments")
    args = p.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        p.error("give the hstmatch arguments after --")
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    child = subprocess.run([sys.executable, "-c", CHILD, *command], env=env, capture_output=True, text=True)
    sys.stderr.write(child.stderr)  # the command's own error line, if it failed
    if child.returncode != 0 or not child.stdout.strip():
        return child.returncode or 1
    peak = json.loads(child.stdout.strip().splitlines()[-1])
    print(json.dumps({"command": command, "exit": peak["exit"], "vmhwm_mb": round(peak["vmhwm_kb"] / 1024, 1)}))
    return peak["exit"]


if __name__ == "__main__":
    sys.exit(main())
