"""tools/workcount.py, which counts the Python opcodes and the traced
memory peak of every benchmark request: its opcode counts repeat exactly,
whatever PYTHONHASHSEED is, and --diff shows a loop added to the program
in every command's count."""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "workcount.py"


def run_tool(*args: str, hashseed: str = "0") -> list[list[str]]:
    """The fields of each line the tool prints, run in a fresh process."""
    run = subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": hashseed},
    )
    assert run.returncode == 0, run.stderr
    return [line.split() for line in run.stdout.splitlines()]


def test_opcode_counts_repeat_under_any_hash_seed():
    args = ("--root", str(ROOT), "--workload", "conj-embed", "--seeds", "0")
    runs = [run_tool(*args, hashseed=seed) for seed in ("0", "0", "1", "12345")]
    header, *rows = runs[0]
    assert header == ["seed", "command", "requests", "opcodes", "peak_B"]
    assert rows[-1][:2] == ["0", "total"]
    assert int(rows[-1][2]) == sum(int(row[2]) for row in rows[:-1])
    assert int(rows[-1][3]) == sum(int(row[3]) for row in rows[:-1]) > 0
    assert all(int(row[4]) > 0 for row in rows)
    for other in runs[1:]:
        assert [row[:4] for row in other] == [row[:4] for row in runs[0]]


def test_diff_shows_a_loop_added_to_every_request(tmp_path):
    """A copy of this checkout whose cli_dispatch first runs a small loop
    runs the same number of extra opcodes on every request, so each
    command's count grows by its requests times one constant."""
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part, ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "src" / "pmplab" / "cli.py", "a", encoding="utf-8") as cli:
        cli.write(
            "\n_dispatch = cli_dispatch\n\n\n"
            "def cli_dispatch(argv):\n"
            "    for _ in range(10):\n"
            "        pass\n"
            "    return _dispatch(argv)\n"
        )
    args = ("--workload", "conj-embed", "--seeds", "0")
    counts = {row[1]: int(row[2]) for row in run_tool("--root", str(ROOT), *args)[1:]}
    header, *rows = run_tool("--root", str(other), *args, "--diff", str(ROOT))
    assert header[:5] == ["seed", "command", "opcodes", "other", "ratio"]
    assert [row[1] for row in rows] == list(counts)
    extra = set()
    for _seed, command, mine, theirs, ratio, *_peaks in rows:
        assert int(theirs) > 0 and float(ratio) > 1
        extra.add((int(mine) - int(theirs)) / counts[command])
    assert len(extra) == 1 and extra.pop() > 0
