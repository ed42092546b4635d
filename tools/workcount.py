#!/usr/bin/env python3
"""Count the Python-level work and memory of every benchmark request.

    python3 tools/workcount.py --root DIR --workload W --seeds 0,3,4
    python3 tools/workcount.py --root DIR --workload W --seeds 0,3,4 --diff OTHER_ROOT

For each seed, the workload's cycle is built and its input files written as
tools/replay.py does, and every request of the cycle is sent to
`pmplab.cli.cli_dispatch`, imported from DIR/src, three times: once as a
warm-up that fills every cache, once under sys.settrace with
f_trace_opcodes, counting the Python opcodes it runs, and once under
tracemalloc, taking its peak of traced memory above what was traced when it
started.  Prints, per seed, one line per command of the workload, in sorted
order: its requests, their opcodes summed, and the largest of their peaks
in bytes; then a total line, opcodes summed and the largest peak.

The opcode counts are exact: two runs of one checkout print the same
counts, whatever PYTHONHASHSEED is, so they show whether the Python-level
work of a workload changed, and by how much, beyond the noise of any clock.
They do not count the work done inside C calls (big-int arithmetic,
str.join, JSON decoding), so perfbench's wall-clock pairs still judge
speed.  A peak can move by a few dozen bytes from run to run, where the
program walks a set in the order of string hashes or of addresses.

With --diff OTHER_ROOT, both checkouts are counted, each in its own process,
and each line gives DIR's count, OTHER_ROOT's, and the ratio of DIR's to
OTHER_ROOT's, for the opcodes and for the peak.

Standard library only.  No bytecode is written, so nothing in DIR changes.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.dont_write_bytecode = True
from replay import load_checkout, parse_seeds  # noqa: E402


def opcodes(call, argv) -> int:
    """The Python opcodes that call(argv) runs, in every frame it opens."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(enter)
    try:
        call(argv)
    finally:
        sys.settrace(None)
    return count


def peak(call, argv) -> int:
    """The most memory, in bytes, that call(argv) holds traced at once
    above what was traced before it."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call(argv)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def counts(workloads, cli, workload: str, seed: int) -> dict:
    """{command: [requests, opcodes, peak]} over one cycle of the seed,
    after a warm-up cycle; the garbage collector is off while it counts."""
    totals: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        requests, texts = workloads.generate(workload, seed, Path(tmp))
        workloads.write_inputs(texts)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for req in requests:
                cli.cli_dispatch(req.argv)
            gc.collect()
            gc.disable()
            try:
                for req in requests:
                    row = totals.setdefault(req.command, [0, 0, 0])
                    row[0] += 1
                    row[1] += opcodes(cli.cli_dispatch, req.argv)
                for req in requests:
                    row = totals[req.command]
                    row[2] = max(row[2], peak(cli.cli_dispatch, req.argv))
            finally:
                gc.enable()
    return totals


def count_lines(root: Path, workload: str, seeds: list[int]) -> list[str]:
    """"SEED COMMAND REQUESTS OPCODES PEAK" per command of every seed, with
    the command "total" last for each seed."""
    workloads, cli = load_checkout(root)
    lines = []
    for seed in seeds:
        rows = counts(workloads, cli, workload, seed)
        total = [sum(r[0] for r in rows.values()), sum(r[1] for r in rows.values()),
                 max(r[2] for r in rows.values())]
        for command, row in [*sorted(rows.items()), ("total", total)]:
            lines.append(" ".join([str(seed), command, *map(str, row)]))
    return lines


def ratio(mine: int, other: int) -> str:
    return f"{mine / other:.4f}" if other else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the checkout to count (default: this one)")
    parser.add_argument("--workload", required=True,
                        help="audit-sweep, conj-embed or cli-queries")
    parser.add_argument("--seeds", default="0", help='"A-B" or "A,B,..." (default 0)')
    parser.add_argument("--diff", type=Path, metavar="OTHER_ROOT",
                        help="also count OTHER_ROOT and print the ratios")
    parser.add_argument("--lines", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    seeds = parse_seeds(args.seeds)
    if args.diff is None:
        lines = count_lines(root, args.workload, seeds)
        if args.lines:
            print("\n".join(lines))
            return 0
        print(f"{'seed':>4} {'command':<16} {'requests':>8} {'opcodes':>12} {'peak_B':>10}")
        for line in lines:
            seed, command, *row = line.split()
            print(f"{seed:>4} {command:<16} {row[0]:>8} {row[1]:>12} {row[2]:>10}")
        return 0
    sides = []
    for side in (root, args.diff.resolve()):
        run = subprocess.run(
            [sys.executable, __file__, "--root", str(side), "--workload", args.workload,
             "--seeds", args.seeds, "--lines"], capture_output=True, text=True,
        )
        if run.returncode:
            print(f"error: counting {side} failed:\n{run.stderr}", file=sys.stderr)
            return 2
        sides.append({tuple(line.split()[:2]): [int(x) for x in line.split()[2:]]
                      for line in run.stdout.splitlines()})
    mine, other = sides
    print(f"{'seed':>4} {'command':<16} {'opcodes':>12} {'other':>12} {'ratio':>7}"
          f" {'peak_B':>10} {'other':>10} {'ratio':>7}")
    for key in [*mine, *(key for key in other if key not in mine)]:
        (_, ops, top), (_, ops2, top2) = mine.get(key, [0, 0, 0]), other.get(key, [0, 0, 0])
        print(f"{key[0]:>4} {key[1]:<16} {ops:>12} {ops2:>12} {ratio(ops, ops2):>7}"
              f" {top:>10} {top2:>10} {ratio(top, top2):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
