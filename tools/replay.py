#!/usr/bin/env python3
"""Replay every benchmark request in process and hash the answers.

    python3 tools/replay.py --root DIR --seeds 0-6
    python3 tools/replay.py --root DIR --seeds 0-6 --diff OTHER_ROOT

For each workload of DIR/perfbench/workloads.py and each seed, the cycle's
input files are written to a temporary directory, and every request of the
cycle is sent once to `pmplab.cli.cli_dispatch`, imported from DIR/src.
Prints one line per workload: the number of requests and a sha256 over the
(rid, exit code, stdout) of every request, in order.  Under it, one line
per command of the workload, in sorted order, hashes that command's
requests alone the same way.  Two checkouts that print the same lines
answered every request with the same bytes, and the command lines show
which commands' answers differ when they do not.

With --diff OTHER_ROOT, both checkouts are replayed, each in its own
process, and one line "WORKLOAD seed SEED RID" is printed for every
request whose exit code or stdout differs between them, then a count;
the exit status is 1 when any request differs, as with diff(1).

Standard library only.  No bytecode is written, so nothing in DIR changes.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """Seeds as "A-B" (inclusive) or a comma-separated list."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def load_checkout(root: Path):
    """(workloads, cli): root/perfbench/workloads.py and pmplab.cli from
    root/src, imported without writing bytecode, or SystemExit(2) when
    either comes from anywhere else."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from pmplab import cli

    for module, home in ((workloads, root / "perfbench"), (cli, root / "src")):
        if home not in Path(module.__file__).resolve().parents:
            print(f"error: {module.__name__} was not imported from {home}", file=sys.stderr)
            raise SystemExit(2)
    return workloads, cli


def answers(workloads, cli, workload: str, seeds: list[int]):
    """(seed, request, [rid, exit code, stdout]) for every request of the
    workload's cycle on each seed, in order."""
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            requests, texts = workloads.generate(workload, seed, Path(tmp))
            workloads.write_inputs(texts)
            for req in requests:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.cli_dispatch(req.argv)
                yield seed, req, [req.rid, str(code), out.getvalue()]


def _update(digest, parts) -> None:
    """Hash each part of an answer, its length first."""
    for part in parts:
        data = part.encode()
        digest.update(len(data).to_bytes(8, "big") + data)


def replay(workloads, cli, workload: str, seeds: list[int]) -> dict:
    """{None: (count, sha256) of every request, command: (count, sha256)
    of that command's requests}."""
    digests: dict = {}
    counts: dict = {}
    for _, req, parts in answers(workloads, cli, workload, seeds):
        for key in (None, req.command):
            _update(digests.setdefault(key, hashlib.sha256()), parts)
            counts[key] = counts.get(key, 0) + 1
    return {key: (counts[key], digest.hexdigest()) for key, digest in digests.items()}


def request_lines(workloads, cli, seeds: list[int]):
    """One line "WORKLOAD seed SEED RID SHA256" per request of every
    workload, the sha256 over that request's parts alone."""
    for workload in workloads.WORKLOADS:
        for seed, req, parts in answers(workloads, cli, workload, seeds):
            digest = hashlib.sha256()
            _update(digest, parts)
            yield f"{workload} seed {seed} {req.rid} {digest.hexdigest()}"


def differing(lines1: list[str], lines2: list[str]) -> list[str]:
    """The request ids ("WORKLOAD seed SEED RID") whose digests differ
    between two lists of request lines, or that only one of them has, in
    the order of the first list, then of the second."""
    ids = {}
    for lines in (lines1, lines2):
        for line in lines:
            rid, _, digest = line.rpartition(" ")
            ids.setdefault(rid, []).append(digest)
    return [rid for rid, digests in ids.items() if len(digests) != 2 or digests[0] != digests[1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the checkout to replay (default: this one)")
    parser.add_argument("--seeds", default="0-6", help='"A-B" or "A,B,..." (default 0-6)')
    parser.add_argument("--diff", type=Path, metavar="OTHER_ROOT",
                        help="print the requests whose answers differ from OTHER_ROOT's")
    parser.add_argument("--requests", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.diff is not None:
        lines = []
        for side in (root, args.diff.resolve()):
            run = subprocess.run(
                [sys.executable, __file__, "--root", str(side), "--seeds", args.seeds,
                 "--requests"], capture_output=True, text=True,
            )
            if run.returncode:
                print(f"error: replaying {side} failed:\n{run.stderr}", file=sys.stderr)
                return 2
            lines.append(run.stdout.splitlines())
        changed = differing(*lines)
        for rid in changed:
            print(rid)
        print(f"{len(changed)} of {len(lines[0])} requests differ")
        return 1 if changed else 0
    workloads, cli = load_checkout(root)
    seeds = parse_seeds(args.seeds)
    if args.requests:
        for line in request_lines(workloads, cli, seeds):
            print(line)
        return 0
    for workload in workloads.WORKLOADS:
        hashes = replay(workloads, cli, workload, seeds)
        count, digest = hashes.pop(None)
        print(f"{workload}: {count} requests, sha256 {digest}")
        for command in sorted(hashes):
            count, digest = hashes[command]
            print(f"  {workload} {command}: {count} requests, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
