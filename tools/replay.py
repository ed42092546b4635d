#!/usr/bin/env python3
"""Replay every benchmark request in process and hash the answers.

    python3 tools/replay.py --root DIR --seeds 0-6

For each workload of DIR/perfbench/workloads.py and each seed, the cycle's
input files are written to a temporary directory, and every request of the
cycle is sent once to `pmplab.cli.cli_dispatch`, imported from DIR/src.
Prints one line per workload: the number of requests and a sha256 over the
(rid, exit code, stdout) of every request, in order.  Two checkouts that
print the same lines answered every request with the same bytes.

Standard library only.  No bytecode is written, so nothing in DIR changes.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """Seeds as "A-B" (inclusive) or a comma-separated list."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def replay(workloads, cli, workload: str, seeds: list[int]) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            requests, texts = workloads.generate(workload, seed, Path(tmp))
            workloads.write_inputs(texts)
            for req in requests:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.cli_dispatch(req.argv)
                for part in (req.rid, str(code), out.getvalue()):
                    data = part.encode()
                    digest.update(len(data).to_bytes(8, "big") + data)
                count += 1
    return count, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the checkout to replay (default: this one)")
    parser.add_argument("--seeds", default="0-6", help='"A-B" or "A,B,..." (default 0-6)')
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from pmplab import cli

    for module, home in ((workloads, root / "perfbench"), (cli, root / "src")):
        if home not in Path(module.__file__).resolve().parents:
            print(f"error: {module.__name__} was not imported from {home}", file=sys.stderr)
            return 2
    seeds = parse_seeds(args.seeds)
    for workload in workloads.WORKLOADS:
        count, digest = replay(workloads, cli, workload, seeds)
        print(f"{workload}: {count} requests, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
