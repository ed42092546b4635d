"""One set-up or one cold start, timed inside a fresh process.

    python3 perfbench/child.py setup --workload <name> --seed <n> [--toy]
    python3 perfbench/child.py cold

run.py starts this with pmplab's directory on PYTHONPATH.  Before and after
the timed work the process probes its own speed (speed.py, the
"fresh-process" probe), because it may run on another core than run.py.
The last line of stdout is a JSON object: `work_s`, the seconds the work
took; `probe_s`, the seconds all probes took; `factor`, the speed factor of
the work's interval.

`setup` imports pmplab and generates the workload's inputs, as run.py does
before its first request; the benchmark's own modules are imported before
the clock starts.  `cold` runs `python -m pmplab` on a trivial `dist`
request through runpy; the modules loaded before it are only `sys`, `time`,
`bisect` and the benchmark's `speed`, so pmplab's own imports all count.
"""
import sys
import time

from speed import Speed

COLD_ARGV = ["dist", '{"atoms":["1/2","1/4","1/4"]}', "[[0],[1]]", "[[1],[0,2]]"]
# Probes before the work (the first ones warm the process up) and after it.
PROBES_BEFORE = 10
PROBES_AFTER = 5


def _setup(argv):
    import argparse
    from pathlib import Path

    import run

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    return lambda: run.setup(args.workload, args.seed, args.toy, run.OUT / "unwritten")


def _cold(argv):
    import runpy

    def work():
        sys.argv = ["pmplab", *COLD_ARGV]
        try:
            runpy.run_module("pmplab", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise
    return work


def main() -> int:
    work = {"setup": _setup, "cold": _cold}[sys.argv[1]](sys.argv[2:])
    speed = Speed("fresh-process")
    for _ in range(PROBES_BEFORE):
        speed.probe()
    t0 = time.perf_counter()
    work()
    t1 = time.perf_counter()
    for _ in range(PROBES_AFTER):
        speed.probe()
    sys.stdout.write("\n{\"work_s\": %r, \"probe_s\": %r, \"factor\": %r}\n"
                     % (t1 - t0, sum(speed.took), speed.factor(t0, t1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
