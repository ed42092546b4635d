#!/usr/bin/env python3
"""pmplab benchmark: seeded CLI workloads sent in-process to cli_dispatch.

    python3 perfbench/run.py --workload audit-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; pmplab is imported from ./src and
nowhere else, so the command fails (exit 2, no result) without it.

One client in one process sends each request of the workload's cycle to
`pmplab.cli.cli_dispatch`, captures stdout and waits for the answer before
sending the next (closed loop, no threads).  `--seconds` sets how much work a
run does: the cycle is repeated seconds / NOMINAL_CYCLE_S[workload] times
(rounded, at least once), the time one cycle took when the benchmark was
defined, so every run with one setting sends the same requests and reports
percentiles over the same number of samples.  Every output is checked after
the timed region (see checks.py).

Every time reported is in seconds at a fixed reference speed of the
machine (speed.py): a short fixed probe runs before each request, and each
request's time is scaled by how fast the probes around it ran.  Set-ups and
cold starts run in fresh processes (child.py) that probe their own speed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
half as many cycles untraced, each followed by the same cycle with every
public function of every pmplab layer wrapped (tracer.py), and reports the
per-layer metrics of layers.json per traced request, plus the tracing
overhead.

The last line of stdout is the result object; the line before it is a
report with every metric, the tail percentile used, the failure fraction
and an environment record.  Reports and trace spans are also written to
.perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402

# Nominal seconds per cycle: a run sends round(seconds / nominal) cycles.
# Fixed, so that the number of cycles depends on --seconds only; with
# --seconds 15 they give 2, 4 and 8 cycles.
NOMINAL_CYCLE_S = {"audit-sweep": 6.0, "conj-embed": 3.5, "cli-queries": 1.8}
# A run stops after the cycle that takes it past this many times --seconds,
# so a slow machine cannot stretch it without bound.
OVERRUN = 2.5
SETUP_REPEATS = 11
COLD_START_REPEATS = 15
DEADLINE_S = 30.0
CHILD_TIMEOUT_S = 30.0
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10
ENV_NOTE = ("Measured only inside the benchmark's own processes; no CPU "
            "governor, pinning, huge-page or cache setting was touched.")
END_TO_END = (("throughput_rps", "1/s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("cold_start_s", "s"))


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a request; a BaseException so that no
    handler in the program can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


# ---------------------------------------------------------------------------
# environment


def _calibrate() -> float:
    """Best of three timings of a fixed pure-Python Fraction loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 20000):
            total += Fraction(1, i % 97 + 1)
        best = min(best, time.perf_counter() - t0)
    return best


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _environment_probe() -> dict:
    return {"loadavg": list(os.getloadavg()), "calibration_s": _calibrate()}


# ---------------------------------------------------------------------------
# set-up


def _import_pmplab():
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "pmplab" or n.startswith("pmplab.")]:
        del sys.modules[name]
    cli = importlib.import_module("pmplab.cli")
    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"pmplab was imported from {origin}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, toy: bool, input_dir: Path):
    """One set-up: import pmplab afresh and generate the inputs.  Returns
    (cli module, requests, input files to write, seconds taken)."""
    t0 = time.perf_counter()
    cli = _import_pmplab()
    requests, texts = workloads.generate(workload, seed, input_dir)
    if toy:
        requests = [r for r in requests if r.toy]
    return cli, requests, texts, time.perf_counter() - t0


def _child_env() -> dict:
    """Environment of the benchmark's subprocesses: pmplab from ./src, and
    bytecode cached under .perfbench/pycache whatever the caller's setting,
    so that every measured child imports pmplab the way an installed copy
    is imported, from its cached bytecode."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _child(*argv: str) -> tuple[dict, float]:
    """Run child.py to its end; returns its report and its wall time.  A
    child that outlives CHILD_TIMEOUT_S is killed and waited for, and the
    run fails."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT,
                          env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {argv} failed: {proc.stderr.decode()}")
    return json.loads(proc.stdout.decode().splitlines()[-1]), wall


def setup_in_child(workload: str, seed: int, toy: bool) -> float:
    """One set-up in a fresh process, at the reference speed.  A fresh
    process, because a re-import late in a long run pays for the heap the
    run has built up."""
    report, _wall = _child("setup", "--workload", workload, "--seed", str(seed),
                           *(["--toy"] if toy else []))
    return report["work_s"] * report["factor"]


def cold_start() -> float:
    """Wall time of one `python -m pmplab dist ...` in a fresh process, less
    the time of the process's own speed probes, at the reference speed."""
    report, wall = _child("cold")
    return (wall - report["probe_s"]) * report["factor"]


# ---------------------------------------------------------------------------
# measured phase


class Run:
    """Requests sent and their outcomes, in order."""

    def __init__(self, cli, requests, speed: Speed):
        self.cli = cli
        self.requests = requests
        self.speed = speed
        self.interval: list[tuple[float, float]] = []
        self.failed: list[bool] = []
        self.index: list[int] = []
        self.errors: dict[str, str] = {}
        self.first: dict[int, str] = {}

    def send(self, i: int, tracer: Tracer | None = None) -> None:
        req = self.requests[i]
        buf = io.StringIO()
        if tracer is not None:
            tracer.request = len(self.interval)
        failed = False
        self.speed.probe()
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.cli_dispatch(req.argv)
        except DeadlineExceeded:
            failed, code = True, None
            self.errors.setdefault(req.rid, f"deadline of {DEADLINE_S} s exceeded")
        except Exception as exc:  # a crash is a failed request, not a failed run
            failed, code = True, None
            self.errors.setdefault(req.rid, f"raised {type(exc).__name__}: {exc}")
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        text = buf.getvalue()
        if code not in (0, None):
            failed = True
            self.errors.setdefault(req.rid, f"exit code {code}: {text[:200]}")
        elif not failed:
            if i not in self.first:
                self.first[i] = text
            elif self.first[i] != text:
                failed = True
                self.errors.setdefault(req.rid, "repeat returned different bytes")
        self.interval.append((t0, t1))
        self.failed.append(failed)
        self.index.append(i)

    def cycles(self, count: int, limit_s: float,
               tracer: Tracer | None = None) -> tuple[float, float, int]:
        """Send the whole cycle `count` times, or fewer once `limit_s` has
        passed; returns (wall seconds, cpu seconds, cycles sent)."""
        w0, c0 = time.perf_counter(), time.process_time()
        done = 0
        while done < count and (done == 0 or time.perf_counter() - w0 < limit_s):
            for i in range(len(self.requests)):
                self.send(i, tracer)
            done += 1
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.speed.probe()  # closes the window of the last request
        return wall, cpu, done

    def latency(self, sent: range | list | None = None) -> list[float]:
        """Request times at the reference speed, in the order sent."""
        sent = range(len(self.interval)) if sent is None else sent
        return [self.speed.scaled(*self.interval[j]) for j in sent]


def check_outputs(run: Run, reference: dict | None) -> None:
    """Check every first output; a failed check fails all its repeats."""
    lib = types.SimpleNamespace(**{m: sys.modules[f"pmplab.{m}"]
                                   for m in ("jsonio", "action", "constructions")})
    bad = set()
    for i, text in sorted(run.first.items()):
        req = run.requests[i]
        ref = None if reference is None else reference.get(req.rid)
        if reference is not None and ref is None:
            bad.add(i)
            run.errors.setdefault(req.rid, "no reference entry for this request")
            continue
        try:
            checks.check_output(req, text, ref, lib)
        except (checks.CheckFailed, LookupError, ValueError, TypeError,
                ArithmeticError) as exc:
            bad.add(i)
            run.errors.setdefault(req.rid, f"check failed: {exc}")
    run.failed = [f or i in bad for f, i in zip(run.failed, run.index)]


# ---------------------------------------------------------------------------
# metrics


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile in
    TAIL_PERCENTILES with at least TAIL_BEYOND samples beyond it, nearest
    rank; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, -(-int(p * 10) * n // 1000))  # ceil(p/100 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100.0, 0


def end_to_end(run: Run, wall: float, setup_times: list, cold: list) -> tuple[dict, dict]:
    """End-to-end metrics, every time at the reference speed (speed.py).
    Throughput is completed requests over the summed request times; `wall`,
    the raw duration of the measured phase, goes into the report only."""
    latency = run.latency()
    # a run in which every request failed still reports finite numbers
    ok = [t for t, f in zip(latency, run.failed) if not f] or latency
    tail_value, percentile, beyond = tail(ok)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "throughput_rps": (len(ok) / sum(latency), "1/s"),
        "latency_p50_s": (statistics.median(ok), "s"),
        "latency_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "cold_start_s": (statistics.median(cold), "s"),
    }
    raw = [t1 - t0 for t0, t1 in run.interval]
    extra = {
        "failed_frac": {"value": sum(run.failed) / len(run.failed), "unit": "frac"},
        "latency_tail": {"percentile": percentile, "samples": len(ok),
                         "samples_beyond": beyond},
        "setup_runs_s": setup_times,
        "cold_start_runs_s": cold,
        "unscaled": {"wall_s": wall, "throughput_rps": len(ok) / wall,
                     "latency_p50_s": statistics.median(raw),
                     "probe_median_s": statistics.median(run.speed.took)},
        "latency_runs_s": [[run.requests[i].rid, t]
                           for i, t, f in zip(run.index, latency, run.failed) if not f],
        "latency_raw_s": [[run.requests[i].rid, t1 - t0]
                          for i, (t0, t1), f in zip(run.index, run.interval, run.failed) if not f],
        "probes": [run.speed.at, run.speed.took],
    }
    return values, extra


def per_layer(run: Run, tracer: Tracer, traced: list, plain: list) -> dict:
    """Per-layer metrics from the traced cycles of a --trace 1 run, per
    traced request.  `plain` is the (wall, cpu) seconds of the same number
    of untraced cycles; the tracing overhead compares request times at the
    reference speed."""
    totals = tracer.totals()
    requests = len(traced)
    untraced = sorted(set(range(len(run.interval))) - set(traced))
    outputs = {run.index[j]: run.first.get(run.index[j]) for j in traced}
    found = [json.loads(t)["found"] for i, t in outputs.items()
             if t and run.requests[i].command in ("audit-c2", "audit-ec")]
    conj = [json.loads(t)["eps"] == "0/1" for i, t in outputs.items()
            if t and run.requests[i].command == "conjsearch"]
    derived = {
        "audit.found_frac": sum(found) / len(found) if found else 0.0,
        "constructions.conj_exact_frac": sum(conj) / len(conj) if conj else 0.0,
        "jsonio.bytes_out": sum(len(run.first[run.index[j]].encode("utf-8"))
                                for j in traced if not run.failed[j]) / requests,
        "process.wait_frac": 1 - plain[1] / plain[0],
        "trace.overhead_frac": sum(run.latency(traced)) / sum(run.latency(untraced)) - 1,
    }
    out = {}
    for m in json.loads((HERE / "layers.json").read_text())["metrics"]:
        if m["name"] in derived:
            value = derived[m["name"]]
        else:
            picked = [v for name, v in totals.items()
                      if any(name == f or (f.endswith(".*") and name.startswith(f[:-1]))
                             for f in m["functions"])]
            column = 0 if m["stat"] == "calls" else 1
            value = sum(v[column] for v in picked) / requests
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


# ---------------------------------------------------------------------------
# main


def _reference(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="run the few toy-size requests of the cycle once (smoke test)")
    parser.add_argument("--record-reference", action="store_true",
                        help="record the reference outputs of the default seed and exit")
    args = parser.parse_args(argv)

    if not (SRC / "pmplab" / "__init__.py").is_file():
        print(f"error: no pmplab sources under {SRC}; run from a pmplab checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    env = {"python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "git_revision": _git_revision(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "toy": args.toy, "note": ENV_NOTE,
           "excluded": list(workloads.EXCLUDED),
           "before": _environment_probe()}
    input_dir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, requests, texts, first_setup = setup(args.workload, args.seed, args.toy,
                                                  input_dir)
        workloads.write_inputs(texts)
        if args.record_reference:
            return _record_reference(args, cli, requests)
        cycles = 1 if args.toy else max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
        limit = OVERRUN * args.seconds
        speed = Speed(args.workload)
        run = Run(cli, requests, speed)
        if args.trace:
            # Untraced and traced cycles alternate, so that both sample the
            # same phases of the machine's speed.
            tracer = Tracer()
            plain, traced_wall, traced = [0.0, 0.0], 0.0, set()
            for _ in range(max(1, cycles // 2)):
                wall, cpu, _done = run.cycles(1, limit)
                plain[0] += wall
                plain[1] += cpu
                start = len(run.interval)
                tracer.install()
                try:
                    traced_wall += run.cycles(1, limit, tracer)[0]
                finally:
                    tracer.uninstall()
                traced.update(range(start, len(run.interval)))
                if plain[0] + traced_wall >= limit:
                    break
        else:
            setup_in_child(args.workload, args.seed, args.toy)  # fills the bytecode cache
            setup_times = [setup_in_child(args.workload, args.seed, args.toy)
                           for _ in range(SETUP_REPEATS)]
            cold = [cold_start() for _ in range(COLD_START_REPEATS)]
            wall, _cpu, done = run.cycles(cycles, limit)
            values, extra = end_to_end(run, wall, setup_times, cold)
            extra["cycles"] = done
            extra["in_process_setup_s"] = first_setup
        ref_path = _reference(args.workload)
        reference = None
        if args.seed == 0 and ref_path.is_file():
            reference = json.loads(ref_path.read_text())["requests"]
        check_outputs(run, reference)
    finally:
        for path in sorted(input_dir.glob("*")):
            path.unlink()
        if input_dir.is_dir():
            input_dir.rmdir()

    env["after"] = _environment_probe()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "environment": env,
              "requests_per_cycle": len(requests),
              "attempted": len(run.failed), "failed": sum(run.failed),
              "errors": run.errors, "reference_checked": reference is not None}
    if args.trace:
        metrics = per_layer(run, tracer, sorted(traced), plain)
        report["spans"] = tracer.write_spans(OUT / f"{stem}-spans.bin")
        report["traced_requests"] = len(traced)
    else:
        metrics = {name: {"value": values[name][0], "unit": values[name][1]}
                   for name, _unit in END_TO_END}
        report.update(extra)
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    shown = {k: v for k, v in report.items()
             if k not in ("latency_runs_s", "latency_raw_s", "probes")}
    print(json.dumps({"report": shown}, sort_keys=True))
    result = {"correct": not any(run.failed), "attempted": len(run.failed),
              "failed": sum(run.failed), "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def _record_reference(args, cli, requests) -> int:
    if args.seed != 0 or args.toy:
        print("error: the reference is recorded for the default seed at full size",
              file=sys.stderr)
        return 2
    run = Run(cli, requests, Speed(args.workload))
    run.cycles(1, float("inf"))
    if any(run.failed):
        print(f"error: requests failed: {run.errors}", file=sys.stderr)
        return 1
    check_outputs(run, None)
    if any(run.failed):
        print(f"error: checks failed: {run.errors}", file=sys.stderr)
        return 1
    entries = {requests[i].rid: checks.reference_entry(requests[i].command, text)
               for i, text in run.first.items()}
    path = _reference(args.workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": args.workload, "seed": 0,
                                "git_revision": _git_revision(),
                                "requests": entries}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} reference outputs in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
