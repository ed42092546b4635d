"""The benchmark's own output checks, run on every request of each
workload's default seed: each answer must pass perfbench/checks.py against
the reference recorded in perfbench/reference/, as it must in a benchmark
run.  The checks rebuild conjugacy certificates with the library
(refine_action_to_unit, Isomorphism.of, ConjugacyCertificate,
verify_conjugacy), so this also holds those calls to the shape the
benchmark uses.  Nothing under perfbench/ is written."""
from __future__ import annotations

import contextlib
import io
import json
from types import SimpleNamespace

from pmplab import action, cli, constructions, jsonio

from test_replay import ROOT, load


def test_every_default_seed_answer_passes_the_benchmark_checks(monkeypatch, tmp_path):
    workloads = load(monkeypatch, "workloads", ROOT / "perfbench" / "workloads.py")
    checks = load(monkeypatch, "checks", ROOT / "perfbench" / "checks.py")
    lib = SimpleNamespace(jsonio=jsonio, action=action, constructions=constructions)
    for workload in workloads.WORKLOADS:
        path = ROOT / "perfbench" / "reference" / f"{workload}.json"
        reference = json.loads(path.read_text(encoding="utf-8"))["requests"]
        requests, texts = workloads.generate(workload, 0, tmp_path / workload)
        workloads.write_inputs(texts)
        assert {req.rid for req in requests} == set(reference)
        for req in requests:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.cli_dispatch(req.argv)
            assert code == 0, (req.rid, out.getvalue()[:200])
            checks.check_output(req, out.getvalue(), reference[req.rid], lib)
