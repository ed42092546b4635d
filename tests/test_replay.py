"""tools/replay.py, which hashes the answers to every benchmark request so
that two checkouts can be compared byte for byte: one cycle replayed twice
gives the same hashes, every request is counted under its command, and
--diff names the requests whose answers differ."""
from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from pmplab import cli

ROOT = Path(__file__).resolve().parents[1]


def load(monkeypatch, name: str, path: Path):
    """The module at path, imported for this test alone and without writing
    bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_replay_of_a_cycle_is_repeatable_and_counts_every_request(monkeypatch):
    replay = load(monkeypatch, "replay", ROOT / "tools" / "replay.py")
    workloads = load(monkeypatch, "workloads", ROOT / "perfbench" / "workloads.py")
    first = replay.replay(workloads, cli, "conj-embed", [0])
    assert replay.replay(workloads, cli, "conj-embed", [0]) == first
    with tempfile.TemporaryDirectory() as tmp:
        requests, _ = workloads.generate("conj-embed", 0, Path(tmp))
    count, digest = first.pop(None)
    assert len(digest) == 64
    assert count == len(requests) == sum(n for n, _ in first.values())
    assert set(first) == {req.command for req in requests}


def test_diff_names_the_requests_whose_answers_differ(monkeypatch, tmp_path):
    """A copy of this checkout whose one-generator grouping may take no step
    leaves conj-embed's k = 1 searches to the beam, and --diff names exactly
    those five requests of seed 0; an id that one side lacks differs too."""
    replay = load(monkeypatch, "replay", ROOT / "tools" / "replay.py")
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part, ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "src" / "pmplab" / "limits.py", "a", encoding="utf-8") as limits:
        limits.write("MAX_GROUPING_STEPS = 0\n")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay.py"), "--root", str(ROOT),
         "--seeds", "0", "--diff", str(other)],
        capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    assert run.returncode == 1, run.stderr
    assert lines[:-1] == [f"conj-embed seed 0 {rid}" for rid in ("m00", "m01", "m02", "r03", "r05")]
    assert lines[-1].startswith("5 of ") and lines[-1].endswith(" requests differ")
    assert replay.differing(["w seed 0 a 1", "w seed 0 b 2"], ["w seed 0 a 1", "w seed 0 c 3"]) == [
        "w seed 0 b", "w seed 0 c"]
    assert replay.differing(["w seed 0 a 1"], ["w seed 0 a 2"]) == ["w seed 0 a"]
