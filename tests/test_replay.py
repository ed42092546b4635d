"""tools/replay.py, which hashes the answers to every benchmark request so
that two checkouts can be compared byte for byte: one cycle replayed twice
gives the same hashes, and every request is counted under its command."""
from __future__ import annotations

import importlib.util
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
