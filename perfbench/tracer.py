"""Per-layer tracing from outside the program.

Every public function of each pmplab layer module is replaced, at every
module attribute through which callers look it up, by a wrapper that keeps
a call stack.  On return the wrapper adds the call's duration minus the time
its traced children took to the function's self time, counts the call, and
records a span (name, start, end, parent span, request id).  Spans stay in
memory and are written, as binary arrays, once the run ends.  Nothing inside
the program is changed; `install` puts the wrappers in place and `uninstall`
puts every original function back, as often as needed.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "pmplab"
# One layer per module of src/pmplab.
LAYERS = ("cli", "jsonio", "algebra", "action", "modeltheory", "simplex",
          "constructions", "audit")

# Spans beyond this many are counted but not stored (28 bytes each).
SPAN_CAP = 2_000_000


class Tracer:
    def __init__(self):
        """Build a wrapper for every public function of every layer; the
        pmplab modules must be imported already."""
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.request = -1
        self.dropped = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap(len(self.names), fn)
                self.names.append(f"{layer}.{attr}")
                self.calls.append(0)
                self.self_s.append(0.0)
                for m in modules:
                    for name, value in vars(m).items():
                        if value is fn:
                            self._patches.append((m, name, fn, wrapper))

    def install(self) -> None:
        for module, name, _fn, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn, _wrapper in reversed(self._patches):
            setattr(module, name, fn)

    def _wrap(self, idx: int, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            if sid < SPAN_CAP:
                names.append(idx)
                parents.append(stack[-1][0] if stack else -1)
                requests.append(tracer.request)
                starts.append(0.0)
                ends.append(0.0)
            else:
                tracer.dropped += 1
                sid = -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[idx] += duration - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += duration
                if sid >= 0:
                    starts[sid] = start
                    ends[sid] = end

        return traced

    def totals(self) -> dict:
        """Calls and self seconds per traced function name."""
        return {name: (self.calls[i], self.self_s[i])
                for i, name in enumerate(self.names)}

    def write_spans(self, path: Path) -> dict:
        """Write the stored spans to `path` as five arrays in native byte
        order, one after the other; returns the layout, for the run report."""
        columns = (("name", self.span_name), ("parent", self.span_parent),
                   ("request", self.span_request), ("start_s", self.span_start),
                   ("end_s", self.span_end))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for _, column in columns:
                column.tofile(fh)
        return {"file": path.name, "byteorder": sys.byteorder,
                "spans": len(self.span_start),
                "dropped": self.dropped, "names": self.names,
                "columns": [[name, column.typecode, column.itemsize]
                            for name, column in columns]}
