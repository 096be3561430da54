"""In-memory spans around the calls into each gradfuzz layer.

A span is a name, a start, an end and the index of the span that was
open when it started (its parent, -1 at the top).  ``Tracer.patched``
wraps layer entry points for the length of a ``with`` block and puts the
originals back on exit, so the package itself is never modified and an
untraced run pays nothing.  Spans are written out once, at the end.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import gradfuzz.executors as executors_module
from gradfuzz.exec_tree import ExecTree
from gradfuzz.generators import AnalysisSession, SensitivitySession
from gradfuzz.strategy import Strategy

# (owner, attribute, span name).  SensitivitySession overrides feed and
# calls the base version, which shows up as one span, not two.  The
# executors module holds its own references to execute and to the wire
# codec, so those are wrapped where the executors call them.
LAYER_ENTRY_POINTS = [
    (ExecTree, "map_trace", "exec_tree.map_trace"),
    (Strategy, "select_analysis", "strategy.select_analysis"),
    (Strategy, "prune_targets", "strategy.prune_targets"),
    (AnalysisSession, "next_input", "generators.next_input"),
    (AnalysisSession, "feed", "generators.feed"),
    (SensitivitySession, "feed", "generators.feed"),
    (executors_module, "execute", "minivm.execute"),
    (executors_module, "wire_encode", "target_abi.wire_encode"),
    (executors_module, "wire_decode", "target_abi.wire_decode"),
]


SAMPLE_EVERY = 10


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, parent, start, end]
        self._open: list[int] = []
        # filled by TracedExecutor
        self.calls = 0
        self.records = 0
        self.samples: list[tuple] = []   # (config, result)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # re-entry, e.g. super().feed
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name in LAYER_ENTRY_POINTS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading the spans ---------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def self_times(self, name: str,
                   children_prefix: str = "") -> list[float]:
        """Duration of each ``name`` span minus the time covered by its
        direct children whose names start with ``children_prefix``."""
        covered = [0.0] * len(self.spans)
        for child, parent, start, end in self.spans:
            if parent >= 0 and child.startswith(children_prefix):
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (n, _, start, end) in enumerate(self.spans)
                if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, parent, start, end in self.spans:
                out.write(json.dumps({"name": name, "parent": parent,
                                      "start": start, "end": end}) + "\n")


class TracedExecutor:
    """The engine's ``executor=`` callable with a span per call.  It counts
    calls and trace records on the tracer and keeps every
    ``SAMPLE_EVERY``-th (config, result) pair for the wire-codec probe."""

    def __init__(self, tracer: Tracer, inner):
        self.tracer = tracer
        self.inner = inner
        self._call = tracer.wrap("executors.call", inner)

    def __call__(self, config):
        result = self._call(config)
        tracer = self.tracer
        tracer.calls += 1
        tracer.records += len(result.trace)
        if tracer.calls % SAMPLE_EVERY == 0:
            tracer.samples.append((config, result))
        return result

    def scaled(self, **scale) -> "TracedExecutor":
        return TracedExecutor(self.tracer, self.inner.scaled(**scale))

    def close(self) -> None:
        self.inner.close()
