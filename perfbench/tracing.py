"""Spans around the package's layer entry points, recorded from outside.

The tracer replaces each entry point where its caller looks it up (a module
global or a class attribute) with a wrapper that records a span, and puts
every original back on exit.  A span is (name, start, end, parent); spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from mixedflow import analysis, flow, geometry, harmonics

# (owner, attribute, span name).  `flow` imports build_grid, bundle_from_coeffs
# and eval_speed by name; geometry.curvature_bundle, which flow and analysis
# call, reaches the bundle through geometry's own global, so wrapping those
# two lookups counts every curvature bundle exactly once.  diagnostics imports
# fit_sphere and mixed_volume from analysis at call time.
ENTRY_POINTS = (
    (flow, "build_grid", "harmonics.build_grid"),
    (harmonics.Grid, "synthesize_derivs", "harmonics.synthesize_derivs"),
    (harmonics.Grid, "analyze", "harmonics.analyze"),
    (harmonics.Grid, "synthesize", "harmonics.synthesize"),
    (flow, "bundle_from_coeffs", "geometry.bundle"),
    (geometry, "bundle_from_coeffs", "geometry.bundle"),
    (flow, "eval_speed", "speeds.eval_speed"),
    (flow.FlowProblem, "velocity_values", "flow.velocity_values"),
    (flow.FlowProblem, "step", "flow.step"),
    (flow.FlowProblem, "diagnostics", "flow.diagnostics"),
    (analysis, "fit_sphere", "analysis.fit_sphere"),
    (analysis, "mixed_volume", "analysis.mixed_volume"),
)

NAME, START, END, PARENT, RAISED = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in ENTRY_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[RAISED] = raised
        self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                self._close(idx, raised)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around one of the benchmark's own calls into a layer."""
        idx = self._open(name)
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close(idx, raised)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "raised": raised}) + "\n")

    def summary(self, root: str) -> dict:
        """Per-name calls, self time and total time inside the first `root` span.

        Also counts, per name, the spans that have a `flow.step` or
        `flow.diagnostics` ancestor, and how many spans raised.
        """
        spans = self.spans
        root_idx = next(i for i, s in enumerate(spans) if s[NAME] == root)
        child_time = defaultdict(float)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        # span index -> (has a flow.step ancestor, has a flow.diagnostics ancestor)
        inside: dict[int, tuple[bool, bool]] = {root_idx: (False, False)}
        out = {"calls": defaultdict(int), "self_s": defaultdict(float),
               "total_s": defaultdict(float), "raised": defaultdict(int),
               "in_step": defaultdict(int), "in_diagnostics": defaultdict(int)}
        for i in range(root_idx + 1, len(spans)):
            s = spans[i]
            if s[PARENT] not in inside:
                continue
            in_step, in_diag = inside[s[PARENT]]
            parent_name = spans[s[PARENT]][NAME]
            in_step = in_step or parent_name == "flow.step"
            in_diag = in_diag or parent_name == "flow.diagnostics"
            inside[i] = (in_step, in_diag)
            name = s[NAME]
            dur = s[END] - s[START]
            out["calls"][name] += 1
            out["total_s"][name] += dur
            out["self_s"][name] += dur - child_time[i]
            out["raised"][name] += s[RAISED]
            out["in_step"][name] += in_step
            out["in_diagnostics"][name] += in_diag
        r = spans[root_idx]
        out["root_s"] = r[END] - r[START]
        out["root_self_s"] = out["root_s"] - child_time[root_idx]
        return {k: dict(v) if isinstance(v, defaultdict) else v for k, v in out.items()}

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]
