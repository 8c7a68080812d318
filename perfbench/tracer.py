"""Outside-in span recorder for the traced benchmark run.

The traced run rebinds module attributes of attacksim to wrappers that
record a span around each call, then restores them. Only the binding a
caller reads at call time is replaced (``attacksim.harness.step`` is the
name ``run_monte_carlo``'s episode loop calls), so the program's code is
untouched and the RNG order is unchanged. A stage whose module or
attribute no longer exists is reported as absent instead of failing the
run, so a later refactor that folds or renames a stage still runs.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute read at the call site, span name). Spans are named by
# the layer that defines the stage, whatever module the binding lives in.
RUN_STAGES = (
    ("attacksim.harness", "DecisionContext", "engine.DecisionContext"),
    ("attacksim.harness", "sample_profile", "profiles.sample_profile"),
    ("attacksim.engine", "initial_knowledge", "model.initial_knowledge"),
    ("attacksim.model", "validate_system", "model.validate_system"),
    ("attacksim.harness", "step", "engine.step"),
    ("attacksim.engine", "select_target", "engine.select_target"),
    ("attacksim.engine", "filter_valid", "engine.filter_valid"),
    ("attacksim.engine", "viable_edges", "engine.viable_edges"),
    ("attacksim._kernels", "profile_distances", "kernels.profile_distances"),
    ("attacksim._kernels", "scores_from_distances", "kernels.scores_from_distances"),
    ("attacksim._kernels", "probabilities_from_scores",
     "kernels.probabilities_from_scores"),
    ("attacksim._kernels", "weighted_index", "kernels.weighted_index"),
    ("attacksim.engine", "reveal_on_compromise", "model.reveal_on_compromise"),
    ("attacksim.harness", "aggregate", "harness.aggregate"),
)

# With a process pool the episodes run in the workers, which the recorder
# cannot see; only the parent's own stages are wrapped.
PARENT_STAGES = tuple(s for s in RUN_STAGES if s[2] == "harness.aggregate")

# Spans the benchmark opens itself around the calls it makes.
DIRECT_SPANS = (
    "harness.run_monte_carlo",
    "profiles.load_profiles",
    "model.load_system",
    "actions.load_action_db",
    "harness.export_report",
    "harness.save_trace",
    "harness.export_trace_dot",
)

SPAN_NAMES = DIRECT_SPANS + tuple(s[2] for s in RUN_STAGES)

# Work counters taken from a stage's arguments or result.
COUNTERS = {
    "engine.filter_valid": lambda args, result: len(result),
    "kernels.profile_distances": lambda args, result: len(args[2]),
}


class Tracer:
    """Holds the spans of one traced batch in memory.

    Each span is ``[name, start, end, parent]``, where ``parent`` is the
    index of the enclosing span or -1. Spans nest strictly because the
    traced code runs in one thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, counts = self.spans, self._open, self.counts
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                try:
                    counts[name] = counts.get(name, 0) + count(args, result)
                except (IndexError, TypeError):
                    pass  # signature changed; the counter stays absent
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def patched(self, stages):
        """Rebind every stage that exists to a traced wrapper."""
        saved = []
        try:
            for module_name, attr, name in stages:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.add(name)
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.add(name)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start),
                         own + (end - start) - child[i])
        return out

    def write(self, path: Path):
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "absent": sorted(self.absent),
            "spans": self.spans,
        }), encoding="utf-8")


def nesting_problems(spans: list[list]) -> list[str]:
    """Spans that end before they start, or whose children are not
    inside them or together outlast them."""
    problems = []
    child = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) lies outside its parent")
            child[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        if child[i] > end - start:
            problems.append(f"span {i} ({name}): children outlast it")
    return problems
