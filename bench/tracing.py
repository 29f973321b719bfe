"""Per-layer tracing from outside the package.

The tracer wraps public functions of ``seb`` at run time; nothing in
``src/seb`` is edited.  Each wrapper is installed in every ``seb``
namespace that holds the original object, because ``from .compiler
import build_prioritized_cg`` copies the name into ``transforms`` and
``variables``: patching only ``seb.compiler`` would miss those callers.
``ControlGraph.outgoing`` is a method and is wrapped on the class.

Spans form a tree: every span records the span that was open when it
started, and a layer's self time is its duration minus the time of the
spans nested directly inside it.  The hottest functions (``outgoing``,
``successors``, ``one_step_safe``) run thousands to a million times per
op, so for them only the per-name totals are kept, not one record per
call; their time still counts as child time of the enclosing span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

HOT = frozenset({"control.outgoing", "configs.successors", "configs.one_step_safe"})


class Tracer:
    def __init__(self) -> None:
        self._next_id = 1  # span ids stay unique across resets
        self.reset()

    def reset(self) -> None:
        """Forget the totals and spans of the previous pass."""
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peaks: Counter[str] = Counter()
        self._stack: list[list] = []

    def observe_peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    def span(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn`` inside a span called ``name``; return its result."""
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            if name not in HOT:
                self.spans.append((span_id, parent, name, start, end))


def _graph_size(tracer: Tracer, prefix: str, graph) -> None:
    tracer.counts[prefix + "_states"] += graph.num_states
    tracer.counts[prefix + "_transitions"] += len(graph.transitions)


def _observe_compress(tracer: Tracer, args, result) -> None:
    tracer.counts["compress_in_states"] += args[0].num_states
    tracer.counts["compress_states"] += result.num_states


def _observe_successors(tracer: Tracer, args, result) -> None:
    config = args[0]
    tracer.counts["steps"] += len(result)
    tracer.observe_peak("instances", len(config.instances))
    tracer.observe_peak(
        "queue_len", max((len(items) for _, items in config.queues), default=0)
    )


def _observe_explore(tracer: Tracer, args, result) -> None:
    tracer.counts["configs"] += result.configurations
    tracer.counts["explorations"] += 1


def _observe_aut(tracer: Tracer, args, result) -> None:
    tracer.counts["aut_bytes"] += len(result.encode("utf-8"))


# (module, attribute, span name, observer of (args, result) or None)
TARGETS = (
    ("seb.compiler", "build_raw_cg", "compiler.raw",
     lambda t, a, r: _graph_size(t, "raw", r)),
    ("seb.compiler", "build_prioritized_cg", "compiler.prio",
     lambda t, a, r: _graph_size(t, "prio", r)),
    ("seb.compiler", "find_confluence_violation", "compiler.confluence", None),
    ("seb.compiler", "find_tau_cycle", "compiler.tau_cycle", None),
    ("seb.transforms", "tau_prioritize", "transforms.prioritize", None),
    ("seb.transforms", "tau_compress", "transforms.compress", _observe_compress),
    ("seb.transforms", "run_to_completion", "transforms.rtc",
     lambda t, a, r: _graph_size(t, "rtc", r)),
    ("seb.transforms", "minimize", "transforms.min",
     lambda t, a, r: _graph_size(t, "min", r)),
    ("seb.configs", "explore_safety", "configs.explore", _observe_explore),
    ("seb.configs", "successors", "configs.successors", _observe_successors),
    ("seb.configs", "one_step_safe", "configs.one_step_safe", None),
    ("seb.manifest", "load_manifest", "manifest.load", None),
    ("seb.variables", "free_vars", "variables.free_vars", None),
    ("seb.parser", "parse_activity", "parser.parse", None),
    ("seb.wellformed", "validate_well_formed", "wellformed.validate", None),
    ("seb.export", "to_aut", "export.aut", _observe_aut),
)


def _make_wrapper(tracer: Tracer, name: str, fn, observe):
    def wrapper(*args, **kwargs):
        result = tracer.span(name, fn, args, kwargs)
        if observe is not None:
            observe(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Installed:
    """Wrappers live while this context is open; originals return after."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        import seb.cli  # noqa: F401  (loads every module the CLI reaches)
        from seb.control import ControlGraph

        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if (name == "seb" or name.startswith("seb.")) and module is not None
        ]
        for module_name, attr, span_name, observe in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = _make_wrapper(self.tracer, span_name, original, observe)
            for module in namespaces:
                if module.__dict__.get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        original = ControlGraph.outgoing
        self._undo.append((ControlGraph, "outgoing", original))
        ControlGraph.outgoing = _make_wrapper(
            self.tracer, "control.outgoing", original, None
        )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass, by metric name.

    Times are inclusive seconds unless the name says ``self``.  A layer
    the pass never entered reads 0.
    """
    t, selft, calls, counts, peaks = (
        tracer.total, tracer.self_time, tracer.calls, tracer.counts, tracer.peaks,
    )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    explored_new = counts["configs"] - counts["explorations"]
    return {
        "compiler.raw_s": t["compiler.raw"],
        "compiler.raw_states": counts["raw_states"],
        "compiler.raw_transitions": counts["raw_transitions"],
        "compiler.raw_states_per_s": ratio(counts["raw_states"], t["compiler.raw"]),
        "compiler.confluence_s": t["compiler.confluence"],
        "compiler.confluence_calls": calls["compiler.confluence"],
        "compiler.tau_cycle_s": t["compiler.tau_cycle"],
        "compiler.prio_s": t["compiler.prio"],
        "compiler.prio_states": counts["prio_states"],
        "compiler.prio_transitions": counts["prio_transitions"],
        "compiler.closure_calls": calls["compiler.raw"] + calls["compiler.prio"],
        "transforms.prioritize_s": selft["transforms.prioritize"],
        "transforms.compress_s": t["transforms.compress"],
        "transforms.compress_states": counts["compress_states"],
        "transforms.rtc_s": t["transforms.rtc"],
        "transforms.rtc_states": counts["rtc_states"],
        "transforms.min_s": t["transforms.min"],
        "transforms.min_states": counts["min_states"],
        "transforms.prio_kept_ratio": ratio(
            counts["compress_states"], counts["compress_in_states"]
        ),
        "configs.explore_s": t["configs.explore"],
        "configs.explore_self_s": selft["configs.explore"],
        "configs.successors_s": t["configs.successors"],
        "configs.successors_calls": calls["configs.successors"],
        "configs.steps": counts["steps"],
        "configs.new_ratio": ratio(explored_new, counts["steps"]),
        "configs.one_step_safe_s": t["configs.one_step_safe"],
        "configs.configs": counts["configs"],
        "configs.configs_per_s": ratio(counts["configs"], t["configs.explore"]),
        "configs.peak_instances": peaks["instances"],
        "configs.peak_queue_len": peaks["queue_len"],
        "control.outgoing_calls": calls["control.outgoing"],
        "control.outgoing_s": t["control.outgoing"],
        "manifest.load_s": t["manifest.load"],
        "variables.free_vars_s": t["variables.free_vars"],
        "variables.free_vars_calls": calls["variables.free_vars"],
        "parser.parse_s": t["parser.parse"],
        "wellformed.validate_s": t["wellformed.validate"],
        "export.aut_s": t["export.aut"],
        "export.aut_bytes": counts["aut_bytes"],
    }


# Metrics that are exact counts: equal across traced passes and runs of
# one commit; anything else is a measured time or a ratio of one.
EXACT = frozenset({
    "compiler.raw_states", "compiler.raw_transitions", "compiler.confluence_calls",
    "compiler.prio_states", "compiler.prio_transitions", "compiler.closure_calls",
    "transforms.compress_states", "transforms.rtc_states", "transforms.min_states",
    "transforms.prio_kept_ratio", "configs.successors_calls", "configs.steps",
    "configs.new_ratio", "configs.configs", "configs.peak_instances",
    "configs.peak_queue_len", "control.outgoing_calls",
    "variables.free_vars_calls", "export.aut_bytes",
})
