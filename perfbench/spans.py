"""In-memory spans around the public calls of each layer, and their self times.

The traced pass patches every layer function listed in :data:`PATCHES` with
a wrapper that records one span per call: its name, start, end and the span
that was open when it started.  The program's own code is untouched; each
name is patched where its caller looks it up, because ``from x import f``
binds ``f`` by value in the importing module.

A span's *self time* is its duration minus the durations of its children.
The program is single-threaded here, so children never overlap and the part
of a span's interval they cover is simply the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

#: (module, attribute path, span name).  A dotted attribute path names a
#: method: ``Class.method``.  Each row is patched on the object the caller
#: resolves the name through at call time.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("repro.gen.suite", "generate_case", "gen.generate_case"),
    ("repro.opt.strategy", "greedy_mpa", "opt.greedy"),
    ("repro.opt.strategy", "tabu_search_mpa", "opt.tabu"),
    ("repro.opt.greedy", "generate_moves", "opt.moves"),
    ("repro.opt.tabu", "generate_moves", "opt.moves"),
    ("repro.opt.evaluator", "Evaluator.evaluate_many",
     "opt.evaluator.evaluate_many"),
    ("repro.opt.evaluator", "Evaluator.context_for",
     "opt.evaluator.context_for"),
    ("repro.opt.evaluator", "Evaluator.realize", "opt.evaluator.realize"),
    ("repro.opt.evaluator", "build_ft_graph", "model.build_ft_graph"),
    ("repro.opt.evaluator", "build_schedule_record", "schedule.build_record"),
    ("repro.schedule.list_scheduler", "build_ft_graph",
     "model.build_ft_graph"),
    ("repro.schedule.list_scheduler", "build_schedule_record",
     "schedule.build_record"),
    ("repro.schedule.incremental", "ft_graph_with_move",
     "model.ft_graph_with_move"),
    ("repro.schedule.incremental", "EvalContext.capture", "schedule.capture"),
    ("repro.schedule.incremental", "EvalContext.plan_moves",
     "schedule.plan_moves"),
    ("repro.schedule.incremental", "EvalContext.delta_schedule",
     "schedule.delta_schedule"),
    ("repro.schedule.state", "SchedulerState.cost_view", "schedule.cost_view"),
    ("repro.schedule.state", "SchedulerState.seal", "schedule.seal"),
    ("repro.inject.target", "build_ft_graph", "model.build_ft_graph"),
    ("repro.inject.target", "InjectTarget.build_context",
     "inject.build_context"),
    ("repro.inject.runner", "importance_scenarios", "inject.importance"),
    ("repro.inject.driver", "run_shard", "inject.shard"),
    ("repro.inject.space", "ScenarioSpace.of", "inject.space_of"),
    ("repro.inject.space", "ScenarioSpace.counts_range",
     "inject.counts_range"),
    ("repro.inject.space", "ScenarioSpace.sample_counts",
     "inject.sample_counts"),
    ("repro.inject.space", "ScenarioSpace.counts_matrix",
     "inject.counts_matrix"),
    ("repro.inject.aggregate", "InjectAggregate.fold", "inject.fold"),
    ("repro.sim.batch", "BatchSimulator.__init__", "sim.compile"),
    ("repro.sim.batch", "BatchSimulator.run_batch", "sim.run_batch"),
    ("repro.sim.validate", "BatchChecker.check", "sim.check"),
    ("repro.sim.validate", "validate_record", "sim.validate_record"),
)


@dataclass
class SpanLog:
    """Spans in call order: ``names[i]`` ran from ``starts[i]`` to
    ``ends[i]`` inside span ``parents[i]`` (-1 for a top-level span).
    ``tags[i]`` is an optional label, such as a shard's tier."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    tags: list[str | None] = field(default_factory=list)
    _open: list[int] = field(default_factory=lambda: [-1])

    def open(self, name: str, tag: str | None = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.tags.append(tag)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        index = self.open(name, tag)
        try:
            yield
        finally:
            self.close(index)

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        durations = self.durations()
        own = list(durations)
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                own[parent] -= duration
        return own

    def roots(self) -> list[str]:
        """The name of each span's top-level ancestor (itself if top-level).

        A parent is always opened before its children, so one forward pass
        resolves every ancestor.
        """
        roots: list[str] = []
        for name, parent in zip(self.names, self.parents):
            roots.append(name if parent < 0 else roots[parent])
        return roots

    def _rows(self, within: tuple[str, ...] | None):
        rows = zip(
            self.names, self.tags, self.durations(), self.self_times(),
            self.roots(),
        )
        return [row for row in rows if within is None or row[4] in within]

    def totals(
        self, within: tuple[str, ...] | None = None
    ) -> dict[str, "SpanTotal"]:
        """Per-name call count, self seconds and inclusive durations of the
        spans under the top-level spans named in ``within`` (all if None)."""
        out: dict[str, SpanTotal] = {}
        for name, _tag, duration, own, _root in self._rows(within):
            total = out.setdefault(name, SpanTotal())
            total.calls += 1
            total.self_s += own
            total.durations.append(duration)
        return out

    def tagged_self_s(
        self, name: str, within: tuple[str, ...] | None = None
    ) -> dict[str | None, float]:
        """Self seconds of the spans called ``name``, summed per tag."""
        out: dict[str | None, float] = {}
        for span_name, tag, _duration, own, _root in self._rows(within):
            if span_name == name:
                out[tag] = out.get(tag, 0.0) + own
        return out


@dataclass
class SpanTotal:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


def _wrap(log: SpanLog, name: str, fn, counts: dict[str, float]):
    """``fn`` inside a span; also tallies the work units the layer did."""
    unit = _WORK_UNITS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # ``run_shard(target, spec, ...)``: a shard span carries its tier.
        tag = args[1].tier if name == "inject.shard" else None
        index = log.open(name, tag)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(index)
        if unit is not None:
            counts[name] = counts.get(name, 0) + unit(result)
        return result

    return traced


#: Work done per call, read off the call's result: moves generated,
#: scenario rows materialized, batch columns replayed.
_WORK_UNITS = {
    "opt.moves": len,
    "inject.counts_range": lambda matrix: matrix.shape[1],
    "inject.sample_counts": lambda matrix: matrix.shape[1],
    "sim.run_batch": lambda result: result.columns,
}


class Patched:
    """Context manager: every :data:`PATCHES` row wrapped, then restored.

    ``log`` receives the spans and ``counts`` the per-layer work units.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        for module_name, path, span_name in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            # Read the raw attribute so classmethods keep their descriptor.
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    _wrap(self.log, span_name, original.__func__, self.counts)
                )
            else:
                wrapped = _wrap(self.log, span_name, original, self.counts)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
