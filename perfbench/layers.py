"""Per-layer metrics of one traced pass.

Times are self times of the spans the traced pass records around each
layer's public calls (:mod:`spans`); counts come from the spans, from the
work tallied off their results, and from the program's always-on registry.
Spans under the ``setup`` and ``bench`` top-level spans count as layer
work; the correctness checks run under ``check`` and only feed
``sim.validate_record.s``.  A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics

from spans import SpanLog

TIERS = ("exhaustive", "stratified", "importance")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def _percentile_ms(durations: list[float], q: int) -> float:
    """The ``q``-th percentile of ``durations`` in ms (0 without data)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100)[q - 1]


def layer_metrics(
    log: SpanLog,
    work: dict[str, float],
    registry: dict[str, float],
    quality: dict[str, float],
    setup_phases: dict[str, float],
    useful_ratio: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name.

    ``work`` holds the work units tallied per span name, ``registry`` the
    program's counters after the timed work, ``quality`` the workload's
    deterministic result figures and ``setup_phases`` the seconds of each
    injection set-up phase.
    """
    totals = log.totals(within=("setup", "bench"))
    checks = log.totals(within=("check",))

    def self_s(name: str) -> float:
        total = totals.get(name)
        return total.self_s if total else 0.0

    def calls(name: str) -> int:
        total = totals.get(name)
        return total.calls if total else 0

    def durations(name: str) -> list[float]:
        total = totals.get(name)
        return total.durations if total else []

    counter = registry.get
    bench = totals["bench"]
    shard_self = log.tagged_self_s("inject.shard", within=("bench",))
    hits = counter("evaluator.cache_hits", 0.0)
    priced = hits + counter("evaluator.exact_evaluations", 0.0) + counter(
        "evaluator.ranked_evaluations", 0.0
    )
    metrics = {
        "opt.search.self_s": self_s("opt.greedy") + self_s("opt.tabu"),
        "opt.greedy.iterations": counter("search.greedy.iterations", 0.0),
        "opt.tabu.iterations": counter("search.tabu.iterations", 0.0),
        "opt.tabu.improving_ratio": _ratio(
            counter("search.tabu.improvements", 0.0),
            counter("search.tabu.iterations", 0.0),
        ),
        "opt.greedy.accept_ratio": _ratio(
            counter("search.greedy.accepted", 0.0),
            counter("search.greedy.iterations", 0.0),
        ),
        "opt.moves.generated": work.get("opt.moves", 0),
        "opt.moves.s": self_s("opt.moves"),
        "opt.evaluator.evaluate_many.calls": calls(
            "opt.evaluator.evaluate_many"
        ),
        "opt.evaluator.evaluate_many.s": self_s("opt.evaluator.evaluate_many"),
        "opt.evaluator.evaluate_many.p50_ms": _percentile_ms(
            durations("opt.evaluator.evaluate_many"), 50
        ),
        "opt.evaluator.evaluate_many.p90_ms": _percentile_ms(
            durations("opt.evaluator.evaluate_many"), 90
        ),
        "opt.evaluator.hit_ratio": _ratio(hits, priced),
        "opt.evaluator.delta_evaluations": counter(
            "evaluator.delta_evaluations", 0.0
        ),
        "opt.evaluator.full_evaluations": counter(
            "evaluator.full_evaluations", 0.0
        ),
        "opt.evaluator.record_rebuilds": counter(
            "evaluator.record_rebuilds", 0.0
        ),
        "opt.evaluator.context_for.s": self_s("opt.evaluator.context_for"),
        "opt.evaluator.realize.s": self_s("opt.evaluator.realize"),
        "opt.mxr_makespan_ms": quality.get("makespan_ms", 0.0),
        "opt.ft_overhead_pct": quality.get("ft_overhead_pct", 0.0),
        "schedule.delta_schedule.s": self_s("schedule.delta_schedule"),
        "schedule.delta_schedule.calls": calls("schedule.delta_schedule"),
        "schedule.delta_schedule.us_per_call": _ratio(
            self_s("schedule.delta_schedule"),
            calls("schedule.delta_schedule"),
            1e6,
        ),
        "schedule.plan_moves.s": self_s("schedule.plan_moves"),
        "schedule.capture.s": self_s("schedule.capture"),
        "schedule.cost_view.s": self_s("schedule.cost_view"),
        "schedule.seal.s": self_s("schedule.seal"),
        "schedule.build_record.s": self_s("schedule.build_record"),
        "schedule.build_record.calls": calls("schedule.build_record"),
        "model.ft_graph_with_move.s": self_s("model.ft_graph_with_move"),
        "model.ft_graph_with_move.calls": calls("model.ft_graph_with_move"),
        "model.build_ft_graph.s": self_s("model.build_ft_graph"),
        "sim.run_batch.s": self_s("sim.run_batch"),
        "sim.run_batch.columns": work.get("sim.run_batch", 0),
        "sim.run_batch.ns_per_column": _ratio(
            self_s("sim.run_batch"), work.get("sim.run_batch", 0), 1e9
        ),
        "sim.check.s": self_s("sim.check"),
        "sim.validate_record.s": (
            checks["sim.validate_record"].self_s
            if "sim.validate_record" in checks else 0.0
        ),
        "inject.counts_range.s": self_s("inject.counts_range"),
        "inject.counts_range.rows": work.get("inject.counts_range", 0),
        "inject.sample_counts.s": self_s("inject.sample_counts"),
        "inject.sample_counts.rows": work.get("inject.sample_counts", 0),
        "inject.shard.p50_ms": _percentile_ms(durations("inject.shard"), 50),
        "inject.useful_ratio": useful_ratio,
        "inject.residual_bound": quality.get("residual_bound", 0.0),
        "gen.generate_case.s": self_s("gen.generate_case"),
        "bench.unattributed_pct": _ratio(
            bench.self_s, bench.durations[0], 100.0
        ),
    }
    for tier in TIERS:
        metrics[f"inject.shard.s.{tier}"] = shard_self.get(tier, 0.0)
    for phase in ("materialize", "simulate", "classify", "fold"):
        metrics[f"inject.phase.{phase}_s"] = counter(
            f"inject.phase.{phase}_s", 0.0
        )
    for phase in ("context", "space", "importance", "plan"):
        metrics[f"inject.setup.{phase}_s"] = setup_phases.get(phase, 0.0)
    return metrics
