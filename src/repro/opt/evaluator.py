"""Candidate evaluation: schedule an implementation and price it.

This is the single documented evaluation surface of the optimizer (the
``evaluate``/``evaluate_full``/``cost_of_record`` trio of earlier revisions
is kept as thin shims over it):

* :meth:`Evaluator.evaluate_record` — canonical single-candidate path:
  ``(Cost, ScheduleRecord)`` from one cold list-scheduling pass, LRU-cached
  by the implementation's canonical signature.
* :meth:`Evaluator.evaluate_many` — the search hot path: a whole
  neighbourhood of single-process moves priced against one shared
  :class:`~repro.schedule.incremental.EvalContext` via delta re-scheduling.
  A replay only appends to its state's placement log and prices from
  :meth:`~repro.schedule.state.SchedulerState.cost_view`, which re-derives
  completions only for processes with a recomputed instance; no record
  is built.  The caller seals only the candidates it actually follows
  via :meth:`realize`, which turns the pending log into the record.
* :meth:`Evaluator.evaluate_delta` — one candidate through the delta
  kernel, for callers that manage their own neighbourhood loop.
* :meth:`Evaluator.evaluate_full` / :meth:`schedule` — materialized
  :class:`~repro.schedule.table.SystemSchedule` views for validation,
  rendering and final results.  ``evaluate_full`` always runs or rebinds a
  *cold* full pass and is the golden-parity fallback for the delta kernel
  (the parity suite asserts delta records equal it byte-for-byte).

Caching: results are cached by design signature in a bounded LRU.  An entry
holds the cost and, when one was ever sealed, the compact schedule record;
delta-priced entries start record-less and are filled in on first
:meth:`realize`.  Cost parity between the two tiers is exact (see
``cost_view``), so a cache entry's cost never depends on which tier priced
it.

Counters: ``evaluations`` counts *pricings of designs not served by the
cache* — the sum of ``full_evaluations``, ``delta_evaluations`` and
``ranked_evaluations`` (bounded-error vector pricings from
:meth:`Evaluator.rank_neighbourhood`; those are never cached, since the
cache must only ever serve exact costs).  Sealing a record for an
already-priced design (``realize``, or a view request hitting a
record-less entry) is materialization, not evaluation: it is counted in
``record_rebuilds`` instead.  ``delta_copied``/``delta_recomputed``/
``delta_resumed_rank`` sum the replay work of every delta pricing
(:class:`~repro.schedule.incremental.DeltaStats`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.model.application import ProcessGraph
from repro.model.fault import FaultModel
from repro.model.ftgraph import build_ft_graph
from repro.opt.cost import WORST_COST, Cost
from repro.opt.implementation import Implementation
from repro.opt.moves import Move
from repro.schedule.incremental import EvalContext
from repro.schedule.list_scheduler import build_schedule_record
from repro.schedule.record import ScheduleRecord
from repro.schedule.state import SchedulerState
from repro.schedule.table import SystemSchedule

#: Default bound of the LRU schedule cache.  A cached entry is a compact
#: :class:`ScheduleRecord` — flat tuples, no reference cycles — so unlike
#: the object-graph caching of PR 1 (where 256 entries was the measured
#: optimum before cyclic-GC re-scan cost ate the extra hits), retention is
#: almost free and the bound is set by hit-rate saturation instead.  The
#: cache-scaling benchmark (``benchmarks/test_cache_scaling.py``, written
#: to ``BENCH_cache.json``) re-measured the 20-process MXR strategy run at
#: 64/256/1024/4096 entries: wall-clock is flat across the whole range
#: while the hit rate keeps growing (long-distance revisits across search
#: rounds), so the bound moved from 256 to 4096 — a 16x larger cache at
#: equal wall-clock.  See DESIGN.md.
DEFAULT_CACHE_SIZE = 4096

#: Bound of the base-context LRU used by :meth:`Evaluator.evaluate_many`.
#: The search advances one base per iteration, but tabu oscillation can
#: bounce between a couple of recent bases; contexts are an order of
#: magnitude heavier than records (trace + snapshots), so the bound is
#: deliberately tiny.
DEFAULT_CONTEXT_CACHE_SIZE = 4

#: Default number of top-ranked candidates :meth:`Evaluator.rank_neighbourhood`
#: re-prices exactly through the delta kernel.  Measured on the 40-process
#: micro-benchmark neighbourhood (48 moves): 8 keeps the winner inside the
#: shortlist on every seeded case while pricing the remaining ~83% of the
#: neighbourhood at vector-kernel cost.
DEFAULT_SHORTLIST = 8


class CacheInfo(NamedTuple):
    """Cache statistics à la ``functools.lru_cache``.

    ``exact``/``ranked`` split the misses by pricing fidelity: ``exact``
    counts full+delta pricings (costs the search can seal), ``ranked``
    counts bounded-error vector pricings (never cached, never sealed) —
    ``misses == exact + ranked`` always holds.  Both default to 0 so the
    tuple stays compatible with callers unpacking the original four
    fields.
    """

    hits: int
    misses: int
    size: int  # entries currently retained
    bound: int  # maximum entries (LRU capacity)
    exact: int = 0  # full + delta evaluations
    ranked: int = 0  # bounded-error vector pricings


@dataclass(slots=True)
class CandidateEval:
    """One priced neighbourhood candidate (see :meth:`Evaluator.evaluate_many`).

    The cost is final; the schedule record is deliberately *not* — sealing
    is deferred until :meth:`Evaluator.realize` is called for the (usually
    single) candidate the search follows.  ``_state`` holds the completed
    but unsealed scheduler state of a fresh delta pricing; ``_record`` is
    set when the record already exists (cache hit or full-path pricing).
    """

    move: Move
    implementation: Implementation
    cost: Cost
    _signature: tuple | None = None
    _state: SchedulerState | None = None
    _record: ScheduleRecord | None = None


@dataclass(slots=True)
class RankedCandidate:
    """One neighbourhood candidate priced by the ranking tier.

    ``estimate`` comes from the vector kernel with its error allowance;
    candidates re-priced exactly (shortlist members and cache hits) carry
    the authoritative :class:`CandidateEval` in ``exact``.  A search loop
    may *select* using :attr:`cost` over all candidates, but must only
    *seal* (realize) candidates with ``exact`` set — estimates are never
    associated with a record.
    """

    move: Move
    implementation: Implementation
    estimate: Cost
    error: float = 0.0
    degree_error: float = 0.0
    exact: CandidateEval | None = None

    @property
    def cost(self) -> Cost:
        """Exact cost when available, the bounded-error estimate otherwise."""
        return self.estimate if self.exact is None else self.exact.cost

    @property
    def optimistic_key(self) -> tuple[int, float, float]:
        """Best-case sort key: the estimate minus its error allowance.

        Ranking by optimism keeps any candidate that *could* beat the
        field inside the shortlist (branch-and-bound style); exact
        candidates rank by their true key.
        """
        if self.exact is not None:
            return self.exact.cost.sort_key
        degree = self.estimate.degree - self.degree_error
        if degree < 0.0:
            degree = 0.0
        return (
            0 if degree <= 0.0 else 1,
            degree,
            self.estimate.makespan - self.error,
        )


class Evaluator:
    """Schedules candidate implementations of one merged graph."""

    def __init__(
        self,
        merged: ProcessGraph,
        faults: FaultModel,
        cache: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        delta: bool = True,
        context_cache_size: int = DEFAULT_CONTEXT_CACHE_SIZE,
    ) -> None:
        self.merged = merged
        self.faults = faults
        self.evaluations = 0
        self.full_evaluations = 0
        self.delta_evaluations = 0
        self.ranked_evaluations = 0
        self.record_rebuilds = 0
        self.cache_hits = 0
        # Delta replay work, summed over delta pricings (``DeltaStats``).
        self.delta_copied = 0
        self.delta_recomputed = 0
        self.delta_resumed_rank = 0
        self._cache_size = cache_size
        # Entry layout: [Cost, ScheduleRecord | None] — a mutable pair so
        # realize() can fill the record into an existing entry in place.
        self._cache: (
            OrderedDict[tuple, list] | None
        ) = OrderedDict() if cache else None
        self._delta = delta
        self._context_cache_size = context_cache_size
        self._contexts: OrderedDict[tuple, EvalContext] = OrderedDict()

    # -- canonical single-candidate path ------------------------------------

    def evaluate_record(
        self, implementation: Implementation
    ) -> tuple[Cost, ScheduleRecord]:
        """Cost and compact schedule IR of ``implementation`` (one pass)."""
        cost, record, _ = self._evaluate(implementation)
        return cost, record

    def _evaluate(self, implementation: Implementation):
        """Core full-pass pipeline; also returns the FT graph when expanded.

        The third element is ``None`` on a cache hit — view-materializing
        callers rebuild it then, but a miss hands its FT graph on so the
        expansion is never done twice for one request.
        """
        cache = self._cache
        signature = None
        if cache is not None:
            signature = implementation.signature()
            entry = cache.get(signature)
            if entry is not None:
                cache.move_to_end(signature)
                self.cache_hits += 1
                if entry[1] is None:
                    # Delta-priced entry that was never sealed: the cost is
                    # final, only the record is materialized (and memoized)
                    # now.
                    entry[1] = self._rebuild_record(implementation)
                return entry[0], entry[1], None
        self.evaluations += 1
        self.full_evaluations += 1
        ft = build_ft_graph(
            self.merged,
            implementation.policies,
            implementation.mapping,
            self.faults,
        )
        record = build_schedule_record(
            self.merged, ft, self.faults, implementation.bus
        )
        cost = self.cost_of_record(record)
        if cache is not None:
            self._store(signature, [cost, record])
        return cost, record, ft

    def _rebuild_record(self, implementation: Implementation) -> ScheduleRecord:
        """Cold record for an already-priced design (not an evaluation)."""
        self.record_rebuilds += 1
        ft = build_ft_graph(
            self.merged,
            implementation.policies,
            implementation.mapping,
            self.faults,
        )
        return build_schedule_record(
            self.merged, ft, self.faults, implementation.bus
        )

    def _store(self, signature: tuple, entry: list) -> None:
        cache = self._cache
        cache[signature] = entry
        if len(cache) > self._cache_size:
            cache.popitem(last=False)

    # -- delta tier ---------------------------------------------------------

    def context_for(self, implementation: Implementation) -> EvalContext:
        """The captured base context of ``implementation`` (LRU-cached).

        Capturing runs one traced cold schedule (the sealed record is
        byte-identical to an untraced pass) plus periodic state snapshots;
        the cost amortizes over every move priced against the base.
        """
        signature = implementation.signature()
        contexts = self._contexts
        context = contexts.get(signature)
        if context is None:
            ft = build_ft_graph(
                self.merged,
                implementation.policies,
                implementation.mapping,
                self.faults,
            )
            context = EvalContext.capture(
                self.merged, ft, self.faults, implementation.bus
            )
            contexts[signature] = context
            if len(contexts) > self._context_cache_size:
                contexts.popitem(last=False)
            if self._cache is not None and signature not in self._cache:
                # The capture pass produced the base's sealed record anyway;
                # keep it (a side effect of capturing, not a priced
                # evaluation request, so no counter moves).
                self._store(
                    signature,
                    [self.cost_of_record(context.record), context.record],
                )
        else:
            contexts.move_to_end(signature)
        return context

    def evaluate_delta(
        self, base: Implementation, move: Move
    ) -> CandidateEval:
        """Price ``move`` applied to ``base`` via cone-suffix re-scheduling.

        Falls back to a full pass when the delta tier is disabled.  The
        returned candidate carries the final cost; call :meth:`realize` to
        obtain its schedule record.
        """
        return self._evaluate_move(
            self.context_for(base) if self._delta else None, base, move
        )

    def evaluate_many(
        self, base: Implementation, moves: Iterable[Move]
    ) -> list[CandidateEval]:
        """Price a whole neighbourhood of ``base`` (the search hot path).

        One :class:`EvalContext` capture of ``base`` is shared by every
        move; cache misses are *planned* as a batch
        (:meth:`EvalContext.plan_moves` shares the per-process
        ancestor-closure priority work) and each costs one delta replay
        *without* sealing.  The order of the result matches ``moves``.
        """
        moves = list(moves)
        context = self.context_for(base) if self._delta else None
        if context is None:
            return [self._evaluate_move(None, base, move) for move in moves]
        results: list[CandidateEval | None] = [None] * len(moves)
        pending: list[int] = []
        candidates: list[Implementation] = []
        signatures: list[tuple | None] = []
        cache = self._cache
        for index, move in enumerate(moves):
            candidate = move.apply(base)
            candidates.append(candidate)
            signature = None
            if cache is not None:
                signature = candidate.signature()
                entry = cache.get(signature)
                if entry is not None:
                    cache.move_to_end(signature)
                    self.cache_hits += 1
                    results[index] = CandidateEval(
                        move, candidate, entry[0], signature, None, entry[1]
                    )
                    continue
            signatures.append(signature)
            pending.append(index)
        if pending:
            plans = context.plan_moves(
                [
                    (
                        candidates[index].policies,
                        candidates[index].mapping,
                        moves[index].process,
                    )
                    for index in pending
                ]
            )
            for index, plan, signature in zip(pending, plans, signatures):
                results[index] = self._priced_delta(
                    context, moves[index], candidates[index], plan, signature
                )
        return results

    def _evaluate_move(
        self,
        context: EvalContext | None,
        base: Implementation,
        move: Move,
    ) -> CandidateEval:
        candidate = move.apply(base)
        cache = self._cache
        signature = None
        if cache is not None:
            signature = candidate.signature()
            entry = cache.get(signature)
            if entry is not None:
                cache.move_to_end(signature)
                self.cache_hits += 1
                return CandidateEval(
                    move, candidate, entry[0], signature, None, entry[1]
                )
        if context is None:
            cost, record, _ = self._evaluate(candidate)
            return CandidateEval(
                move, candidate, cost, signature, None, record
            )
        return self._priced_delta(context, move, candidate, None, signature)

    def _priced_delta(
        self,
        context: EvalContext,
        move: Move,
        candidate: Implementation,
        plan,
        signature: tuple | None,
    ) -> CandidateEval:
        """Delta-price one (cache-missed) candidate; counters and store.

        ``signature`` is the candidate's cache key (``None`` without a
        cache).
        """
        state, stats = context.delta_schedule(
            candidate.policies, candidate.mapping, move.process, plan=plan
        )
        self.delta_copied += stats.copied
        self.delta_recomputed += stats.recomputed
        self.delta_resumed_rank += stats.resumed_rank
        degree, makespan = state.cost_view()
        cost = Cost(
            schedulable=degree == 0.0, degree=degree, makespan=makespan
        )
        self.evaluations += 1
        self.delta_evaluations += 1
        if signature is not None:
            self._store(signature, [cost, None])
        return CandidateEval(move, candidate, cost, signature, state, None)

    def rank_neighbourhood(
        self,
        base: Implementation,
        moves: Iterable[Move],
        shortlist: int = DEFAULT_SHORTLIST,
    ) -> list[RankedCandidate]:
        """Rank a neighbourhood with the vector kernel, re-price the top-K.

        Every cache-missed candidate is priced by the bounded-error vector
        kernel (:class:`~repro.schedule.vector.NeighbourhoodPricer`); the
        ``shortlist`` best by :attr:`RankedCandidate.optimistic_key` are
        then re-priced *exactly* through the delta kernel, so the
        candidate a search selects (and later :meth:`realize`\\ s) carries
        a cost — and eventually a record — byte-identical to a cold pass.
        Estimates are never cached and never sealed.  With the delta tier
        disabled every candidate is priced exactly (degenerates to
        :meth:`evaluate_many`).  Result order matches ``moves``.
        """
        moves = list(moves)
        if not self._delta:
            return [
                RankedCandidate(
                    candidate.move,
                    candidate.implementation,
                    candidate.cost,
                    exact=candidate,
                )
                for candidate in self.evaluate_many(base, moves)
            ]
        context = self.context_for(base)
        results: list[RankedCandidate | None] = [None] * len(moves)
        pending: list[int] = []
        cache = self._cache
        for index, move in enumerate(moves):
            candidate = move.apply(base)
            if cache is not None:
                signature = candidate.signature()
                entry = cache.get(signature)
                if entry is not None:
                    cache.move_to_end(signature)
                    self.cache_hits += 1
                    exact = CandidateEval(
                        move, candidate, entry[0], signature, None, entry[1]
                    )
                    results[index] = RankedCandidate(
                        move, candidate, entry[0], exact=exact
                    )
                    continue
            results[index] = RankedCandidate(move, candidate, WORST_COST)
            pending.append(index)
        if pending:
            prices = context.pricer().price(
                [
                    (
                        moves[index].process,
                        moves[index].nodes,
                        moves[index].policy,
                    )
                    for index in pending
                ]
            )
            for index, price in zip(pending, prices):
                ranked = results[index]
                ranked.estimate = Cost(
                    schedulable=price.degree == 0.0,
                    degree=price.degree,
                    makespan=price.makespan,
                )
                ranked.error = price.error
                ranked.degree_error = price.degree_error
            # Exact re-pricing of the shortlist, most promising first.
            # Sorting by (key, index) keeps the order deterministic across
            # equal estimates.
            order = sorted(
                pending, key=lambda index: (results[index].optimistic_key, index)
            )
            for index in order[:shortlist]:
                ranked = results[index]
                ranked.exact = self._evaluate_move(context, base, ranked.move)
            for _index in order[shortlist:]:
                self.evaluations += 1
                self.ranked_evaluations += 1
        return results

    def realize(self, candidate: CandidateEval) -> ScheduleRecord:
        """Seal (or fetch) the schedule record behind a priced candidate.

        For a fresh delta pricing this seals the pending scheduler state —
        byte-identical to a cold pass by the delta kernel's parity
        contract; for a cache hit it returns the cached record, cold-
        rebuilding it once if the entry was priced record-less.
        """
        record = candidate._record
        if record is None:
            state = candidate._state
            if state is not None:
                record = state.seal()
                candidate._state = None
            else:
                record = self._rebuild_record(candidate.implementation)
            candidate._record = record
            cache = self._cache
            if cache is not None and candidate._signature is not None:
                entry = cache.get(candidate._signature)
                if entry is not None:
                    entry[1] = record
                else:
                    self._store(
                        candidate._signature, [candidate.cost, record]
                    )
        return record

    # -- materialized views (golden-parity fallback tier) -------------------

    def evaluate_full(
        self, implementation: Implementation
    ) -> tuple[Cost, SystemSchedule]:
        """Cost and materialized schedule view of ``implementation``.

        Always a *cold* full pass (or the cached record of one): this is
        the golden-parity fallback the delta tier is checked against.  On a
        cache hit the record is rebound to a freshly expanded FT graph — a
        few percent of a scheduling pass — so only callers that actually
        render, simulate or hand the schedule on pay for views.
        """
        cost, record, ft = self._evaluate(implementation)
        if ft is None:
            return cost, self.materialize(implementation, record)
        return cost, SystemSchedule.from_record(
            record, self.merged, ft, self.faults, implementation.bus
        )

    def materialize(
        self, implementation: Implementation, record: ScheduleRecord
    ) -> SystemSchedule:
        """Bind ``record`` to its model context as a lazy view."""
        ft = build_ft_graph(
            self.merged,
            implementation.policies,
            implementation.mapping,
            self.faults,
        )
        return SystemSchedule.from_record(
            record, self.merged, ft, self.faults, implementation.bus
        )

    def schedule(self, implementation: Implementation) -> SystemSchedule:
        """Full schedule view for ``implementation`` (record LRU-cached)."""
        return self.evaluate_full(implementation)[1]

    # -- thin shims over the canonical surface ------------------------------

    def cost_of_record(self, record: ScheduleRecord) -> Cost:
        degree = record.degree_of_schedulability()
        return Cost(
            schedulable=degree == 0.0,
            degree=degree,
            makespan=record.makespan,
        )

    def cost_of(self, schedule: SystemSchedule) -> Cost:
        return self.cost_of_record(schedule.record)

    def evaluate(self, implementation: Implementation) -> Cost:
        """Cost of ``implementation`` (cached by design signature)."""
        return self.evaluate_record(implementation)[0]

    # -- statistics ----------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        """Hits, misses, current size and bound of the evaluation cache.

        ``misses`` (== ``evaluations``) splits into ``exact`` (full +
        delta pricings) and ``ranked`` (bounded-error vector pricings), so
        ``evaluations = full + delta + ranked`` stays auditable.
        """
        return CacheInfo(
            hits=self.cache_hits,
            misses=self.evaluations,
            size=0 if self._cache is None else len(self._cache),
            bound=0 if self._cache is None else self._cache_size,
            exact=self.full_evaluations + self.delta_evaluations,
            ranked=self.ranked_evaluations,
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of evaluation requests served from the cache."""
        total = self.evaluations + self.cache_hits
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def publish_metrics(self, registry=None) -> None:
        """Publish counter deltas since the last publish into the registry.

        Deltas (not absolutes) so several evaluators in one process — one
        per root-schedule alternative under ``optimize`` — accumulate
        rather than overwrite.  Gauges describe *this* evaluator's cache.
        The ``evaluator.delta.*`` counters sum the replay work of every
        delta pricing: instances copied from the base, instances
        recomputed, and placement ranks skipped by resuming from a
        snapshot.
        """
        if registry is None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
        published = getattr(self, "_published", None)
        current = {
            "evaluator.cache_hits": self.cache_hits,
            "evaluator.exact_evaluations": (
                self.full_evaluations + self.delta_evaluations
            ),
            "evaluator.full_evaluations": self.full_evaluations,
            "evaluator.delta_evaluations": self.delta_evaluations,
            "evaluator.ranked_evaluations": self.ranked_evaluations,
            "evaluator.record_rebuilds": self.record_rebuilds,
            "evaluator.delta.copied": self.delta_copied,
            "evaluator.delta.recomputed": self.delta_recomputed,
            "evaluator.delta.resumed_rank": self.delta_resumed_rank,
        }
        for name, value in current.items():
            previous = published.get(name, 0) if published else 0
            if value > previous:
                registry.inc(name, value - previous)
        self._published = current
        info = self.cache_info()
        registry.set("evaluator.cache.size", info.size)
        registry.set("evaluator.cache.bound", info.bound)
        registry.set("evaluator.cache.hit_rate", self.cache_hit_rate)
