"""The benchmark's fixed-work workloads: inputs from a seed, work, checks.

Each workload is three steps:

* ``setup(seed, size)`` builds the inputs (timed as ``setup_s``);
* ``run(inputs)`` is the fixed work (timed as ``wall_s``).  Every search
  runs with ``time_limit_s=None`` and fixed iteration caps, so no search
  can stop on the wall clock and a faster kernel shortens the run;
* ``check(inputs, outcome)`` re-verifies every output, outside the timed
  window.

The seed changes the generated cases and the sweep seed and nothing else.
``size`` is ``"full"`` for the benchmark and ``"tiny"`` for the tests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps import cruise_control
from repro.experiments.cruise import cruise_config
from repro.gen import suite
from repro.inject import driver as inject_driver
from repro.inject import importance, plan as inject_plan, runner, space
from repro.inject.target import InjectTarget
from repro.model.ftgraph import build_ft_graph
from repro.model.merge import merge_application
from repro.opt import strategy
from repro.opt.evaluator import Evaluator
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.schedule import list_scheduler
from repro.sim import validate

#: Fault-injection samples per search winner, as the queue workers use.
VALIDATE_SAMPLES = 20


@dataclass
class Outcome:
    """What one pass of a workload did and whether it was right.

    ``work`` is the number of candidates priced (searches) or distinct
    scenarios simulated (sweeps).  ``quality`` holds the deterministic
    result figures, ``counts`` the deterministic work counts; both must
    repeat exactly across passes of one seed.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    work: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    counts: dict[str, Any] = field(default_factory=dict)
    results: list[Any] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str], Any]
    run: Callable[[Any], Outcome]
    check: Callable[[Any, Outcome], None]


# -- searches -----------------------------------------------------------------


@dataclass
class SearchInputs:
    application: Any
    architecture: Any
    faults: Any
    variants: tuple[str, ...]
    config: strategy.OptimizationConfig


def setup_cruise(seed: int, size: str) -> SearchInputs:
    """The cruise controller is a fixed case: ``seed`` changes nothing."""
    application, architecture, faults = cruise_control.cruise_control_case()
    # The search inputs a designer prepares: the merged graph and the
    # initial bus access and MPA.  ``optimize`` derives them again inside
    # the timed work; here they time the set-up path.
    merged = merge_application(application)
    bus = initial_bus_access(application, architecture)
    initial_mpa(merged, architecture, faults, bus)
    config = cruise_config()
    if size == "tiny":
        config = dataclasses.replace(
            config, rounds=1, greedy_max_iterations=2, tabu_max_iterations=2
        )
    return SearchInputs(
        application, architecture, faults, ("NFT", "MXR", "MR"), config
    )


def run_search(inputs: SearchInputs) -> Outcome:
    if inputs.config.time_limit_s is not None:
        raise ValueError("benchmark searches must not stop on the wall clock")
    outcome = Outcome()
    makespans: dict[str, float] = {}
    for variant in inputs.variants:
        outcome.attempted += 1
        try:
            result = strategy.optimize(
                inputs.application, inputs.architecture, inputs.faults,
                variant, inputs.config,
            )
        except Exception as error:  # a failed search is counted, not fatal
            outcome.failures.append(f"{variant}: raised {error!r}")
            outcome.results.append(None)
            continue
        outcome.results.append(result)
        outcome.work += result.evaluations + result.cache_hits
        makespans[variant] = result.makespan
        outcome.counts[variant] = {
            "makespan": result.makespan,
            "evaluations": result.evaluations,
            "cache_hits": result.cache_hits,
            "iterations": dict(result.iterations),
        }
    if "MXR" in makespans:
        outcome.quality["makespan_ms"] = makespans["MXR"]
        if "NFT" in makespans:
            nft = makespans["NFT"]
            outcome.quality["ft_overhead_pct"] = (
                100.0 * (makespans["MXR"] - nft) / nft
            )
    return outcome


def check_search(inputs: SearchInputs, outcome: Outcome) -> None:
    """Cold re-pricing and fault injection of every search winner."""
    for label, result in zip(inputs.variants, outcome.results):
        if result is None:
            continue
        implementation = result.implementation
        cold, _ = Evaluator(
            result.merged, result.faults, cache=False
        ).evaluate_record(implementation)
        if cold != result.cost:
            outcome.failures.append(
                f"{label}: cold re-pricing {cold} != search cost {result.cost}"
            )
            continue
        ft = build_ft_graph(
            result.merged, implementation.policies, implementation.mapping,
            result.faults,
        )
        report = validate.validate_record(
            result.record, result.merged, ft, result.faults,
            implementation.bus, samples=VALIDATE_SAMPLES,
        )
        # A winner the analysis already prices as unschedulable may miss
        # its deadline under faults; anything else is a failed injection.
        unexpected = [
            message
            for message in report.violations
            if result.is_schedulable or "missed its deadline" not in message
        ]
        if unexpected:
            outcome.failures.append(
                f"{label}: {len(unexpected)} injection violations, "
                f"first: {unexpected[0]}"
            )


# -- injection sweeps ---------------------------------------------------------


@dataclass
class Sweep:
    target: InjectTarget
    plan: Any


@dataclass
class SweepInputs:
    sweeps: list[Sweep]
    #: Seconds of each set-up phase (``inject.setup.<phase>_s``), summed
    #: over the sweeps.
    phases: dict[str, float]


#: (targets, processes, nodes, k, scenario budget per target) per size.
#: The exhaustive budget covers the whole C(45, 5) = 1,221,759-scenario
#: space plus the importance wave.  The sampled workload draws 50,000
#: scenarios from each of three C(65, 5) = 8,259,888-scenario spaces: three
#: consecutive generator seeds cover the generator's three graph structures,
#: whose replay costs differ, so passes with different seeds do comparable
#: work.
SWEEP_SIZES = {
    "inject-exhaustive": {
        "full": (1, 40, 3, 5, 1_250_000), "tiny": (1, 6, 2, 2, 200),
    },
    "inject-sampled": {
        "full": (3, 60, 4, 5, 50_000), "tiny": (3, 10, 2, 3, 50),
    },
}
SHARD_SIZE = {"full": 2000, "tiny": 40}

#: Shards (by position in the plan) replayed on the scalar reference path.
REPLAY_SHARDS = (0, -1)


def _sweep_setup(name: str) -> Callable[[int, str], SweepInputs]:
    def setup(seed: int, size: str) -> SweepInputs:
        count, n, nodes, k, budget = SWEEP_SIZES[name][size]
        phases = dict.fromkeys(("context", "space", "importance", "plan"), 0.0)
        sweeps = []
        for case_seed in range(count * seed, count * seed + count):
            case = suite.generate_case(n, nodes, k, mu=5.0, seed=case_seed)
            merged = merge_application(case.application)
            bus = initial_bus_access(case.application, case.architecture)
            implementation = initial_mpa(
                merged, case.architecture, case.faults, bus
            )
            schedule = list_scheduler.list_schedule(
                merged, case.faults, implementation.policies,
                implementation.mapping, bus,
            )
            target = InjectTarget(
                application=case.application,
                faults=case.faults,
                implementation=implementation,
                record=schedule.record,
                label=f"initial-{n}p{nodes}n-k{k}-seed{case_seed}",
            )
            with _phase(phases, "context"):
                context = target.build_context()
            with _phase(phases, "space"):
                scenario_space = space.ScenarioSpace.of(context.ft, k)
            with _phase(phases, "importance"):
                ranked = importance.importance_scenarios(
                    target.record, context.ft, k
                )
            with _phase(phases, "plan"):
                plan = inject_plan.plan_sweep(
                    scenario_space, len(ranked), budget=budget,
                    shard_size=SHARD_SIZE[size], seed=seed,
                )
            sweeps.append(Sweep(target, plan))
        return SweepInputs(sweeps, phases)

    return setup


@contextlib.contextmanager
def _phase(phases: dict[str, float], name: str):
    started = time.perf_counter()
    yield
    phases[name] += time.perf_counter() - started


def run_sweep(inputs: SweepInputs) -> Outcome:
    outcome = Outcome()
    sweeps = outcome.counts["sweeps"] = []
    bounds = []
    for sweep in inputs.sweeps:
        # One operation per shard plus the sweep's own verdict.
        outcome.attempted += len(sweep.plan.shards) + 1
        try:
            aggregate, _ = inject_driver.run_inject_sweep(
                sweep.target, sweep.plan
            )
        except Exception as error:  # the sweep aborts at the failing shard
            outcome.failures.append(f"{sweep.target.label}: raised {error!r}")
            outcome.results.append(None)
            continue
        outcome.results.append(aggregate)
        outcome.work += aggregate.scenarios
        bounds.append(aggregate.residual_upper_bound())
        summary = aggregate.to_dict()
        for timing in ("elapsed_s", "phase_s", "scenarios_per_sec"):
            summary.pop(timing)
        sweeps.append(summary)
    if bounds:
        # The weakest certificate among the pass's sweeps.
        outcome.quality["residual_bound"] = max(bounds)
    return outcome


def check_sweep(inputs: SweepInputs, outcome: Outcome) -> None:
    """Scenario accounting, verdict, and scalar replay of sample shards."""
    for sweep, aggregate in zip(inputs.sweeps, outcome.results):
        if aggregate is not None:
            _check_one_sweep(sweep, aggregate, outcome)


def _check_one_sweep(sweep: Sweep, aggregate, outcome: Outcome) -> None:
    plan, label = sweep.plan, sweep.target.label
    if not aggregate.complete:
        outcome.failures.append(
            f"{label}: {aggregate.shards_folded} of {len(plan.shards)} "
            "shards folded"
        )
    # Stratified draws may repeat a scenario: every draw is accounted for,
    # each distinct scenario is simulated once.
    if aggregate.draws != plan.total_scenarios or not (
        0 < aggregate.scenarios <= aggregate.draws
    ):
        outcome.failures.append(
            f"{label}: {aggregate.scenarios} scenarios in {aggregate.draws} "
            f"draws; the plan has {plan.total_scenarios}"
        )
    if not aggregate.ok:
        outcome.failures.append(
            f"{label}: {aggregate.violation_scenarios} violating scenarios: "
            f"{sorted(aggregate.class_counts)}"
        )
    fingerprint = sweep.target.fingerprint()
    for position in REPLAY_SHARDS:
        spec = plan.shards[position]
        outcome.attempted += 1
        batched = runner.run_shard(sweep.target, spec, fingerprint)
        scalar = runner.run_shard(
            sweep.target, spec, fingerprint, batch_size=0
        )
        if _shard_summary(batched) != _shard_summary(scalar):
            outcome.failures.append(
                f"{label}: shard {spec.describe()}: batched and scalar "
                "replays differ"
            )


def _shard_summary(result) -> tuple:
    return (
        result.scenarios, result.draws, result.violation_scenarios,
        result.violation_draws, sorted(result.class_counts.items()),
    )


WORKLOADS: dict[str, Workload] = {
    "search-cruise": Workload(setup_cruise, run_search, check_search),
    "inject-exhaustive": Workload(
        _sweep_setup("inject-exhaustive"), run_sweep, check_sweep
    ),
    "inject-sampled": Workload(
        _sweep_setup("inject-sampled"), run_sweep, check_sweep
    ),
}


def deterministic_counts(snapshot: dict[str, Any]) -> dict[str, float]:
    """The program's counters and gauges that must repeat exactly.

    ``snapshot`` is a metrics-registry snapshot.  Timings (``*_s``) and
    rates vary run to run and are left out; every other instrument counts
    work.
    """
    values = {**snapshot["counters"], **snapshot["gauges"]}
    return {
        name: value
        for name, value in sorted(values.items())
        if not name.endswith("_s") and "per_sec" not in name
    }
