"""Tests of the benchmark itself: span arithmetic, patching, seeds, checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

from spans import PATCHES, Patched, SpanLog  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.io.json_codec import application_to_dict  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _log(rows):
    """A SpanLog from (name, start, end, parent) rows."""
    log = SpanLog()
    for name, start, end, parent in rows:
        log.names.append(name)
        log.starts.append(start)
        log.ends.append(end)
        log.parents.append(parent)
        log.tags.append(None)
    return log


def test_self_time_subtracts_children_only():
    log = _log([
        ("bench", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
        ("check", 10.0, 12.0, -1),
        ("b", 10.5, 11.0, 4),
    ])
    assert log.self_times() == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]
    assert log.roots() == ["bench"] * 4 + ["check"] * 2
    totals = log.totals(within=("bench",))
    assert (totals["a"].calls, totals["a"].self_s) == (2, 6.0)
    assert totals["a"].durations == [3.0, 4.0]
    assert (totals["b"].calls, totals["b"].self_s) == (1, 1.0)
    assert log.totals()["b"].self_s == 1.5
    # Self times partition the top-level spans' wall time.
    assert sum(log.self_times()) == pytest.approx(12.0)


def test_live_spans_nest_and_tag():
    log = SpanLog()
    with log.span("outer"):
        with log.span("inner", tag="exhaustive"):
            pass
    assert log.parents == [-1, 0]
    assert log.tagged_self_s("inner") == {"exhaustive": log.durations()[1]}
    assert all(own >= 0.0 for own in log.self_times())


def _raw(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return vars(owner)[attribute]


def test_patched_names_are_restored_after_a_traced_pass():
    originals = [_raw(module, path) for module, path, _ in PATCHES]
    with Patched(SpanLog()):
        assert all(
            _raw(module, path) is not original
            for (module, path, _), original in zip(PATCHES, originals)
        )
    assert all(
        _raw(module, path) is original
        for (module, path, _), original in zip(PATCHES, originals)
    )
    worker.run_pass("inject-sampled", 0, 1, traced=True, size="tiny")
    assert all(
        _raw(module, path) is original
        for (module, path, _), original in zip(PATCHES, originals)
    )


def test_patched_names_are_restored_when_the_work_raises():
    originals = [_raw(module, path) for module, path, _ in PATCHES]
    with pytest.raises(RuntimeError):
        with Patched(SpanLog()):
            raise RuntimeError("boom")
    assert all(
        _raw(module, path) is original
        for (module, path, _), original in zip(PATCHES, originals)
    )


def _search_view(inputs):
    return (
        application_to_dict(inputs.application),
        inputs.variants,
        dataclasses.asdict(inputs.config),
    )


def test_seed_changes_nothing_in_the_fixed_cruise_case():
    one = WORKLOADS["search-cruise"].setup(1, "tiny")
    two = WORKLOADS["search-cruise"].setup(2, "tiny")
    assert _search_view(one) == _search_view(two)
    assert one.config.time_limit_s is None


@pytest.mark.parametrize("name", ["inject-exhaustive", "inject-sampled"])
def test_seed_changes_only_the_cases_and_sweep_seed(name):
    one = WORKLOADS[name].setup(1, "tiny")
    two = WORKLOADS[name].setup(2, "tiny")
    assert len(one.sweeps) == len(two.sweeps)
    for first, second in zip(one.sweeps, two.sweeps):
        assert (first.plan.seed, second.plan.seed) == (1, 2)
        assert first.target.application != second.target.application
        for field in ("budget", "shard_size", "tier"):
            assert getattr(first.plan, field) == getattr(second.plan, field)
    again = WORKLOADS[name].setup(1, "tiny")
    for first, repeat in zip(one.sweeps, again.sweeps):
        assert repeat.target.fingerprint() == first.target.fingerprint()
        assert repeat.plan.shards == first.plan.shards


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks_traced_and_untraced(name):
    plain = worker.run_pass(name, 3, 2, traced=False, size="tiny")
    traced = worker.run_pass(name, 3, 1, traced=True, size="tiny")
    for payload in (plain, traced):
        assert payload["failures"] == []
        assert payload["attempted"] > 0 and payload["work"] > 0
    assert plain["deterministic"] == traced["deterministic"]
    expected = {metric["name"] for metric in SPEC["per_layer"]}
    expected.discard("bench.trace_overhead_pct")  # computed across passes
    assert set(traced["layers"]) == expected


def test_checks_catch_a_wrong_search_cost():
    workload = WORKLOADS["search-cruise"]
    inputs = workload.setup(0, "tiny")
    outcome = workload.run(inputs)
    result = outcome.results[0]
    result.cost = dataclasses.replace(
        result.cost, makespan=result.makespan + 1
    )
    workload.check(inputs, outcome)
    assert len(outcome.failures) == 1
    assert "cold re-pricing" in outcome.failures[0]


def test_checks_catch_a_short_sweep():
    workload = WORKLOADS["inject-sampled"]
    inputs = workload.setup(0, "tiny")
    outcome = workload.run(inputs)
    outcome.results[0].draws -= 1
    workload.check(inputs, outcome)
    assert any("draws" in failure for failure in outcome.failures)
