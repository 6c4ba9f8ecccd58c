"""Partitioner contract: the sharded space IS the enumerated space.

Property-tested guarantees every other inject module builds on:

* rank/unrank is a bijection per stratum, in the exact lexicographic
  order of :func:`repro.sim.faults.enumerate_scenarios`;
* shards of a partition are pairwise disjoint and union-complete;
* shard fingerprints are pure functions of (target fingerprint, shard
  coordinates) — stable across processes (no interpreter-hash leakage);
* the column-parallel enumerator (``sample_counts`` / ``counts_range``)
  yields the brute-force vectors column by column, including spaces too
  big for int64 indices.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.inject.partition import ShardSpec, partition_stratum, shard_fingerprint
from repro.inject.space import ScenarioSpace, scenario_key

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Instance fault capacities (reexecutions + 1 each); small enough to
#: brute-force, varied enough to hit ragged cap vectors.
caps_strategy = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=6
)


def brute_force_stratum(caps: list[int], total: int) -> list[tuple[int, ...]]:
    """All count vectors with the given total, lexicographic order."""
    if not caps:
        return [()] if total == 0 else []
    out = []
    for first in range(min(caps[0], total) + 1):
        for rest in brute_force_stratum(caps[1:], total - first):
            out.append((first,) + rest)
    return out


def named(caps: list[int]) -> list[tuple[str, int]]:
    return [(f"i{j}", cap) for j, cap in enumerate(caps)]


@given(caps=caps_strategy, k=st.integers(min_value=0, max_value=5))
@settings(max_examples=120, deadline=None)
def test_rank_unrank_bijection_in_lex_order(caps, k):
    space = ScenarioSpace(capacities=named(caps), k=k)
    total_seen = 0
    for t in range(k + 1):
        expected = brute_force_stratum([min(c, k) for c in caps], t)
        assert space.stratum_size(t) == len(expected)
        for index, counts in enumerate(expected):
            assert space.unrank(t, index) == counts
            assert space.rank(counts) == (t, index)
        total_seen += len(expected)
    assert space.total == total_seen


@given(
    caps=caps_strategy,
    k=st.integers(min_value=0, max_value=4),
    shard_size=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=80, deadline=None)
def test_shards_disjoint_and_union_complete(caps, k, shard_size):
    space = ScenarioSpace(capacities=named(caps), k=k)
    for t in range(k + 1):
        size = space.stratum_size(t)
        shards = partition_stratum(size, shard_size, t, wave=1 + t, seed=0)
        assert sum(s.hi - s.lo for s in shards) == size
        seen: list[tuple[int, ...]] = []
        for shard in shards:
            chunk = list(space.iter_range(t, shard.lo, shard.hi))
            assert len(chunk) == shard.hi - shard.lo
            seen.extend(chunk)
        # Disjoint + complete + ordered == exactly the enumeration.
        assert seen == brute_force_stratum([min(c, k) for c in caps], t)


def test_space_matches_enumerate_scenarios(small_target):
    """End to end vs the reference generator on a real FT graph."""
    from repro.sim.faults import enumerate_scenarios

    context = small_target.build_context()
    k = small_target.faults.k
    space = ScenarioSpace.of(context.ft, k)
    expected = [
        scenario_key(s.failures)
        for s in enumerate_scenarios(context.ft, k)
    ]
    produced = []
    for t in range(k + 1):
        for counts in space.iter_range(t, 0, space.stratum_size(t)):
            produced.append(scenario_key(space.scenario(counts).failures))
    assert produced == expected
    assert len(set(produced)) == len(produced)


def test_shard_fingerprints_stable_across_processes():
    spec = ShardSpec(
        tier="stratified", wave=2, stratum=1, lo=3, hi=4, draws=500, seed=9
    )
    local = shard_fingerprint("cafe" * 16, spec)
    script = (
        "from repro.inject.partition import ShardSpec, shard_fingerprint;"
        "spec = ShardSpec(tier='stratified', wave=2, stratum=1, lo=3,"
        " hi=4, draws=500, seed=9);"
        "print(shard_fingerprint('cafe' * 16, spec))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": REPO_SRC, "PYTHONHASHSEED": "77"},
    )
    assert out.stdout.strip() == local


def test_rng_label_is_the_documented_contract():
    spec = ShardSpec(
        tier="stratified", wave=1, stratum=2, lo=5, hi=6, draws=100, seed=4
    )
    assert spec.rng_label() == "inject:4:2:5"


def columns(matrix) -> list[tuple[int, ...]]:
    return [tuple(column) for column in matrix.T.tolist()]


@given(data=st.data(), caps=caps_strategy, k=st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_sample_counts_matches_brute_force(data, caps, k):
    """Unsorted, repeated, end-point and empty index lists, column by column."""
    space = ScenarioSpace(capacities=named(caps), k=k)
    for t in range(k + 1):
        expected = brute_force_stratum([min(c, k) for c in caps], t)
        assert space.sample_counts(t, []).shape == (len(caps), 0)
        if not expected:
            continue
        drawn = data.draw(
            st.lists(st.integers(0, len(expected) - 1), max_size=12)
        )
        indices = drawn + [len(expected) - 1, 0] + drawn[:2]
        matrix = space.sample_counts(t, indices)
        assert matrix.shape == (len(caps), len(indices))
        assert columns(matrix) == [expected[i] for i in indices]


@given(data=st.data(), caps=caps_strategy, k=st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_counts_range_matches_brute_force_slice(data, caps, k):
    space = ScenarioSpace(capacities=named(caps), k=k)
    for t in range(k + 1):
        expected = brute_force_stratum([min(c, k) for c in caps], t)
        lo = data.draw(st.integers(0, len(expected)))
        hi = data.draw(st.integers(lo, len(expected)))
        matrix = space.counts_range(t, lo, hi)
        assert matrix.shape == (len(caps), hi - lo)
        assert columns(matrix) == expected[lo:hi]
        assert list(space.iter_range(t, lo, hi)) == expected[lo:hi]


@given(caps=caps_strategy, k=st.integers(0, 4), past=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_out_of_stratum_indices_raise(caps, k, past):
    space = ScenarioSpace(capacities=named(caps), k=k)
    for t in range(k + 1):
        size = space.stratum_size(t)
        valid = [0] if size else []
        for bad in (-1 - past, size + past, 2**64 + past, -(2**64)):
            with pytest.raises(SimulationError, match=f"stratum {t}"):
                space.sample_counts(t, valid + [bad] + valid)
            with pytest.raises(SimulationError, match=f"stratum {t}"):
                space.unrank(t, bad)
        with pytest.raises(SimulationError, match=f"stratum {t}"):
            space.counts_range(t, 0, size + 1 + past)
        with pytest.raises(SimulationError, match=f"stratum {t}"):
            space.counts_range(t, -1 - past, size)


def test_zero_budget_and_single_instance_spaces():
    empty_budget = ScenarioSpace(capacities=named([3, 1, 2]), k=0)
    assert empty_budget.total == 1
    assert columns(empty_budget.sample_counts(0, [0, 0])) == [(0, 0, 0)] * 2
    assert columns(empty_budget.counts_range(0, 0, 1)) == [(0, 0, 0)]
    assert empty_budget.unrank(0, 0) == (0, 0, 0)

    single = ScenarioSpace(capacities=named([3]), k=5)
    assert [single.stratum_size(t) for t in range(6)] == [1, 1, 1, 1, 0, 0]
    for t in range(4):
        assert single.unrank(t, 0) == (t,)
        assert columns(single.sample_counts(t, [0])) == [(t,)]
        assert columns(single.counts_range(t, 0, 1)) == [(t,)]
    assert single.sample_counts(4, []).shape == (1, 0)
    with pytest.raises(SimulationError, match="stratum 4"):
        single.unrank(4, 0)


def test_big_integer_space_round_trips():
    """A space past 2**63 scenarios runs the same kernel on Python ints."""
    rng = random.Random(20)
    caps = [rng.randint(1, 4) for _ in range(200)]
    space = ScenarioSpace(capacities=named(caps), k=20)
    assert space.total > 2**63
    assert space._tables[1].dtype == object
    for t in (1, 7, 19, 20):
        size = space.stratum_size(t)
        indices = [rng.randrange(size) for _ in range(12)]
        indices += [0, size - 1, indices[0]]
        vectors = [space.unrank(t, index) for index in indices]
        for index, counts in zip(indices, vectors):
            assert sum(counts) == t
            assert all(0 <= f <= cap for f, cap in zip(counts, caps))
            assert space.rank(counts) == (t, index)
        assert columns(space.sample_counts(t, indices)) == vectors
        lo = indices[1]
        assert columns(space.counts_range(t, lo, lo + 3)) == [
            space.unrank(t, lo + j) for j in range(3)
        ]
