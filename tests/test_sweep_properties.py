"""Property tests for the sweep task-queue partitioner.

``shard_cells`` groups pending cells by ``(seed, scale)`` and
``task_order`` cuts that grouped order into one lane per
worker, interleaved task by task.  For random grids and worker counts,
with ``w = min(jobs, n)`` lanes over ``n`` pending cells, the
invariants that keep the executor correct and its workers warm:

* every pending scenario appears exactly once (nothing dropped or
  duplicated — a dropped cell would silently vanish from the sweep, a
  duplicated one would double-simulate and race on its cache slot);
* no shard is empty (an empty task would wedge a pool worker on
  nothing), and every shard is context-homogeneous;
* each lane ``order[k::w]`` visits every context in one unbroken run,
  so a worker's context memo serves a lane without rebuilding;
* when no context holds more than ``n // w`` pending cells, the first
  ``w`` tasks touch pairwise-distinct contexts, so workers build
  distinct contexts concurrently at sweep start.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sweep.runner import shard_cells, task_order
from repro.sweep.scenario import Scenario, ScenarioGrid

#: Small axis pools keep scenario construction cheap while still
#: generating many distinct (seed, scale) groupings and duplicates
#: (ScenarioGrid de-duplicates, mirroring real sweep input).
cells = st.lists(
    st.tuples(
        st.sampled_from(["LiR", "LoR", "SVM"]),
        st.sampled_from([0.3, 0.5, 0.7, 1.0]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["small", "paper"]),
    ),
    min_size=1,
    max_size=40,
)
jobs = st.integers(min_value=1, max_value=8)


def pending_from(raw) -> list:
    return list(
        ScenarioGrid(
            Scenario(workload=w, theta=t, predictor="oracle", seed=s, scale=scale)
            for w, t, s, scale in raw
        )
    )


def context_of(scenario) -> tuple:
    return (scenario.seed, scenario.scale)


@settings(deadline=None, max_examples=60)
@given(raw=cells)
def test_shards_partition_pending_exactly(raw):
    pending = pending_from(raw)
    shards = shard_cells(pending)

    flat = [scenario for shard in shards for scenario in shard]
    assert sorted(s.fingerprint() for s in flat) == sorted(
        s.fingerprint() for s in pending
    )  # exactly once, nothing lost or duplicated
    assert all(shards)  # no empty shards
    for shard in shards:
        # One experiment context per shard.
        assert len({context_of(s) for s in shard}) == 1


@settings(deadline=None, max_examples=60)
@given(raw=cells, jobs=jobs)
def test_task_order_is_a_permutation_of_pending(raw, jobs):
    pending = pending_from(raw)
    ordered = task_order(pending, jobs)
    assert sorted(s.fingerprint() for s in ordered) == sorted(
        s.fingerprint() for s in pending
    )  # the queue holds every cell exactly once


@settings(deadline=None, max_examples=60)
@given(raw=cells, jobs=jobs)
def test_task_order_lanes_visit_each_context_in_one_run(raw, jobs):
    pending = pending_from(raw)
    ordered = task_order(pending, jobs)
    lanes = min(jobs, len(pending))
    for lane in range(lanes):
        runs = [context_of(s) for s in ordered[lane::lanes]]
        starts = [
            context
            for index, context in enumerate(runs)
            if index == 0 or runs[index - 1] != context
        ]
        assert len(starts) == len(set(starts))  # no context comes back


@settings(deadline=None, max_examples=60)
@given(raw=cells, jobs=jobs)
def test_task_order_head_touches_distinct_contexts(raw, jobs):
    """The head of the queue spreads across distinct contexts whenever
    no context could fill a whole lane, so the first dispatches never
    pile onto one context."""
    pending = pending_from(raw)
    lanes = min(jobs, len(pending))
    assume(max(len(shard) for shard in shard_cells(pending)) <= len(pending) // lanes)
    head = task_order(pending, jobs)[:lanes]
    assert len({context_of(s) for s in head}) == lanes
