"""Property-based end-to-end tests: random executions satisfy Definition 1.

These are the highest-value tests in the suite: hypothesis generates
arbitrary small workloads (and delivery schedules, via the seed), the
cluster executes them, and the checker verifies the full history.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import SkueueCluster
from repro.core.requests import BOTTOM, INSERT, REMOVE
from repro.sim.delays import ExponentialDelay, UniformDelay
from repro.verify import check_queue_history, check_stack_history

# a program: per-step (pid, is_insert, gap_rounds)
programs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.booleans(),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=30,
)


@given(programs, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_queue_sync_random_programs(program, seed):
    cluster = SkueueCluster(n_processes=6, seed=seed)
    for i, (pid, is_insert, gap) in enumerate(program):
        if is_insert:
            cluster.submit(pid, INSERT, f"item-{i}")
        else:
            cluster.submit(pid, REMOVE)
        cluster.step(gap)
    cluster.run_until_done(60_000)
    check_queue_history(cluster.records)


@given(programs, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_stack_sync_random_programs(program, seed):
    cluster = SkueueCluster(n_processes=6, structure="stack", seed=seed)
    for i, (pid, is_insert, gap) in enumerate(program):
        if is_insert:
            cluster.submit(pid, INSERT, f"item-{i}")
        else:
            cluster.submit(pid, REMOVE)
        cluster.step(gap)
    cluster.run_until_done(60_000)
    check_stack_history(cluster.records)


@given(programs, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_queue_async_adversarial(program, seed):
    cluster = SkueueCluster(
        n_processes=5,
        seed=seed,
        runner="async",
        delay_policy=UniformDelay(0.2, 4.0),
    )
    for i, (pid, is_insert, gap) in enumerate(program):
        pid = pid % 5
        if is_insert:
            cluster.submit(pid, INSERT, f"item-{i}")
        else:
            cluster.submit(pid, REMOVE)
        cluster.step(gap)
    cluster.run_until_done()
    check_queue_history(cluster.records)


@given(programs, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_stack_async_adversarial(program, seed):
    cluster = SkueueCluster(
        n_processes=5,
        seed=seed,
        runner="async",
        delay_policy=ExponentialDelay(1.2), structure="stack",
    )
    for i, (pid, is_insert, gap) in enumerate(program):
        pid = pid % 5
        if is_insert:
            cluster.submit(pid, INSERT, f"item-{i}")
        else:
            cluster.submit(pid, REMOVE)
        cluster.step(gap)
    cluster.run_until_done()
    check_stack_history(cluster.records)


@given(
    st.lists(st.booleans(), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=20, deadline=None)
def test_single_process_queue_matches_sequential(ops, seed):
    """With one request source, the distributed queue IS a queue."""
    from repro.verify.models import QueueModel

    cluster = SkueueCluster(n_processes=4, seed=seed)
    reference = QueueModel()
    handles = []
    expected = []
    for i, is_insert in enumerate(ops):
        if is_insert:
            reference.push(cluster.records[cluster.submit(0, INSERT, f"v{i}")])
        else:
            handles.append(cluster.submit(0, REMOVE))
            expected.append(BOTTOM if reference.peek() is None else reference.consume()[1])
        # fully quiesce between ops: strict sequential semantics
        cluster.run_until_done(60_000)
    for handle, want in zip(handles, expected):
        got = cluster.result_of(handle)
        assert got == want or (got is BOTTOM and want is BOTTOM)
