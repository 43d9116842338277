"""Reference-model tests for the kernel's event queue.

The contract under test (DESIGN.md §7): :class:`Environment` keeps
pending events in a compacting binary heap and dispatches the live ones
in ascending ``(time, priority, sequence)`` order.  Every key is unique,
so the order is total and compaction — dropping cancelled entries and
re-heapifying the survivors — can never change it.  Every test runs
against both kernel configurations: the compacting heap (the default)
and the lazy-deletion heap (``compact_cancelled=False``).  The
hypothesis test drives the kernel through random schedule/cancel/step
sequences and checks every dispatch against a sorted list of live keys.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Environment, Event
from repro.simcore.environment import EmptySchedule

#: Kernel configurations by test id: ``compact_cancelled`` for each.
KERNELS = {"heap": True, "lazy": False}

_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    # Tie-prone delays: many events land on the same instant.
    st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25),
)

_OPS = st.lists(
    st.one_of(
        # Schedule ``copies`` events at one (delay, priority): bursts
        # push the heap past the compaction floor.
        st.tuples(
            st.just("schedule"), _DELAYS, st.integers(0, 2), st.integers(1, 40)
        ),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("step")),
    ),
    max_size=200,
)


def _replay(ops, compact_cancelled):
    """Run ``ops`` on a fresh kernel, checking each dispatch against the
    model; returns the full dispatch log."""
    env = Environment(compact_cancelled=compact_cancelled)
    dispatched = []
    live = {}  # key -> event, the reference model
    seq = 0
    for op in ops:
        if op[0] == "schedule":
            _, delay, priority, copies = op
            for _ in range(copies):
                seq += 1
                event = Event(env)
                key = (env.now + delay, priority, seq)
                event.callbacks.append(
                    lambda _event, key=key: dispatched.append(key)
                )
                env.schedule(event, priority=priority, delay=delay)
                live[key] = event
        elif op[0] == "cancel":
            if live:
                key = sorted(live)[op[1] % len(live)]
                live.pop(key).cancelled = True
        else:
            if not live:
                with pytest.raises(EmptySchedule):
                    env.step()
                continue
            expected = min(live)
            env.step()
            assert dispatched[-1] == expected
            assert env.now == expected[0]
            del live[expected]
        assert env.live_size == len(live)
        assert env.queue_size >= len(live)
        assert env.peek() == (min(live)[0] if live else float("inf"))
    remaining = sorted(live)
    start = len(dispatched)
    env.run()
    assert dispatched[start:] == remaining
    return dispatched


@given(_OPS)
@settings(max_examples=200, deadline=None)
def test_bulk_drain_matches_sorted_keys(ops):
    """Dispatch is a sort of the live keys, with or without compaction."""
    assert _replay(ops, compact_cancelled=True) == _replay(
        ops, compact_cancelled=False
    )


def _logged(env, log, delay, priority=1):
    """Schedule a bare event that logs (time, priority) when dispatched."""
    event = Event(env)
    event.callbacks.append(lambda _event: log.append((env.now, priority)))
    env.schedule(event, priority=priority, delay=delay)
    return event


@pytest.mark.parametrize("impl", sorted(KERNELS))
class TestEveryImplementation:
    """Behaviour both kernel configurations share."""

    def test_pops_in_key_order(self, impl):
        env = Environment(compact_cancelled=KERNELS[impl])
        log = []
        keys = [(5.0, 1), (1.0, 1), (5.0, 0), (2.5, 1)]
        for delay, priority in keys:
            _logged(env, log, delay, priority)
        env.run()
        assert log == sorted(keys)

    def test_cancelled_entries_never_served(self, impl):
        env = Environment(compact_cancelled=KERNELS[impl])
        log = []
        doomed = _logged(env, log, 1.0)
        _logged(env, log, 2.0)
        doomed.cancelled = True
        assert env.peek() == 2.0
        env.run()
        assert log == [(2.0, 1)]

    def test_raw_and_live_size(self, impl):
        env = Environment(compact_cancelled=KERNELS[impl])
        events = [env.timeout(float(i)) for i in range(10)]
        for event in events[:4]:
            event.cancelled = True
        assert env.queue_size == 10
        assert env.live_size == 6
        env.compact()
        assert env.queue_size == 6
        assert env.live_size == 6

    def test_empty_queue(self, impl):
        env = Environment(compact_cancelled=KERNELS[impl])
        with pytest.raises(EmptySchedule):
            env.step()
        assert env.peek() == float("inf")
        assert env.queue_size == 0
        assert env.live_size == 0

    def test_auto_compaction_bounds_cancelled_residency(self, impl):
        env = Environment(compact_cancelled=KERNELS[impl])
        for _ in range(5000):
            env.timeout(1e6).cancelled = True
        if KERNELS[impl]:
            # The doubling floor keeps the resident population bounded,
            # churn volume notwithstanding.
            assert env.queue_size < 1024
        else:
            assert env.queue_size == 5000
        assert env.live_size == 0


def _chatty_workload(env, log):
    """Same-instant timeouts, URGENT process resumptions scheduled
    mid-instant, and cancellations."""

    def worker(env, name, period):
        for round_ in range(20):
            watchdog = env.timeout(1000.0)
            yield env.timeout(period)
            watchdog.cancelled = True
            log.append((env.now, name, round_))

    def igniter(env):
        # Same-instant fan-out: every resumption lands at one timestamp.
        yield env.timeout(5.0)
        for idx in range(30):
            env.process(worker(env, f"spark{idx}", 0.5 + 0.25 * (idx % 4)))
        log.append((env.now, "ignite", -1))

    for idx in range(10):
        env.process(worker(env, f"base{idx}", 0.25 * (1 + idx % 8)))
    env.process(igniter(env))


@pytest.mark.parametrize("impl", sorted(KERNELS))
def test_kernel_trace_is_identical_under_every_queue(impl):
    reference_log = []
    env = Environment()
    _chatty_workload(env, reference_log)
    env.run()

    log = []
    env = Environment(compact_cancelled=KERNELS[impl])
    _chatty_workload(env, log)
    env.run()
    assert log == reference_log


def test_environment_live_size_excludes_cancelled():
    env = Environment()
    keep = env.timeout(10.0)
    drop = env.timeout(20.0)
    drop.cancelled = True
    assert env.queue_size >= 2
    assert env.live_size == 1
    assert keep is not None
