"""Property tests for the bounded collections (the mem-* remedy).

Model-based: every operation sequence is replayed against a plain
``OrderedDict`` LRU reference, and the bounded collection must agree on
contents, order, and eviction log at every step — that is the
determinism contract the trace-invisibility proofs lean on.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounded import BoundedDict, BoundedSet, RetainedCensus

# Small key space so sequences collide, refresh, and evict constantly.
KEYS = st.integers(min_value=0, max_value=15)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), KEYS, st.integers()),
        st.tuples(st.just("get"), KEYS, st.none()),
        st.tuples(st.just("del"), KEYS, st.none()),
    ),
    max_size=80,
)
MAXSIZES = st.integers(min_value=1, max_value=8)


class ModelLRU:
    """Reference LRU over OrderedDict: stalest first, like BoundedDict."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.data: OrderedDict = OrderedDict()
        self.evicted: list = []
        self.high_water = 0

    def set(self, key, value) -> None:
        if key in self.data:
            del self.data[key]
        self.data[key] = value
        if len(self.data) > self.maxsize:
            victim, dropped = self.data.popitem(last=False)
            self.evicted.append((victim, dropped, "lru"))
        self.high_water = max(self.high_water, len(self.data))

    def get(self, key):
        if key not in self.data:
            return None
        self.data[key] = self.data.pop(key)  # refresh recency
        return self.data[key]

    def delete(self, key) -> None:
        self.data.pop(key, None)


def replay(maxsize: int, ops) -> tuple[BoundedDict, ModelLRU, list]:
    log: list = []
    bounded: BoundedDict = BoundedDict(
        maxsize, on_evict=lambda k, v, cause: log.append((k, v, cause))
    )
    model = ModelLRU(maxsize)
    for op, key, value in ops:
        if op == "set":
            bounded[key] = value
            model.set(key, value)
        elif op == "get":
            assert bounded.get(key) == model.get(key)
        else:
            bounded.pop(key, None)
            model.delete(key)
    return bounded, model, log


@given(maxsize=MAXSIZES, ops=OPS)
@settings(max_examples=200)
def test_matches_reference_lru(maxsize, ops):
    bounded, model, log = replay(maxsize, ops)
    assert list(bounded.items()) == list(model.data.items())
    assert log == model.evicted
    assert bounded.high_water == model.high_water


@given(maxsize=MAXSIZES, ops=OPS)
@settings(max_examples=100)
def test_size_never_exceeds_bound(maxsize, ops):
    bounded: BoundedDict = BoundedDict(maxsize)
    for op, key, value in ops:
        if op == "set":
            bounded[key] = value
        elif op == "get":
            bounded.get(key)
        else:
            bounded.pop(key, None)
        assert len(bounded) <= maxsize
    assert bounded.high_water <= maxsize


@given(maxsize=MAXSIZES, ops=OPS)
@settings(max_examples=100)
def test_replay_is_deterministic(maxsize, ops):
    first, _, first_log = replay(maxsize, ops)
    second, _, second_log = replay(maxsize, ops)
    assert list(first.items()) == list(second.items())
    assert first_log == second_log
    assert first.stats() == second.stats()


@given(maxsize=MAXSIZES, ops=OPS)
@settings(max_examples=100)
def test_stats_are_coherent(maxsize, ops):
    bounded: BoundedDict = BoundedDict(maxsize)
    reads = new_keys = 0
    for op, key, value in ops:
        if op == "set":
            if key not in bounded:
                new_keys += 1
            bounded[key] = value
        elif op == "get":
            bounded.get(key)
            reads += 1
        else:
            # MutableMapping.pop reads before deleting, counting one
            # hit or miss.
            bounded.pop(key, None)
            reads += 1
    stats = bounded.stats()
    assert stats["hits"] + stats["misses"] == reads
    assert stats["inserts"] == new_keys
    assert stats["evictions_lru"] <= stats["inserts"]
    assert stats["size"] == len(bounded)


@given(
    maxsize=MAXSIZES,
    steps=st.lists(
        st.tuples(
            KEYS,
            st.floats(min_value=0.0, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
        ),
        max_size=60,
    ),
    ttl=st.floats(min_value=0.5, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
)
@settings(max_examples=150)
def test_ttl_expiry_tracks_simulated_clock(maxsize, steps, ttl):
    # Entries whose last refresh is >= ttl old (per the injected clock)
    # are never visible; expiry is a pure function of the op sequence
    # and the clock readings, exactly like the LRU policy.
    now = [0.0]
    bounded: BoundedDict = BoundedDict(
        maxsize, ttl=ttl, clock=lambda: now[0]
    )
    stamps: dict = {}
    for key, advance in steps:
        now[0] += advance
        bounded[key] = key
        stamps[key] = now[0]
        live = {
            k for k, stamp in stamps.items() if stamp > now[0] - ttl
        }
        # LRU eviction may remove more, never less, than TTL expiry.
        assert set(bounded) <= live
        stamps = {k: s for k, s in stamps.items() if k in bounded}
    if steps:
        # Advance past the horizon: everything must expire.
        now[0] += ttl + 1.0
        assert len(bounded) == 0
        assert bounded.stats()["size"] == 0


def test_ttl_eviction_reports_cause():
    now = [0.0]
    log: list = []
    bounded: BoundedDict = BoundedDict(
        4, ttl=1.0, clock=lambda: now[0],
        on_evict=lambda k, v, cause: log.append((k, cause)),
    )
    bounded["a"] = 1
    now[0] = 2.0
    assert "a" not in bounded
    assert log == [("a", "ttl")]
    assert bounded.stats()["evictions_ttl"] == 1


def test_peek_and_contains_do_not_touch_or_count():
    bounded: BoundedDict = BoundedDict(2)
    bounded["a"] = 1
    bounded["b"] = 2
    assert bounded.peek("a") == 1
    assert "a" in bounded
    before = bounded.stats()
    assert before["hits"] == 0 and before["misses"] == 0
    # "a" is still the LRU victim: peek/contains refreshed nothing.
    bounded["c"] = 3
    assert "a" not in bounded and "b" in bounded


def test_constructor_validation():
    with pytest.raises(ValueError):
        BoundedDict(0)
    with pytest.raises(ValueError):
        BoundedDict(4, ttl=1.0)  # ttl without an injected clock
    with pytest.raises(ValueError):
        BoundedDict(4, ttl=-1.0, clock=lambda: 0.0)


# -- BoundedSet ---------------------------------------------------------------


@given(
    maxsize=MAXSIZES,
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("add"), KEYS),
            st.tuples(st.just("discard"), KEYS),
        ),
        max_size=80,
    ),
)
@settings(max_examples=150)
def test_set_matches_reference(maxsize, ops):
    bounded: BoundedSet = BoundedSet(maxsize)
    model = ModelLRU(maxsize)
    for op, key in ops:
        if op == "add":
            bounded.add(key)
            model.set(key, None)
        else:
            bounded.discard(key)
            model.delete(key)
        assert len(bounded) <= maxsize
    assert list(bounded) == list(model.data)
    assert bounded.high_water == model.high_water


def test_set_readd_refreshes_recency():
    bounded: BoundedSet = BoundedSet(2)
    bounded.add("a")
    bounded.add("b")
    bounded.add("a")  # refresh: "b" becomes the victim
    bounded.add("c")
    assert set(bounded) == {"a", "c"}


def test_set_membership_is_a_pure_probe():
    bounded: BoundedSet = BoundedSet(2)
    bounded.add("a")
    bounded.add("b")
    assert "a" in bounded  # must not refresh
    bounded.add("c")
    assert set(bounded) == {"b", "c"}


# -- RetainedCensus -----------------------------------------------------------


class _PeakProbe:
    def __init__(self) -> None:
        self.reported: list[int] = []

    def on_retained(self, source: str, count: int) -> None:
        assert source == "census"
        self.reported.append(count)


class _Env:
    def __init__(self, probe) -> None:
        self.probe = probe


def test_census_reports_only_new_peaks():
    probe = _PeakProbe()
    census = RetainedCensus(_Env(probe))
    table: dict = {}
    census.register(table)
    extra = census.register(set())
    assert extra is not None  # registration chains
    table["a"] = 1
    assert census.observe() == 1
    table.pop("a")
    assert census.observe() == 0  # below the peak: not reported
    table["a"] = 1
    assert census.observe() == 1  # ties the peak: not reported
    table["b"] = 2
    assert census.observe() == 2
    assert probe.reported == [1, 2]
    assert census.high_water == 2
