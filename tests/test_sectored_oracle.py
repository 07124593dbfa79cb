"""Sectored page caches against a per-access reference simulator.

The engine collapses page runs, folds stores into per-page sector
bitmasks and emits writebacks vectorized. The oracle below does none of
that: it walks one access at a time and keeps dirty state as a set of
sector numbers per page. Every observable must agree exactly — emitted
batches (content and order), ``LevelStats``, resident sets,
``is_dirty``, ``insert_block`` writebacks and ``flush_dirty`` order.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssociativeCache
from repro.telemetry.core import Telemetry, activate
from repro.trace.events import AccessBatch

SECTOR = 64
STATS = (
    "loads", "stores", "load_bits", "store_bits", "load_hits",
    "load_misses", "store_hits", "store_misses", "writebacks", "fills",
)


class SectoredOracle:
    """Per-access sectored page cache: pages allocate, sectors dirty.

    Shaped like a textbook ``get`` / ``_in_cache`` pair: no run
    collapse, no bitmasks. Random replacement draws from its own
    ``random.Random(0)``, one ``randrange(ways)`` per eviction from a
    full set, in the order evictions happen.
    """

    def __init__(self, num_sets, ways, page, policy, hashed):
        self.num_sets = num_sets
        self.ways = ways
        self.page = page
        self.policy = policy
        self.hashed = hashed
        # LRU/FIFO: newest (MRU) first. Random: slot order.
        self.sets = [[] for _ in range(num_sets)]
        self.dirty = {}  # page -> set of global sector numbers
        self.rng = random.Random(0)
        self.stats = dict.fromkeys(STATS, 0)

    def set_of(self, page):
        if self.hashed:
            return (((page * 2654435761) % 2**64) >> 15) % self.num_sets
        return page % self.num_sets

    def _in_cache(self, page):
        s = self.sets[self.set_of(page)]
        if page not in s:
            return False
        if self.policy == "lru":
            s.remove(page)
            s.insert(0, page)
        return True

    def _install(self, page):
        """Allocate ``page``; return its victim's dirty-sector writebacks."""
        s = self.sets[self.set_of(page)]
        victim = None
        if self.policy == "random":
            if len(s) < self.ways:
                s.append(page)
            else:
                slot = self.rng.randrange(self.ways)
                victim, s[slot] = s[slot], page
        else:
            s.insert(0, page)
            if len(s) > self.ways:
                victim = s.pop()
        if victim is None:
            return []
        return self._writebacks(self.dirty.pop(victim, ()))

    def _writebacks(self, sectors):
        sectors = sorted(sectors)
        self.stats["writebacks"] += len(sectors)
        return [(sec * SECTOR, SECTOR, 1) for sec in sectors]

    def get(self, addr, size, is_store):
        kind = "store" if is_store else "load"
        self.stats[kind + "s"] += 1
        self.stats[kind + "_bits"] += 8 * size
        page = addr // self.page
        out = []
        if self._in_cache(page):
            self.stats[kind + "_hits"] += 1
        else:
            self.stats[kind + "_misses"] += 1
            self.stats["fills"] += 1
            out.append((page * self.page, self.page, 0))
            out += self._install(page)
        if is_store:
            self.dirty.setdefault(page, set()).add(addr // SECTOR)
        return out

    def insert_block(self, page):
        if page in self.sets[self.set_of(page)]:
            return []
        return self._install(page)

    def flush_dirty(self):
        sectors = [sec for secs in self.dirty.values() for sec in secs]
        self.dirty.clear()
        return self._writebacks(sectors)

    def is_dirty(self, addr):
        return addr // SECTOR in self.dirty.get(addr // self.page, ())


def as_requests(batch: AccessBatch):
    return list(zip(
        batch.addresses.tolist(), batch.sizes.tolist(),
        batch.is_store.tolist(),
    ))


def resident_sets(cache: SetAssociativeCache):
    if cache._inline:
        return [list(s) for s in cache._sets]
    return [cache._policy.contents(i) for i in range(cache.config.num_sets)]


@st.composite
def scenarios(draw):
    num_sets = 1 << draw(st.integers(0, 6))
    ways = draw(st.integers(1, 4))
    page = 1 << draw(st.integers(7, 12))
    policy = draw(st.sampled_from(["lru", "fifo", "random"]))
    hashed = draw(st.booleans())
    # A page pool a little larger than the cache forces evictions of
    # dirty pages; wide page numbers exercise the hashed index.
    pool = draw(st.lists(
        st.integers(0, 2**40), min_size=1, max_size=num_sets * ways + 4,
        unique=True,
    ))
    access = st.tuples(
        st.sampled_from(pool),
        st.integers(0, page // 8 - 1),  # 8-byte word within the page
        st.booleans(),
        st.integers(1, 4),  # repeats: page runs across sectors
    )
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("batch"), st.lists(access, max_size=40)),
            st.tuples(st.just("insert"), st.sampled_from(pool)),
        ),
        min_size=1, max_size=6,
    ))
    return num_sets, ways, page, policy, hashed, pool, ops


def expand(accesses, page):
    """Each access repeats over consecutive words, so runs of one page
    span several sectors with mixed loads and stores."""
    addrs, kinds = [], []
    for pg, word, store, reps in accesses:
        for r in range(reps):
            addrs.append(pg * page + ((word + r) % (page // 8)) * 8)
            kinds.append(int(store) if r == 0 else int(store) ^ (r & 1))
    return addrs, kinds


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_engine_matches_per_access_oracle(scenario):
    num_sets, ways, page, policy, hashed, pool, ops = scenario
    cache = SetAssociativeCache(CacheConfig(
        "S", num_sets * ways * page, ways, page, sector_size=SECTOR,
        hashed_sets=hashed, policy=policy,
    ))
    oracle = SectoredOracle(num_sets, ways, page, policy, hashed)
    assert cache.engine == "scalar"
    for op, arg in ops:
        if op == "insert":
            assert as_requests(cache.insert_block(arg)) == (
                oracle.insert_block(arg)
            )
            continue
        addrs, kinds = expand(arg, page)
        batch = AccessBatch.from_lists(
            np.asarray(addrs, dtype=np.uint64), 8, kinds
        )
        expected = []
        for addr, kind in zip(addrs, kinds):
            expected += oracle.get(addr, 8, kind)
        assert as_requests(cache.process(batch)) == expected
    assert {f: getattr(cache.stats, f) for f in STATS} == oracle.stats
    assert resident_sets(cache) == oracle.sets
    for pg in pool:
        for sector in range(page // SECTOR):
            addr = pg * page + sector * SECTOR
            assert cache.is_dirty(addr) == oracle.is_dirty(addr)
    assert as_requests(cache.flush_dirty()) == oracle.flush_dirty()
    assert cache.stats.writebacks == oracle.stats["writebacks"]
    assert not cache._dirty_masks


def test_reset_clears_dirty_masks():
    cache = SetAssociativeCache(
        CacheConfig("S", 4096, 2, 1024, sector_size=SECTOR)
    )
    cache.process(AccessBatch.from_lists([0, 64, 2048], 8, [1, 1, 1]))
    assert cache.is_dirty(64)
    cache.reset()
    assert not cache.is_dirty(64)
    assert len(cache.flush_dirty()) == 0


def test_sectored_page_runs_are_counted_as_scalar_engine_runs():
    """A sectored level reports its page runs to the engine table."""
    # Three page runs: page 0 (three sectors), page 1, page 0 again.
    batch = AccessBatch.from_lists(
        [0, 64, 128, 1024, 8], 8, [0, 1, 0, 1, 0]
    )
    for num_sets in (1, 4):
        cache = SetAssociativeCache(CacheConfig(
            "P", num_sets * 2 * 1024, 2, 1024, sector_size=SECTOR
        ))
        telemetry = Telemetry()
        with activate(telemetry):
            cache.process(batch)
            cache.process(batch)
        runs = telemetry.counter(
            "repro_engine_runs", level="P", path="scalar"
        )
        assert runs.value == 6
