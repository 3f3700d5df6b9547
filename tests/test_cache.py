"""Tests for ``repro.cache``: the one bounded LRU every cache is an instance of.

The per-class LRU tests that used to repeat these checks (the caching
embedder's bound, the sheet-keyed LRU's order and version rule) live here
once, against the primitive.
"""

import gc
import random
import re
import sys
import threading
import uuid
import weakref
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from repro import cache
from repro.cache import LRU

SRC = Path(__file__).resolve().parents[1] / "src"


class Doc:
    """A versioned object, as ``Sheet`` is to the per-sheet caches."""

    def __init__(self) -> None:
        self.version = 0


def versioned(max_entries: int) -> LRU:
    return LRU("test", max_entries, token_of=attrgetter("version"))


class TestBoundsAndOrder:
    def test_entry_bound_evicts_least_recently_used(self):
        lru = LRU("test", 3)
        for key in "abc":
            assert lru.put(key, key.upper()) == key.upper()
        assert lru.get("a") == "A"  # a touch refreshes recency ...
        lru.put("d", "D")
        assert lru.get("b") is None  # ... so the other oldest entry went
        assert len(lru) == 3
        assert lru.values() == ["C", "A", "D"]  # least recently used first
        for key in "efghij":
            lru.put(key, key.upper())
            assert len(lru) == 3
        assert lru.values() == ["H", "I", "J"]

    def test_weight_budget_evicts_beside_the_entry_bound(self):
        lru = LRU("test", 100, max_bytes=1000)
        blocks = [np.zeros(100, dtype=np.float32) for __ in range(4)]  # 400 B each
        for index, block in enumerate(blocks[:3]):
            lru.put(index, block)
        assert len(lru) == 2 and lru.stats()["bytes"] == 800
        assert lru.get(0) is None and lru.get(1) is blocks[1]
        lru.put(3, blocks[3])  # 2 was least recently used
        assert lru.values() == [blocks[1], blocks[3]]
        assert lru.stats()["bytes"] == 800 and lru.stats()["evict"] == 2
        assert "bytes" not in LRU("test", 1).stats()

    def test_clear_empties_and_keeps_the_counts(self):
        lru = LRU("test", 4, max_bytes=1 << 20)
        lru.put("a", np.zeros(8))
        assert lru.get("a") is not None
        lru.clear()
        assert len(lru) == 0 and lru.get("a") is None
        assert lru.stats() == {"hit": 1, "miss": 1, "evict": 0, "size": 0, "bytes": 0}

    @pytest.mark.parametrize("kwargs", [{"max_entries": 0}, {"max_entries": 4, "max_bytes": 0}])
    def test_bounds_must_be_positive(self, kwargs):
        with pytest.raises(ValueError):
            LRU("test", **kwargs)


class TestValidityToken:
    def test_token_mismatch_is_a_miss_and_drops_the_entry(self):
        lru, doc = versioned(4), Doc()
        assert lru.put(doc, "v0") == "v0"
        assert lru.get(doc) == "v0"
        doc.version += 1  # mutated in place
        assert lru.get(doc) is None
        assert len(lru) == 0
        assert lru.stats() == {"hit": 1, "miss": 1, "evict": 1, "size": 0}
        assert lru.put(doc, "v1") == "v1" and lru.get(doc) == "v1"

    def test_put_over_a_stale_entry_replaces_it(self):
        lru, doc = versioned(4), Doc()
        lru.put(doc, "v0")
        doc.version += 1
        assert lru.put(doc, "v1") == "v1"
        assert len(lru) == 1 and lru.get(doc) == "v1"
        assert lru.stats()["evict"] == 1

    def test_keys_are_held_by_identity_and_pinned(self):
        """An entry keeps its key alive, so no later object can be handed
        the key's ``id()`` and alias the entry."""
        lru = versioned(2)
        doc = Doc()
        ref, key_id = weakref.ref(doc), id(doc)
        lru.put(doc, "first")
        del doc
        gc.collect()
        assert ref() is not None  # pinned by the entry
        strangers = [Doc() for __ in range(2000)]
        assert key_id not in {id(stranger) for stranger in strangers}
        assert all(lru.get(stranger) is None for stranger in strangers[:50])
        assert lru.get(ref()) == "first"
        lru.put(strangers[0], "x")
        lru.put(strangers[1], "y")  # the bound evicts the first key ...
        gc.collect()
        assert ref() is None  # ... and releases it

    def test_equal_keys_are_distinct_objects_to_a_versioned_cache(self):
        class Same(Doc):
            def __eq__(self, other):
                return True

            def __hash__(self):
                return 0

        lru = versioned(4)
        left, right = Same(), Same()
        lru.put(left, "left")
        assert lru.get(right) is None and lru.get(left) == "left"


class TestCounts:
    def test_counts_are_exact_over_a_scripted_stream(self):
        """``hit + miss`` == lookups and ``evict`` == inserts - size, with
        bound evictions, stale drops and stale replacements all in play."""
        rng = random.Random(7)
        lru = versioned(5)
        docs = [Doc() for __ in range(12)]
        lookups = inserts = 0
        for __ in range(4000):
            doc = rng.choice(docs)
            roll = rng.random()
            if roll < 0.05:
                doc.version += 1
            elif roll < 0.6:
                lookups += 1
                lru.get(doc)
            else:
                value = object()
                inserts += lru.put(doc, value) is value
        stats = lru.stats()
        assert stats["hit"] + stats["miss"] == lookups
        assert stats["hit"] > 0 and stats["miss"] > 0
        assert stats["evict"] == inserts - stats["size"] > 0
        assert stats["size"] == len(lru) == 5

    def test_get_many_equals_the_same_gets_made_one_by_one(self):
        """One transaction, same outcome: values, counts, the entries a stale
        token drops and the recency order eviction follows — for plain keys
        and for versioned ones, repeated keys included."""
        rng = random.Random(11)
        docs = [Doc() for __ in range(10)]
        for make, keys in (
            (lambda: LRU("test", 6), list(range(10))),
            (lambda: versioned(6), docs),
        ):
            one_by_one, bulk = make(), make()
            for __ in range(300):
                batch = [rng.choice(keys) for __ in range(rng.randrange(0, 9))]
                expected = [one_by_one.get(key) for key in batch]
                assert bulk.get_many(batch) == expected
                for key, value in zip(batch, expected):
                    if value is None and rng.random() < 0.7:
                        filled = object()
                        assert one_by_one.put(key, filled) is bulk.put(key, filled)
                if keys is docs and rng.random() < 0.3:
                    rng.choice(docs).version += 1
                assert bulk.values() == one_by_one.values()
                assert bulk.stats() == one_by_one.stats()
            assert bulk.stats()["hit"] > 100 and bulk.stats()["evict"] > 10
        assert LRU("test", 1).get_many([]) == []

    def test_racing_threads_converge_on_one_resident_value(self):
        """12 threads fill the same misses: ``put`` hands every one of them
        the one resident array, answers equal serial, counts stay exact."""
        n_threads, keys = 12, list(range(40))
        lru = LRU("test", len(keys))
        seen = [[None] * len(keys) for __ in range(n_threads)]
        barrier = threading.Barrier(n_threads)
        errors = []

        def compute(key):
            return np.full(16, key, dtype=np.float32)  # a fresh array per call

        def worker(slot):
            try:
                barrier.wait(timeout=30)
                for __ in range(3):
                    for key in keys:
                        value = lru.get(key)
                        if value is None:
                            value = lru.put(key, compute(key))
                        seen[slot][key] = value
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for key in keys:
            winners = {id(seen[slot][key]) for slot in range(n_threads)}
            assert len(winners) == 1  # one array object won
            assert np.array_equal(seen[0][key], compute(key))
        stats = lru.stats()
        assert stats["hit"] + stats["miss"] == n_threads * 3 * len(keys)
        assert stats["miss"] >= len(keys) and stats["evict"] == 0 and stats["size"] == len(keys)


class TestProcessWideStats:
    def test_stats_sum_live_instances_by_name(self):
        name = f"test-{uuid.uuid4().hex}"
        first, second = LRU(name, 4), LRU(name, 4, max_bytes=1 << 20)
        first.put("a", 1)
        first.get("a")
        first.get("b")
        second.put("a", np.zeros(4, dtype=np.float32))
        second.get("a")
        assert cache.stats()[name] == {"hit": 2, "miss": 1, "evict": 0, "size": 2, "bytes": 16}
        del second
        gc.collect()
        assert cache.stats()[name] == {"hit": 1, "miss": 1, "evict": 0, "size": 1}
        del first
        gc.collect()
        assert name not in cache.stats()

    def test_the_program_memos_report_every_call(self):
        """Formula trees, token hashes and the featurizer's shared parts are
        :func:`memoized`: each reports under its name, ``hit + miss`` moves
        by the calls made, and a repeat hands back the resident object."""
        from repro.embedding.hashed import _stable_hash
        from repro.features.cell_features import _pattern_part, _style_part
        from repro.formula import parse_formula
        from repro.sheet import CellStyle

        calls = {
            "parsed_formulas": (parse_formula, "=SUM(B1:B9)*2"),
            "token_hashes": (_stable_hash, "qzx"),
            "pattern_features": (_pattern_part, "LLL-DD"),
            "style_features": (_style_part, CellStyle(italic=True, font_size=9.0)),
        }
        before = cache.stats()
        for function, argument in calls.values():
            first = function(argument)
            assert all(function(argument) is first for __ in range(4))
        after = cache.stats()
        for name in calls:
            moved = {field: after[name][field] - before[name][field] for field in ("hit", "miss")}
            assert moved["hit"] + moved["miss"] == 5 and moved["hit"] >= 4, name
            assert set(after[name]) == {"hit", "miss", "evict", "size"}


def test_no_other_module_hand_rolls_an_lru():
    """The structural half of "one implementation": nothing in ``src/``
    outside ``repro/cache.py`` builds an ``OrderedDict`` or pops one."""
    pattern = re.compile(r"OrderedDict\(|\.popitem\(|\.move_to_end\(")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "repro" / "cache.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
