"""Tests for the process-local pattern memoization in the ATA registry."""

from repro.arch import grid, heavyhex, line
from repro.ata.base import GATE
from repro.ata.executor import K_CPHASE, K_SWAP, compiled_cycles
from repro.ata.registry import (clear_pattern_cache, get_pattern,
                                pattern_cache_info, pattern_cache_key)


class TestPatternCache:
    def test_identical_architectures_share_a_pattern(self):
        clear_pattern_cache()
        first = get_pattern(grid(3, 3))
        second = get_pattern(grid(3, 3))
        assert second is first
        assert pattern_cache_info() == {"hits": 1, "misses": 1, "size": 1}

    def test_uncached_request_builds_fresh(self):
        clear_pattern_cache()
        cached = get_pattern(line(6))
        fresh = get_pattern(line(6), cached=False)
        assert fresh is not cached
        assert pattern_cache_info()["hits"] == 0  # cached=False bypasses

    def test_key_distinguishes_kinds_and_sizes(self):
        keys = {pattern_cache_key(grid(3, 3)),
                pattern_cache_key(grid(3, 4)),
                pattern_cache_key(line(9)),
                pattern_cache_key(heavyhex(2, 6))}
        assert len(keys) == 4

    def test_cached_pattern_schedule_matches_fresh(self):
        clear_pattern_cache()
        coupling = grid(3, 3)
        cached = get_pattern(coupling)
        fresh = get_pattern(coupling, cached=False)
        generated = [tuple((K_CPHASE if action == GATE else K_SWAP, u, v)
                           for action, u, v in cycle)
                     for cycle in fresh.cycles()]
        assert [ops for _, ops in compiled_cycles(cached)] == generated
        # The registry hands back the instance, and with it the cached
        # cycle list.
        assert compiled_cycles(get_pattern(coupling)) is \
            compiled_cycles(cached)
