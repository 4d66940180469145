"""Columnar injection log: bulk and scalar queries, mixed in any order.

Whatever mix of bulk and scalar calls reaches an injector — sites
repeated within a call, across calls, or through both paths — its draws
must be bitwise the scalar draws, and its log, counts and ``faults.*``
counters must be those of a reference that queries each distinct site
once, through the scalar path, in order of first occurrence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultConfig, FaultInjector
from repro.gpu import SegmentKind
from repro.obs.counters import get_counter, reset_counters

#: One config per dimension, probabilities strictly inside (0, 1).
CONFIGS = {
    "slot_multiplier": dict(
        straggler_prob=0.4, straggler_severity=0.5, clock_skew=0.2
    ),
    "preempt_penalty": dict(preempt_prob=0.45, preempt_penalty_cycles=50.0),
    "mem_jitter": dict(mem_jitter=0.3),
    "signal_delay": dict(signal_delay_prob=0.5, signal_delay_cycles=100.0),
    "signal_drop": dict(signal_drop_prob=0.3),
}
PAIRS = ("preempt_penalty", "mem_jitter")


def _ids(dim, site):
    """Site index -> the dimension's site ids (pairs reuse CTAs)."""
    return (site % 4, site // 4) if dim in PAIRS else (site,)


def _base(cta, segment):
    """A site's own base cycles (a function of the site, as in a schedule)."""
    return 100.0 + 7.0 * cta + segment


def _scalar(inj, dim, ids):
    if dim == "slot_multiplier":
        return inj.slot_multiplier(*ids)
    if dim == "preempt_penalty":
        # Slot multiplier is exactly 1.0 here: the result is base + penalty.
        return inj.segment_cycles(*ids, SegmentKind.COMPUTE, _base(*ids), 0)
    if dim == "mem_jitter":
        return inj.mem_latency_multiplier(*ids, SegmentKind.FIXUP)
    if dim == "signal_delay":
        return inj.signal_delay(*ids)
    return inj.signal_dropped(*ids)


def _bulk(inj, dim, sites):
    cols = [np.array(c, dtype=np.int64) for c in zip(*sites)] or [
        np.array([], dtype=np.int64)
    ] * (2 if dim in PAIRS else 1)
    if dim == "preempt_penalty":
        base = np.array([_base(*ids) for ids in sites], dtype=np.float64)
        pen = inj.draws_for_sites(dim, *cols, base_cycles=base)
        return (base + pen).tolist()
    return inj.draws_for_sites(dim, *cols).tolist()


calls = st.lists(
    st.tuples(st.booleans(), st.lists(st.integers(0, 11), max_size=12)),
    min_size=1,
    max_size=5,
)


class TestMixedQueries:
    @pytest.mark.parametrize("dim", sorted(CONFIGS))
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32), calls=calls)
    def test_property_matches_per_site_reference(self, dim, seed, calls):
        reset_counters()
        config = FaultConfig(seed=seed, **CONFIGS[dim])
        inj = FaultInjector(config)
        queried, first_seen = [], []
        for bulk, sites in calls:
            sites = [_ids(dim, s) for s in sites]
            if bulk:
                got = _bulk(inj, dim, sites)
            else:
                got = [_scalar(inj, dim, ids) for ids in sites]
            queried.append((sites, got))
            first_seen += [ids for ids in sites if ids not in first_seen]
        counts = inj.injection_counts()
        for kind, n in counts.items():
            assert get_counter("faults.%s" % kind) == n
        assert sum(counts.values()) == len(inj.log)

        for sites, got in queried:
            draws = FaultInjector(config)
            assert got == [_scalar(draws, dim, ids) for ids in sites]
        ref = FaultInjector(config)
        for ids in first_seen:
            _scalar(ref, dim, ids)
        assert len(inj.log) == len(ref.log)
        assert inj.log == ref.log
        assert counts == ref.injection_counts()
        assert list(counts) == list(ref.injection_counts())

    def test_log_is_built_on_read(self):
        inj = FaultInjector(FaultConfig(seed=3, **CONFIGS["mem_jitter"]))
        inj.draws_for_sites("mem_jitter", np.arange(6), np.zeros(6, np.int64))
        first = inj.log
        assert len(first) == 6 and inj.log == first
        first.clear()  # a copy: mutating it leaves the injector's log
        assert len(inj.log) == 6
        assert inj.injection_counts() == {"mem_jitter": 6}


class TestSiteIds:
    """Ids whose site key could collide are rejected, never wrapped."""

    @pytest.mark.parametrize("bad", [-1, 2**31, 2**40])
    def test_scalar_rejects(self, bad):
        inj = FaultInjector(FaultConfig(seed=1, **CONFIGS["mem_jitter"]))
        with pytest.raises(ConfigurationError):
            inj.mem_latency_multiplier(bad, 0, SegmentKind.FIXUP)
        with pytest.raises(ConfigurationError):
            inj.mem_latency_multiplier(0, bad, SegmentKind.FIXUP)

    @pytest.mark.parametrize("bad", [-1, 2**31, 2**63, 2**64 - 1])
    def test_bulk_rejects(self, bad):
        inj = FaultInjector(FaultConfig(seed=1, **CONFIGS["signal_drop"]))
        ids = np.array([0, bad], dtype=np.uint64 if bad >= 2**63 else np.int64)
        with pytest.raises(ConfigurationError):
            inj.draws_for_sites("signal_drop", ids)
        with pytest.raises(ConfigurationError):
            inj.draws_for_sites("signal_drop", [0, bad])
        assert inj.log == []

    def test_largest_ids_are_distinct_sites(self):
        top = 2**31 - 1
        inj = FaultInjector(FaultConfig(seed=1, **CONFIGS["mem_jitter"]))
        inj.draws_for_sites(
            "mem_jitter", np.array([top, top, 0]), np.array([top, 0, top])
        )
        assert len(inj.log) == 3
