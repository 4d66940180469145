"""Property-based suite for the counting Bloom filter (Stream-K++).

The adaptive selector's correctness argument leans on three filter
properties, so Hypothesis pins each directly on
:class:`repro.plan.filtercache.CountingBloomFilter`:

* **No false negatives** — any inserted, un-deleted key queries ``True``,
  for every drawn (geometry, key set), including adversarially tiny
  filters where every counter saturates.
* **Delete restores** — deleting a key that was inserted on top of an
  arbitrary pre-population restores the *exact* pre-insert query results
  for every key observed, as long as no counter saturated (saturation
  deliberately freezes counters; the filter reports it, and the
  membership keys that remain inserted still never go false-negative).
* **Bounded false positives** — the rate measured on a disjoint probe
  set stays within sampling slack of the analytic occupancy bound
  ``(1 - e^{-k n / m})^k`` for the configured geometry.

Profiles come from ``tests/conftest.py``: derandomized
``dev`` (25 examples) / ``ci`` (200 examples) via ``HYPOTHESIS_PROFILE``.
"""

import math

from hypothesis import assume, given, strategies as st

from repro.plan.filtercache import (
    BloomParams,
    CountingBloomFilter,
    analytic_fp_rate,
    shape_key,
)

# Key material: arbitrary small byte strings exercise the hash paths the
# same way real shape keys do (shape_key output is just bytes).
_keys = st.binary(min_size=1, max_size=24)
_key_sets = st.sets(_keys, min_size=1, max_size=64)


@st.composite
def filter_params(draw, min_bits=1, max_bits=4096) -> BloomParams:
    """A random valid geometry, biased toward small, collision-heavy
    filters — the regime where counting mistakes would actually show."""
    return BloomParams(
        bits=draw(st.integers(min_value=min_bits, max_value=max_bits)),
        num_hashes=draw(st.integers(min_value=1, max_value=8)),
        counter_bits=draw(st.integers(min_value=1, max_value=8)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


class TestNoFalseNegatives:
    @given(params=filter_params(), keys=_key_sets)
    def test_inserted_keys_always_query_true(self, params, keys):
        f = CountingBloomFilter(params)
        for key in keys:
            f.insert(key)
        for key in keys:
            assert f.query(key), (
                "false negative for an inserted key (params=%r)" % (params,)
            )

    @given(
        params=filter_params(max_bits=8),
        keys=st.sets(_keys, min_size=16, max_size=64),
    )
    def test_no_false_negatives_even_fully_saturated(self, params, keys):
        # Tiny filter, many keys: counters are guaranteed to hit the
        # ceiling.  Saturation must never manufacture a false negative.
        f = CountingBloomFilter(params)
        for key in keys:
            f.insert(key)
        for key in keys:
            assert f.query(key)

    @given(params=filter_params(), keys=_key_sets)
    def test_deleting_other_keys_never_removes_membership(self, params, keys):
        keys = sorted(keys)
        kept, dropped = keys[: len(keys) // 2 + 1], keys[len(keys) // 2 + 1:]
        f = CountingBloomFilter(params)
        for key in keys:
            f.insert(key)
        assume(f.saturations == 0)
        for key in dropped:
            f.delete(key)
        for key in kept:
            assert f.query(key), "delete of a different key broke membership"


class TestDeleteRestores:
    @given(
        params=filter_params(),
        background=st.sets(_keys, max_size=32),
        probe=_keys,
    )
    def test_delete_restores_pre_insert_query_results(
        self, params, background, probe
    ):
        f = CountingBloomFilter(params)
        for key in background:
            f.insert(key)
        assume(f.saturations == 0)
        observed = sorted(background | {probe})
        before = [f.query(key) for key in observed]
        f.insert(probe)
        assert f.query(probe)
        f.delete(probe)
        assume(f.saturations == 0)
        assert [f.query(key) for key in observed] == before, (
            "insert+delete was not a no-op for observed queries"
        )

    @given(params=filter_params(), keys=_key_sets)
    def test_full_teardown_restores_empty_filter(self, params, keys):
        f = CountingBloomFilter(params)
        for key in keys:
            f.insert(key)
        assume(f.saturations == 0)
        for key in keys:
            f.delete(key)
        for key in keys:
            assert not f.query(key)
        assert len(f) == 0


class TestFalsePositiveBound:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_hashes=st.integers(min_value=2, max_value=6),
    )
    def test_measured_fp_rate_within_analytic_bound(self, seed, num_hashes):
        # Fixed, deliberately loaded geometry: 1024 slots, 96 keys.  The
        # probe set is disjoint by construction (distinct key prefixes).
        params = BloomParams(bits=1024, num_hashes=num_hashes, seed=seed)
        f = CountingBloomFilter(params)
        inserted = [shape_key(m, m + 1, m + 2, "fp16_fp32", "ins") for m in range(1, 97)]
        for key in inserted:
            f.insert(key)
        probes = [
            shape_key(m, m + 1, m + 2, "fp16_fp32", "probe")
            for m in range(1, 2001)
        ]
        measured = f.measured_fp_rate(probes)
        bound = analytic_fp_rate(params.bits, params.num_hashes, len(inserted))
        # Within 2x of the bound plus three-sigma binomial sampling slack
        # (the acceptance criterion's "within 2x of the analytic bound").
        slack = 3.0 * math.sqrt(bound * (1.0 - bound) / len(probes))
        assert measured <= 2.0 * bound + slack, (
            "measured FP %.4g exceeds 2x analytic bound %.4g (+%.4g slack)"
            % (measured, bound, slack)
        )

    @given(params=filter_params())
    def test_empty_filter_has_zero_fp_rate(self, params):
        f = CountingBloomFilter(params)
        probes = [shape_key(m, 2, 3, "fp32", "fp") for m in range(1, 201)]
        assert f.measured_fp_rate(probes) == 0.0
        assert f.analytic_fp_rate() == 0.0


class TestDeterminismAndDegenerate:
    @given(params=filter_params(), keys=_key_sets)
    def test_same_seed_same_filter_state(self, params, keys):
        f1, f2 = CountingBloomFilter(params), CountingBloomFilter(params)
        for key in sorted(keys):
            f1.insert(key)
            f2.insert(key)
        assert (f1._counters == f2._counters).all()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), keys=_key_sets)
    def test_zero_capacity_filter_always_misses(self, seed, keys):
        f = CountingBloomFilter(BloomParams(bits=0, seed=seed))
        for key in keys:
            f.insert(key)
            assert not f.query(key)
        assert f.memory_bytes == 0
