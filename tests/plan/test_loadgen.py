"""Zipf load generator: deterministic traces, faithful reports."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.plan import (
    LoadgenConfig,
    PlanServer,
    PlanService,
    ServeConfig,
    run_loadgen,
    zipf_trace,
)


class TestTrace:
    def test_trace_is_deterministic(self):
        cfg = LoadgenConfig(requests=500, universe=64, seed=3)
        assert np.array_equal(zipf_trace(cfg), zipf_trace(cfg))

    def test_seed_changes_trace(self):
        a = zipf_trace(LoadgenConfig(requests=500, universe=64, seed=3))
        b = zipf_trace(LoadgenConfig(requests=500, universe=64, seed=4))
        assert not np.array_equal(a, b)

    def test_zipf_skew_concentrates_on_hot_ranks(self):
        cfg = LoadgenConfig(requests=4000, universe=100, zipf_s=1.1, seed=0)
        trace = zipf_trace(cfg)
        universe, counts = np.unique(trace, axis=0, return_counts=True)
        # The hottest shape must dominate a uniform draw's share.
        assert counts.max() > 5 * cfg.requests / cfg.universe
        assert trace.shape == (4000, 3)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            LoadgenConfig(requests=0)
        with pytest.raises(ConfigurationError):
            LoadgenConfig(zipf_s=-1.0)

    def test_clients_do_not_affect_the_trace(self):
        """--clients 1 vs --clients 4 replay byte-identical traces.

        Client count only shards the trace across threads; the request
        *sequence* is a pure function of (requests, universe, zipf_s,
        seed) — the replay contract behind every committed benchmark.
        """
        base = dict(requests=600, universe=64, zipf_s=1.1, seed=7)
        one = zipf_trace(LoadgenConfig(clients=1, **base))
        four = zipf_trace(LoadgenConfig(clients=4, **base))
        assert one.tobytes() == four.tobytes()


def _chi2_critical(df: int, z: float = 3.0902) -> float:
    """Chi-squared critical value via the Wilson-Hilferty cube
    approximation (keeps the test scipy-free); z=3.0902 is the normal
    99.9th percentile, i.e. alpha = 0.001."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * np.sqrt(h)) ** 3


def _zipf_buckets(cfg: LoadgenConfig, min_expected: float = 5.0):
    """(observed, expected) request counts per bucket for one trace.

    Universe rows are grouped by value (the corpus can draw duplicate
    shapes, whose rank masses merge), then low-expectation buckets are
    pooled into a tail so every chi-squared cell has expected >= 5.
    """
    from repro.corpus.generator import CorpusSpec, generate_corpus

    trace = zipf_trace(cfg)
    universe = generate_corpus(CorpusSpec(size=cfg.universe, seed=cfg.seed))
    ranks = np.arange(1, cfg.universe + 1, dtype=np.float64)
    probs = ranks ** (-cfg.zipf_s)
    probs /= probs.sum()

    groups: "dict[tuple, float]" = {}
    for i, row in enumerate(universe):
        key = tuple(int(v) for v in row)
        groups[key] = groups.get(key, 0.0) + probs[i]
    observed_by_key: "dict[tuple, int]" = {k: 0 for k in groups}
    for row in trace:
        observed_by_key[tuple(int(v) for v in row)] += 1

    observed, expected = [], []
    tail_obs, tail_exp = 0.0, 0.0
    for key, p in groups.items():
        exp = p * cfg.requests
        if exp >= min_expected:
            observed.append(observed_by_key[key])
            expected.append(exp)
        else:
            tail_obs += observed_by_key[key]
            tail_exp += exp
    if tail_exp > 0:
        observed.append(tail_obs)
        expected.append(tail_exp)
    return np.asarray(observed, dtype=np.float64), np.asarray(expected)


class TestZipfGoodnessOfFit:
    def test_trace_matches_requested_zipf_distribution(self):
        cfg = LoadgenConfig(requests=20000, universe=128, zipf_s=1.1, seed=0)
        observed, expected = _zipf_buckets(cfg)
        assert observed.sum() == cfg.requests
        np.testing.assert_allclose(expected.sum(), cfg.requests)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        critical = _chi2_critical(len(observed) - 1)
        assert chi2 < critical, (
            "trace rejects Zipf(s=%.2f): chi2 %.1f >= critical %.1f (df %d)"
            % (cfg.zipf_s, chi2, critical, len(observed) - 1)
        )

    def test_gof_holds_across_exponents(self):
        for s in (0.7, 1.1, 1.4):
            cfg = LoadgenConfig(requests=20000, universe=128, zipf_s=s, seed=0)
            observed, expected = _zipf_buckets(cfg)
            chi2 = float(((observed - expected) ** 2 / expected).sum())
            assert chi2 < _chi2_critical(len(observed) - 1), "s=%.2f" % s

    def test_negative_control_uniform_is_rejected(self):
        # The same trace against a *uniform* expectation must fail the
        # fit decisively — the statistic has teeth.
        cfg = LoadgenConfig(requests=20000, universe=128, zipf_s=1.1, seed=0)
        observed, _ = _zipf_buckets(cfg, min_expected=0.0)
        uniform = np.full(len(observed), cfg.requests / len(observed))
        chi2 = float(((observed - uniform) ** 2 / uniform).sum())
        assert chi2 > 10 * _chi2_critical(len(observed) - 1)


class TestInProcess:
    def test_report_accounts_for_every_request(self):
        report = run_loadgen(
            LoadgenConfig(requests=300, universe=16, clients=4, seed=1),
            serve_config=ServeConfig(persist=False, warm=False),
        )
        assert report["completed"] == 300 and report["failed"] == 0
        assert report["hits"] + report["misses"] == 300
        # 16 distinct shapes, 300 requests: overwhelmingly cache hits.
        assert report["hit_rate"] > 0.9
        assert report["qps"] > 0
        assert report["hit_p99_us"] > 0 and report["miss_p99_us"] > 0


class TestSocketMode:
    def test_socket_replay_matches_contract(self):
        service = PlanService(ServeConfig(persist=False, warm=False))
        server = PlanServer(service, port=0).start()
        try:
            report = run_loadgen(
                LoadgenConfig(requests=200, universe=16, clients=3, seed=2),
                connect=("127.0.0.1", server.port),
            )
        finally:
            server.stop()
        assert report["completed"] == 200 and report["failed"] == 0
        assert report["hits"] + report["misses"] == 200
        assert report["hit_rate"] > 0.8
