"""Counters registry: increments, merge, hit rates, report."""

import ast
import pathlib
import re

import pytest

import repro
from repro.obs import counters
from repro.obs.counters import (
    counters_report,
    get_counter,
    hit_rate,
    inc_counter,
    merge_counters,
    reset_counters,
    snapshot_counters,
)


class TestBasics:
    def test_inc_and_get(self):
        assert get_counter("x") == 0
        assert inc_counter("x") == 1
        assert inc_counter("x", 4) == 5
        assert get_counter("x") == 5

    def test_snapshot_and_merge_are_additive(self):
        inc_counter("a", 2)
        snap = snapshot_counters()
        reset_counters()
        inc_counter("a", 1)
        inc_counter("b", 7)
        merge_counters(snap)
        assert get_counter("a") == 3
        assert get_counter("b") == 7

    def test_reset(self):
        inc_counter("x")
        reset_counters()
        assert get_counter("x") == 0
        assert snapshot_counters() == {}


class TestHitRate:
    def test_none_when_empty(self):
        assert hit_rate("paramcache") is None

    def test_memo_and_disk_hits_both_count(self):
        inc_counter("paramcache.memo_hit", 2)
        inc_counter("paramcache.disk_hit", 1)
        inc_counter("paramcache.miss", 1)
        assert hit_rate("paramcache") == pytest.approx(0.75)

    def test_byte_volume_counters_excluded(self):
        inc_counter("l2sim.fragment.hit", 1)
        inc_counter("l2sim.fragment.miss", 1)
        inc_counter("l2sim.fragment.hit_bytes", 10**9)
        inc_counter("l2sim.fragment.miss_bytes", 10**9)
        assert hit_rate("l2sim.fragment") == pytest.approx(0.5)

    def test_prefix_is_exact_component(self):
        inc_counter("evalcache.memo_hit")
        assert hit_rate("eval") is None  # "eval" != "evalcache"


class TestReport:
    def test_empty(self):
        assert "no counters" in counters_report()

    def test_values_and_derived_rates(self):
        inc_counter("executor.runs", 3)
        inc_counter("evalcache.memo_hit", 1)
        inc_counter("evalcache.miss", 1)
        rep = counters_report()
        assert "executor.runs" in rep and "3" in rep
        assert "evalcache hit rate" in rep
        assert "50.0%" in rep


class TestCounterTable:
    """The module docstring's table documents every durable-store,
    sweep, serve and adaptive counter the code emits, and nothing it no
    longer emits."""

    PREFIXES = (
        "journal", "fabric", "harness", "evalcache", "paramcache", "plancache",
        "serve", "adaptive",
    )

    @staticmethod
    def _documented():
        names = set()
        for row in re.findall(r"^``([a-z0-9_.|]+)``", counters.__doc__, re.M):
            first, *rest = row.split("|")
            stem = first.rsplit(".", 1)[0]
            names.add(first)
            names.update("%s.%s" % (stem, leaf) for leaf in rest)
        return names

    @staticmethod
    def _emitted():
        """String literals passed to ``inc_counter`` or ``quarantine``
        (which bumps the counter it is given) anywhere under src/repro."""
        names = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                called = fn.id if isinstance(fn, ast.Name) else getattr(
                    fn, "attr", None
                )
                if called not in ("inc_counter", "quarantine"):
                    continue
                names.update(
                    a.value for a in node.args
                    if isinstance(a, ast.Constant) and isinstance(a.value, str)
                )
        return names

    def _scoped(self, names):
        return {n for n in names if n.split(".", 1)[0] in self.PREFIXES}

    def test_shorthand_expands(self):
        documented = self._documented()
        assert {"paramcache.memo_hit", "paramcache.disk_hit",
                "paramcache.miss"} <= documented

    def test_every_emitted_counter_has_a_row(self):
        missing = self._scoped(self._emitted()) - self._documented()
        assert not missing, sorted(missing)

    def test_every_row_is_still_emitted(self):
        stale = self._scoped(self._documented()) - self._emitted()
        assert not stale, sorted(stale)
