"""Stream-K++ adaptive selector: the two selection policies.

* **Analytic parity** — the default policy is *bitwise identical* to
  plain :func:`plan_query` on every GPU preset, on a shape's first
  visit and on its repeat (provenance excluded by plan equality, like
  every cache tier).
* **Oracle policy** — the ensemble policy's winner is never slower than
  the analytic one and carries the same analytic plan.

Plus the winner table those rest on: a repeat is served from the table
without running the policy again, and the table holds one entry per
distinct shape.
"""

from repro.ensembles.adaptive import (
    AdaptiveSelector,
    analytic_evaluator,
    ensemble_evaluator,
)
from repro.gemm.dtypes import get_dtype_config
from repro.gpu.spec import available_gpus, resolve_gpu
from repro.obs.counters import get_counter, reset_counters
from repro.plan.core import plan_query

_DTYPE = get_dtype_config("fp16_fp32")

# Shapes crossing all three planning regimes on every preset.
_SHAPES = [
    (512, 512, 512),
    (640, 384, 2048),
    (96, 96, 7168),
    (3072, 3072, 256),
]


def _selector(gpu_name="a100", evaluator=None):
    return AdaptiveSelector(_DTYPE, resolve_gpu(gpu_name), evaluator)


class TestZeroCapacityParity:
    """The analytic policy serves exactly what a selector with no table
    at all would: every plan equals a cold ``plan_query``."""

    def test_bitwise_identical_to_plan_query_on_all_presets(self):
        for gpu_name in available_gpus():
            gpu = resolve_gpu(gpu_name)
            selector = AdaptiveSelector(_DTYPE, gpu)
            for visit, source in ((1, "model"), (2, "winner")):
                for m, n, k in _SHAPES:
                    sel = selector.select(m, n, k)
                    assert sel.source == source, (gpu_name, visit)
                    assert sel.plan == plan_query(m, n, k, _DTYPE, gpu), (
                        "analytic policy diverged from plan_query for %s "
                        "on %s (visit %d)" % ((m, n, k), gpu_name, visit)
                    )


class TestSelectorMechanics:
    def test_repeat_shape_served_from_winner_table(self):
        reset_counters()
        selector = _selector()
        first = selector.select(*_SHAPES[0])
        second = selector.select(*_SHAPES[0])
        assert first.source == "model" and second.source == "winner"
        assert first.winner == second.winner
        assert get_counter("adaptive.hit") == 1
        assert get_counter("adaptive.miss") == 1

    def test_policy_runs_once_per_distinct_shape(self):
        calls = []
        policy = analytic_evaluator(_DTYPE, resolve_gpu("a100"))

        def counting(m, n, k):
            calls.append((m, n, k))
            return policy(m, n, k)

        selector = _selector(evaluator=counting)
        for _ in range(3):
            for m, n, k in _SHAPES:
                selector.select(m, n, k)
        assert calls == _SHAPES
        assert len(selector) == len(_SHAPES)

    def test_ensemble_winner_never_slower_than_analytic(self):
        gpu = resolve_gpu("a100")
        ens = _selector(evaluator=ensemble_evaluator(_DTYPE, gpu))
        ana = _selector(evaluator=analytic_evaluator(_DTYPE, gpu))
        for m, n, k in _SHAPES:
            w_ens = ens.select(m, n, k).winner
            w_ana = ana.select(m, n, k).winner
            assert w_ens.time_s <= w_ana.time_s
            # Both policies attach the same analytic plan.
            assert w_ens.plan == w_ana.plan
