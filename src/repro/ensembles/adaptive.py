"""Stream-K++ adaptive selection: a winner table over two policies.

Stream-K++ (PAPERS.md, arxiv 2408.11417) observes that production GEMM
traffic is dominated by repeat shapes, and splits selection
accordingly: repeats go straight to a remembered *winner* (schedule
family + grid size), and only novel shapes pay for evaluation.  The
paper puts a probabilistic membership filter ahead of its table
because a miss there is a kernel-library lookup; here the table is a
dict, so one exact lookup is the whole fast path.  This module is that
reproduction on top of the repo's planning layer:

* :class:`AdaptiveSelector` — an exact-keyed winner dict per
  ``(dtype, gpu)``.  A repeat shape is served from the table; a novel
  shape runs the selection policy once and is remembered.  The table
  holds one entry per distinct shape it has seen.
* Policies — what a miss pays.  :func:`analytic_evaluator` (the
  default) runs just the planning arithmetic, so its winner's plan is
  bitwise :func:`~repro.plan.core.plan_query`;
  :func:`ensemble_evaluator` (the oracle policy) additionally measures
  every cuBLAS-style variant and remembers whichever of {Stream-K
  plan, ensemble variant} is fastest — the oracle-quality first visit
  that makes repeat-shape regret zero.
* :func:`replay_adaptive` — the ``repro adapt`` engine: replays a
  deterministic Zipf trace and reports hit rate, hit-path selection
  latency vs cold ``plan_query``, and per-strategy regret (adaptive /
  pure-analytic / cuBLAS heuristic, each against the oracle makespan).

Counters (:mod:`repro.obs.counters`): ``adaptive.hit`` /
``adaptive.miss`` (winner served vs policy run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..gemm.dtypes import DtypeConfig, get_dtype_config
from ..gemm.problem import GemmProblem
from ..gpu.spec import DEFAULT_GPU_NAME, GpuSpec, resolve_gpu
from ..model.paramcache import calibrate_cached
from ..gemm.tiling import Blocking
from ..obs.counters import inc_counter
from ..plan.core import Plan, plan_query
from .cublas import cublas_select, cublas_variants
from .kernels import variant_time_s

__all__ = [
    "AdaptiveSelector",
    "Selection",
    "Winner",
    "analytic_evaluator",
    "ensemble_evaluator",
    "replay_adaptive",
]

#: Default precision (mirrors the serving layer's default).
_DEFAULT_DTYPE_NAME = "fp16_fp32"


@dataclass(frozen=True)
class Winner:
    """The remembered decision for one shape: family, grid size, time.

    ``family`` is a plan kind (:data:`repro.plan.core.KIND_NAMES`) or an
    ensemble variant name; ``time_s`` is the winner's predicted kernel
    time — by construction of :func:`ensemble_evaluator`, the *oracle*
    makespan for that shape.  ``plan`` carries the full analytic plan
    alongside (excluded from equality, like plan provenance).
    """

    family: str
    g: int
    time_s: float
    plan: "Plan | None" = field(default=None, compare=False)


@dataclass(frozen=True)
class Selection:
    """One :meth:`AdaptiveSelector.select` outcome."""

    m: int
    n: int
    k: int
    winner: Winner
    #: ``"winner"`` for a winner-table hit, ``"model"`` for a fresh
    #: policy run (novel shape).
    source: str

    @property
    def plan(self) -> "Plan | None":
        """The analytic plan riding with the winner (may be ``None``
        only for custom evaluators that do not attach one)."""
        return self.winner.plan


# --------------------------------------------------------------------- #
# Evaluators: what a miss pays                                          #
# --------------------------------------------------------------------- #


def analytic_evaluator(dtype: DtypeConfig, gpu: GpuSpec, params=None):
    """Miss path = one :func:`plan_query`: pure planning arithmetic.

    The winner is the plan's own (kind, g, time) — the default policy,
    where a miss must stay cheap.
    """
    if params is None:
        params = calibrate_cached(
            gpu, Blocking(*dtype.default_blocking), dtype
        )

    def evaluate(m: int, n: int, k: int) -> Winner:
        plan = plan_query(m, n, k, dtype, gpu, params=params)
        return Winner(family=plan.kind, g=plan.g, time_s=plan.time_s, plan=plan)

    return evaluate


def ensemble_evaluator(dtype: DtypeConfig, gpu: GpuSpec, params=None):
    """Miss path = plan *and* measure the whole cuBLAS-style ensemble.

    Every variant is priced with :func:`variant_time_s`; the remembered
    winner is the fastest of {Stream-K plan, ensemble variants} (ties
    go to Stream-K), i.e. the oracle decision for that shape — which is
    exactly why adaptive repeat-shape regret is zero.  Expensive first
    visit, oracle-quality repeats: the Stream-K++ trade.
    """
    if params is None:
        params = calibrate_cached(
            gpu, Blocking(*dtype.default_blocking), dtype
        )
    variants = cublas_variants(dtype)

    def evaluate(m: int, n: int, k: int) -> Winner:
        plan = plan_query(m, n, k, dtype, gpu, params=params)
        family, g, best = plan.kind, plan.g, plan.time_s
        problem = GemmProblem(m, n, k, dtype=dtype)
        for variant in variants:
            t = variant_time_s(variant, problem, gpu)
            if t < best:
                family, g, best = variant.name, variant.s, t
        return Winner(family=family, g=g, time_s=best, plan=plan)

    return evaluate


# --------------------------------------------------------------------- #
# The selector                                                          #
# --------------------------------------------------------------------- #


class AdaptiveSelector:
    """Winner table with a selection policy on a miss (Stream-K++).

    :meth:`select` serves a repeat shape from the exact-keyed table,
    and on a novel shape runs the policy (``evaluator``; default
    :func:`analytic_evaluator`) once and remembers its winner.  One
    selector serves one ``(dtype, gpu)`` pair; it is not thread-safe.
    """

    def __init__(
        self,
        dtype: "DtypeConfig | str",
        gpu: "GpuSpec | str",
        evaluator=None,
    ):
        self.dtype = (
            get_dtype_config(dtype) if isinstance(dtype, str) else dtype
        )
        self.gpu = resolve_gpu(gpu)
        self._winners: "dict[tuple[int, int, int], Winner]" = {}
        self._evaluate = evaluator or analytic_evaluator(self.dtype, self.gpu)

    def select(self, m: int, n: int, k: int) -> Selection:
        """Serve a repeat from the winner table or evaluate and remember."""
        key = (int(m), int(n), int(k))
        winner = self._winners.get(key)
        if winner is not None:
            inc_counter("adaptive.hit")
            return Selection(*key, winner, source="winner")
        inc_counter("adaptive.miss")
        winner = self._winners[key] = self._evaluate(*key)
        return Selection(*key, winner, source="model")

    def __len__(self) -> int:
        return len(self._winners)


# --------------------------------------------------------------------- #
# Replay: the `repro adapt` engine                                      #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class AdaptiveReplayConfig:
    """Knobs of one ``repro adapt`` replay (deterministic given seed)."""

    requests: int = 20000
    universe: int = 512
    zipf_s: float = 1.1
    seed: int = 0
    dtype: str = _DEFAULT_DTYPE_NAME
    gpu: str = DEFAULT_GPU_NAME
    #: ``"ensemble"`` (oracle-quality first visit, the Stream-K++ mode)
    #: or ``"analytic"`` (planning arithmetic only).
    evaluator: str = "ensemble"

    def __post_init__(self) -> None:
        if self.requests <= 0 or self.universe <= 0:
            raise ConfigurationError("requests and universe must be positive")
        if self.evaluator not in ("ensemble", "analytic"):
            raise ConfigurationError(
                "evaluator must be 'ensemble' or 'analytic', got %r"
                % (self.evaluator,)
            )


def _pct_us(values, q):
    return float(np.percentile(values, q)) * 1e6 if len(values) else None


def replay_adaptive(config: "AdaptiveReplayConfig | None" = None) -> dict:
    """Replay a Zipf trace through the adaptive selector and report.

    The report (the JSON behind ``repro adapt --out`` and the payload
    ``bench_adaptive`` aggregates) covers the three headline claims:

    * **hit rate** — fraction of requests served from the winner table;
    * **selection latency** — hit-path p50/p99 vs the *cold*
      ``plan_query`` p50/p99 (measured per distinct universe shape, no
      cache anywhere) — the >=5x contract;
    * **regret** — mean/p99 of ``(chosen - oracle) / oracle`` per
      request for adaptive, the pure-analytic path, and the
      cuBLAS-style heuristic.  The oracle is the fastest of {Stream-K
      plan, every ensemble variant} per shape — what
      :func:`ensemble_evaluator` remembers, so adaptive regret is zero
      by construction in ensemble mode.
    """
    from ..plan.loadgen import LoadgenConfig, zipf_trace

    config = config or AdaptiveReplayConfig()
    dtype = get_dtype_config(config.dtype)
    gpu = resolve_gpu(config.gpu)
    params = calibrate_cached(
        gpu, Blocking(*dtype.default_blocking), dtype
    )
    make = ensemble_evaluator if config.evaluator == "ensemble" else analytic_evaluator
    selector = AdaptiveSelector(
        dtype, gpu, evaluator=make(dtype, gpu, params=params)
    )

    trace = zipf_trace(
        LoadgenConfig(
            requests=config.requests,
            universe=config.universe,
            zipf_s=config.zipf_s,
            seed=config.seed,
            dtype=config.dtype,
            gpu=config.gpu,
        )
    )

    # Cold plan_query latency per distinct universe shape: the baseline
    # every repeat-shape request would pay without the adaptive layer.
    universe = np.unique(trace, axis=0)
    cold_lat = []
    for m, n, k in universe:
        t0 = time.perf_counter()
        plan_query(int(m), int(n), int(k), dtype, gpu, params=params)
        cold_lat.append(time.perf_counter() - t0)

    hit_lat, miss_lat = [], []
    oracle_by_shape: "dict[tuple[int, int, int], float]" = {}
    cublas_by_shape: "dict[tuple[int, int, int], float]" = {}
    analytic_by_shape: "dict[tuple[int, int, int], float]" = {}
    regret_adaptive, regret_analytic, regret_cublas = [], [], []
    for row in trace:
        m, n, k = (int(row[0]), int(row[1]), int(row[2]))
        t0 = time.perf_counter()
        sel = selector.select(m, n, k)
        dt = time.perf_counter() - t0
        (hit_lat if sel.source == "winner" else miss_lat).append(dt)

        shape = (m, n, k)
        if shape not in oracle_by_shape:
            # The evaluator's winner *is* the oracle in ensemble mode;
            # in analytic mode price the ensemble once for honest regret.
            if config.evaluator == "ensemble":
                oracle = sel.winner.time_s
            else:
                problem = GemmProblem(m, n, k, dtype=dtype)
                oracle = min(
                    [sel.winner.plan.time_s]
                    + [
                        variant_time_s(v, problem, gpu)
                        for v in cublas_variants(dtype)
                    ]
                )
            oracle_by_shape[shape] = oracle
            analytic_by_shape[shape] = (
                sel.winner.plan.time_s
                if sel.winner.plan is not None
                else sel.winner.time_s
            )
            cublas_by_shape[shape] = cublas_select(
                GemmProblem(m, n, k, dtype=dtype), gpu
            ).time_s
        oracle = oracle_by_shape[shape]
        regret_adaptive.append((sel.winner.time_s - oracle) / oracle)
        regret_analytic.append((analytic_by_shape[shape] - oracle) / oracle)
        regret_cublas.append((cublas_by_shape[shape] - oracle) / oracle)

    completed = len(hit_lat) + len(miss_lat)
    hit_p99 = _pct_us(hit_lat, 99)
    cold_p99 = _pct_us(cold_lat, 99)
    return {
        "requests": config.requests,
        "universe": config.universe,
        "distinct_shapes": int(universe.shape[0]),
        "zipf_s": config.zipf_s,
        "seed": config.seed,
        "dtype": config.dtype,
        "gpu": config.gpu,
        "evaluator": config.evaluator,
        "hits": len(hit_lat),
        "misses": len(miss_lat),
        "hit_rate": (len(hit_lat) / completed) if completed else None,
        "hit_p50_us": _pct_us(hit_lat, 50),
        "hit_p99_us": hit_p99,
        "miss_p50_us": _pct_us(miss_lat, 50),
        "miss_p99_us": _pct_us(miss_lat, 99),
        "cold_plan_p50_us": _pct_us(cold_lat, 50),
        "cold_plan_p99_us": cold_p99,
        "p99_speedup_hit_vs_cold": (
            cold_p99 / hit_p99 if hit_p99 and cold_p99 else None
        ),
        "regret": {
            "adaptive_mean": float(np.mean(regret_adaptive)),
            "adaptive_p99": float(np.percentile(regret_adaptive, 99)),
            "analytic_mean": float(np.mean(regret_analytic)),
            "analytic_p99": float(np.percentile(regret_analytic, 99)),
            "cublas_mean": float(np.mean(regret_cublas)),
            "cublas_p99": float(np.percentile(regret_cublas, 99)),
        },
        "winners": len(selector),
    }
