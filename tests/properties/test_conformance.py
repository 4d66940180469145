"""Property-based conformance suite: every schedule, any hardware.

PR 3 proved the execution protocol's invariants on the paper's A100.
This suite proves them *per spec*: Hypothesis draws random
``(m, n, k, dtype, GpuSpec)`` points — registered presets and freshly
generated custom devices alike — and asserts, for every registered
decomposition, that

* the executed trace passes :func:`check_protocol_invariants` (the
  fault-checker oracle: exact-once k-space coverage, prescribed segment
  sequences, no fixup before publication, exactly-once accumulation);
* the makespan is finite, positive, and >= the work lower bound
  ``total_iters * cycles_per_iter / total_cta_slots``;
* Stream-K's per-CTA iteration spread is <= 1 — the quantization-free
  placement the paper claims is structural, on every SM count.

Plus registry round-trip properties: any valid random spec survives
``to_json -> from_json`` exactly.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.faults.checker import check_protocol_invariants
from repro.faults.sweep import build_registered_schedule
from repro.gemm.dtypes import DTYPE_CONFIGS, get_dtype_config
from repro.gemm.problem import GemmProblem
from repro.gemm.tiling import Blocking, TileGrid
from repro.gpu.costmodel import KernelCostModel
from repro.gpu.executor import Executor
from repro.gpu.spec import GPU_PRESETS, GpuSpec
from repro.schedules.registry import DECOMPOSITION_NAMES

# Bounds keep one example's discrete-event execution cheap (at most a few
# hundred CTAs) while still crossing every scheduling regime: fewer tiles
# than SMs, perfect quantization, skewed partial waves.
_MAX_MN = 384
_MAX_K = 512

_PRESET_NAMES = sorted(GPU_PRESETS)


@st.composite
def gpu_specs(draw) -> GpuSpec:
    """A registered preset or a random custom device within valid bounds."""
    if draw(st.booleans()):
        return GPU_PRESETS[draw(st.sampled_from(_PRESET_NAMES))]
    num_sms = draw(st.integers(min_value=1, max_value=16))
    sm_bw = draw(st.sampled_from([10e9, 30e9, 45e9]))
    return GpuSpec(
        name="prop_%dsm" % num_sms,
        num_sms=num_sms,
        clock_hz=float(draw(st.sampled_from([0.5e9, 1.005e9, 1.755e9]))),
        macs_per_sm_per_cycle={
            "fp64": draw(st.sampled_from([2, 32, 64, 128])),
            "fp16_fp32": draw(st.sampled_from([256, 512, 1024, 2048])),
            "fp32": draw(st.sampled_from([64, 128, 512])),
            "bf16_fp32": draw(st.sampled_from([256, 1024, 2048])),
        },
        dram_bandwidth=float(
            num_sms * sm_bw + draw(st.sampled_from([1e11, 5e11, 1.555e12]))
        ),
        l2_bytes=draw(st.sampled_from([4, 6, 40, 50])) * 1024 * 1024,
        occupancy=draw(st.integers(min_value=1, max_value=2)),
        sm_max_bandwidth=sm_bw,
    )


@st.composite
def cases(draw):
    """One conformance case: (problem, dtype, spec) within valid bounds."""
    spec = draw(gpu_specs())
    dtype_name = draw(
        st.sampled_from(
            sorted(set(DTYPE_CONFIGS) & set(spec.macs_per_sm_per_cycle))
        )
    )
    dtype = get_dtype_config(dtype_name)
    m = draw(st.integers(min_value=1, max_value=_MAX_MN))
    n = draw(st.integers(min_value=1, max_value=_MAX_MN))
    k = draw(st.integers(min_value=1, max_value=_MAX_K))
    return GemmProblem(m, n, k, dtype=dtype), dtype, spec


def _execute(name, problem, dtype, spec):
    blocking = Blocking(*dtype.default_blocking)
    grid = TileGrid(problem, blocking)
    schedule = build_registered_schedule(name, grid, spec)
    cost = KernelCostModel(gpu=spec, blocking=blocking, dtype=dtype)
    tasks = cost.build_tasks(schedule)
    trace = Executor(spec.total_cta_slots).run(tasks)
    # The vectorized backend must reproduce the oracle bitwise on every
    # drawn (shape, dtype, spec) point; the invariant checks downstream
    # then run against the fast backend's trace, not the oracle's.
    fast = Executor(spec.total_cta_slots).run_arrays(
        cost.build_task_arrays(schedule)
    )
    assert fast.makespan == trace.makespan
    assert fast.ctas == trace.ctas
    return schedule, grid, cost, fast


class TestScheduleConformance:
    @pytest.mark.parametrize("name", DECOMPOSITION_NAMES)
    @given(case=cases())
    def test_invariants_and_makespan_bound(self, name, case):
        problem, dtype, spec = case
        schedule, grid, cost, trace = _execute(name, problem, dtype, spec)

        # The fault-checker oracle proves the protocol per (shape, spec).
        report = check_protocol_invariants(schedule, trace)
        assert report.num_tiles == grid.num_tiles

        # Work conservation: no schedule beats the iteration lower bound.
        lower = cost.cycles_per_iter * grid.total_iters / spec.total_cta_slots
        assert math.isfinite(trace.makespan)
        assert trace.makespan > 0.0
        assert trace.makespan >= lower

    @given(case=cases())
    def test_stream_k_iteration_spread_at_most_one(self, case):
        # The structural claim: Stream-K's even iteration split leaves a
        # per-CTA spread of at most one MAC-loop iteration on any device.
        problem, dtype, spec = case
        blocking = Blocking(*dtype.default_blocking)
        grid = TileGrid(problem, blocking)
        schedule = build_registered_schedule("stream_k", grid, spec)
        iters = [w.total_iters for w in schedule.work_items]
        assert max(iters) - min(iters) <= 1
        assert sum(iters) == grid.total_iters


class TestSpecRoundTripProperty:
    @given(spec=gpu_specs())
    def test_to_json_from_json_identity(self, spec):
        assert GpuSpec.from_json(spec.to_json()) == spec

    @given(spec=gpu_specs())
    def test_peaks_positive_for_every_supported_dtype(self, spec):
        for name in spec.macs_per_sm_per_cycle:
            dtype = get_dtype_config(name)
            assert spec.supports_dtype(dtype)
            assert spec.peak_tflops(dtype) > 0.0
