"""Executor backend differential suite: numpy vs the Python oracle.

The pure-Python discrete-event loop in :mod:`repro.gpu.executor` is the
bitwise oracle; the array event loop of :mod:`repro.gpu.backends` must
reproduce it **exactly** — identical ``SegmentRecord`` timings,
identical ``CtaRecord`` slot placements, identical ``DeadlockError``
wait-chain text, identical injector draw logs and counters — across
every schedule family, every GPU preset, every fault dimension, and on
both sides of the one-wave boundary
(``num_ctas == num_sm_slots`` and ``num_sm_slots + 1``).  Nothing here
is approximate: every assertion is ``==`` on floats.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeadlockError, SimulationError
from repro.faults import FaultConfig, FaultInjector
from repro.faults.sweep import build_registered_schedule
from repro.gemm import FP16_FP32, FP64, Blocking, GemmProblem, TileGrid
from repro.gpu import (
    Executor,
    KernelCostModel,
    execute_tasks,
    resolve_executor_backend,
    run_task_arrays,
    set_default_executor,
    tasks_to_arrays,
)
from repro.gpu.cta import CtaTask, SegmentKind, TimedSegment
from repro.gpu.spec import GPU_PRESETS
from repro.obs.counters import reset_counters, snapshot_counters
from repro.schedules.registry import DECOMPOSITION_NAMES

PRESETS = sorted(GPU_PRESETS)

# One completing fault environment exercising every live injection
# dimension at once (drops excluded: those runs deadlock and are covered
# by TestDeadlockParity).
FAULTY = FaultConfig(
    seed=13,
    straggler_prob=0.35,
    straggler_severity=0.75,
    clock_skew=0.15,
    mem_jitter=0.25,
    signal_delay_prob=0.5,
    signal_delay_cycles=300.0,
    preempt_prob=0.25,
    preempt_penalty_cycles=150.0,
)

COUNTERS = tuple(
    "executor." + key
    for key in ("runs", "ctas", "segments", "spin_waits", "signals")
)

PROBLEMS = [
    GemmProblem(384, 384, 512, dtype=FP16_FP32),
    GemmProblem(100, 70, 530, dtype=FP16_FP32),  # ragged: partial waves
]


def _build(name, spec, problem, dtype=FP16_FP32):
    blocking = Blocking(*dtype.default_blocking)
    grid = TileGrid(problem, blocking)
    schedule = build_registered_schedule(name, grid, spec)
    cost = KernelCostModel(gpu=spec, blocking=blocking, dtype=dtype)
    return schedule, cost


def _oracle_run(schedule, cost, slots, config):
    reset_counters()
    inj = FaultInjector(config) if config else None
    tasks = cost.build_tasks(schedule, faults=inj)
    trace = Executor(slots, faults=inj, backend="python").run(tasks)
    return trace, inj, snapshot_counters()


def _array_run(schedule, cost, slots, config):
    reset_counters()
    inj = FaultInjector(config) if config else None
    arrays = cost.build_task_arrays(schedule, faults=inj)
    trace = Executor(slots, faults=inj, backend="numpy").run_arrays(arrays)
    return trace, inj, snapshot_counters()


def _slot_counts(spec, schedule, cost):
    """The preset's slot count, plus the one-wave boundary: every CTA
    resident at once (``num_ctas == slots``) and one CTA left waiting
    for a free slot (``num_ctas == slots + 1``)."""
    n = cost.build_task_arrays(schedule).num_ctas
    return sorted({spec.total_cta_slots, n, max(n - 1, 1)}, reverse=True)


def _chain_tasks(n):
    """Hand-built chain: CTA i fixes up CTA i-1's partials *before*
    publishing its own, so every wait precedes its CTA's signal and
    targets a producer that launched earlier."""
    tasks = []
    for i in range(n):
        segs = [
            TimedSegment(SegmentKind.PROLOGUE, 10.0 + i),
            TimedSegment(SegmentKind.COMPUTE, 30.0 + 7.0 * (i % 3)),
        ]
        if i:
            segs += [
                TimedSegment(SegmentKind.WAIT, 0.0, i - 1),
                TimedSegment(SegmentKind.FIXUP, 5.0, i - 1),
            ]
        segs += [
            TimedSegment(SegmentKind.STORE_PARTIALS, 5.0),
            TimedSegment(SegmentKind.SIGNAL, 0.0, i),
        ]
        tasks.append(CtaTask(cta=i, segments=tuple(segs)))
    return tasks


def assert_traces_identical(a, b, ctx=""):
    assert a.num_sm_slots == b.num_sm_slots, ctx
    assert a.makespan == b.makespan, ctx
    ra, rb = a.ctas, b.ctas
    assert len(ra) == len(rb), ctx
    for x, y in zip(ra, rb):
        assert x == y, "%s cta=%d\noracle: %r\nfast:   %r" % (ctx, x.cta, x, y)


class TestTraceParity:
    """Bitwise trace equality, every family x preset x fault point."""

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("name", DECOMPOSITION_NAMES)
    def test_pristine(self, name, preset):
        spec = GPU_PRESETS[preset]
        for problem in PROBLEMS:
            schedule, cost = _build(name, spec, problem)
            for slots in _slot_counts(spec, schedule, cost):
                ctx = "%s/%s/slots=%d" % (name, preset, slots)
                oracle, _, oc = _oracle_run(schedule, cost, slots, None)
                fast, _, fc = _array_run(schedule, cost, slots, None)
                assert_traces_identical(oracle, fast, ctx)
                for key in COUNTERS:
                    assert oc[key] == fc[key], (ctx, key)

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("name", DECOMPOSITION_NAMES)
    def test_faulted(self, name, preset):
        spec = GPU_PRESETS[preset]
        for problem in PROBLEMS:
            schedule, cost = _build(name, spec, problem)
            for slots in _slot_counts(spec, schedule, cost):
                ctx = "%s/%s/slots=%d" % (name, preset, slots)
                oracle, oi, _ = _oracle_run(schedule, cost, slots, FAULTY)
                fast, fi, _ = _array_run(schedule, cost, slots, FAULTY)
                assert_traces_identical(oracle, fast, ctx)
                assert oi.injection_counts() == fi.injection_counts()

    @pytest.mark.parametrize(
        "dimension",
        [
            FaultConfig(seed=5, straggler_prob=0.5, straggler_severity=1.0),
            FaultConfig(seed=5, clock_skew=0.3),
            FaultConfig(seed=5, mem_jitter=0.4),
            FaultConfig(seed=5, preempt_prob=0.4, preempt_penalty_cycles=200.0),
            FaultConfig(
                seed=5, signal_delay_prob=0.7, signal_delay_cycles=500.0
            ),
        ],
        ids=["straggler", "skew", "jitter", "preempt", "delay"],
    )
    def test_each_fault_dimension_alone(self, dimension):
        spec = GPU_PRESETS["a100"]
        for name in DECOMPOSITION_NAMES:
            schedule, cost = _build(name, spec, PROBLEMS[1])
            slots = spec.total_cta_slots
            oracle, oi, _ = _oracle_run(schedule, cost, slots, dimension)
            fast, fi, _ = _array_run(schedule, cost, slots, dimension)
            assert_traces_identical(oracle, fast, name)
            assert oi.injection_counts() == fi.injection_counts()

    def test_fp64_blocking(self):
        spec = GPU_PRESETS["hypothetical_4sm"]
        problem = GemmProblem(96, 96, 120, dtype=FP64)
        for name in DECOMPOSITION_NAMES:
            schedule, cost = _build(name, spec, problem, dtype=FP64)
            slots = spec.total_cta_slots
            oracle, _, _ = _oracle_run(schedule, cost, slots, None)
            fast, _, _ = _array_run(schedule, cost, slots, None)
            assert_traces_identical(oracle, fast, name)

    def test_tasks_to_arrays_roundtrip(self):
        """run(tasks) under the numpy backend (tasks -> arrays conversion)
        equals both the oracle and the direct build_task_arrays path; a
        hand-built wait-before-signal chain matches the oracle on both
        sides of the one-wave boundary, pristine and faulted."""
        spec = GPU_PRESETS["a100"]
        schedule, cost = _build("stream_k", spec, PROBLEMS[0])
        tasks = cost.build_tasks(schedule)
        oracle = Executor(spec.total_cta_slots, backend="python").run(tasks)
        via_tasks = Executor(spec.total_cta_slots, backend="numpy").run(tasks)
        direct = Executor(spec.total_cta_slots, backend="numpy").run_arrays(
            cost.build_task_arrays(schedule)
        )
        assert_traces_identical(oracle, via_tasks)
        assert_traces_identical(oracle, direct)

        chain = _chain_tasks(6)
        for slots in (6, 5):
            for config in (None, FAULTY):
                oi = FaultInjector(config) if config else None
                fi = FaultInjector(config) if config else None
                a = execute_tasks(chain, slots, faults=oi, backend="python")
                b = execute_tasks(chain, slots, faults=fi, backend="numpy")
                assert_traces_identical(a, b, "chain/slots=%d" % slots)
                if config:
                    assert oi.injection_counts() == fi.injection_counts()


class TestInjectionLogParity:
    """The numpy run logs the oracle's injections entry for entry, in order.

    With preemption armed the event loop prices every timed segment
    through ``segment_cycles``; without it, it fetches each slot's
    multiplier once and multiplies — both must log what the oracle logs.
    """

    @pytest.mark.parametrize("preempt", [True, False], ids=["preempt", "plain"])
    @pytest.mark.parametrize("name", DECOMPOSITION_NAMES)
    def test_log_identical(self, name, preempt):
        spec = GPU_PRESETS["a100"]
        config = FAULTY if preempt else replace(FAULTY, preempt_prob=0.0)
        schedule, cost = _build(name, spec, PROBLEMS[0])
        slots = spec.total_cta_slots
        oracle, oi, _ = _oracle_run(schedule, cost, slots, config)
        fast, fi, _ = _array_run(schedule, cost, slots, config)
        assert_traces_identical(oracle, fast, name)
        assert oi.log and oi.log == fi.log
        assert ("preempt" in oi.injection_counts()) == preempt


class TestDeadlockParity:
    """Dropped signals must yield the oracle's exact wait-chain text."""

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("name", DECOMPOSITION_NAMES)
    def test_dropped_signals(self, name, preset):
        spec = GPU_PRESETS[preset]
        config = FaultConfig(seed=11, signal_drop_prob=0.6)
        schedule, cost = _build(name, spec, PROBLEMS[0])

        def outcome(runner):
            try:
                return ("completed", runner().makespan)
            except DeadlockError as e:
                return ("deadlock", str(e))

        for slots in _slot_counts(spec, schedule, cost):
            reset_counters()
            oi = FaultInjector(config)
            tasks = cost.build_tasks(schedule, faults=oi)
            a = outcome(
                lambda: Executor(slots, faults=oi, backend="python").run(tasks)
            )
            reset_counters()
            fi = FaultInjector(config)
            arrays = cost.build_task_arrays(schedule, faults=fi)
            b = outcome(
                lambda: Executor(slots, faults=fi, backend="numpy").run_arrays(
                    arrays
                )
            )
            assert a == b, "%s/%s/slots=%d" % (name, preset, slots)
            assert oi.injection_counts() == fi.injection_counts()

    def test_waiter_before_producer_without_faults(self):
        """A hand-built waiter-first task list deadlocks identically."""
        tasks = [
            CtaTask(
                cta=0,
                segments=(
                    TimedSegment(SegmentKind.PROLOGUE, 10.0),
                    TimedSegment(SegmentKind.WAIT, 0.0, 7),
                    TimedSegment(SegmentKind.FIXUP, 5.0, 7),
                    TimedSegment(SegmentKind.STORE_TILE, 5.0),
                ),
            ),
        ]
        with pytest.raises(DeadlockError) as py_err:
            execute_tasks(tasks, 2, backend="python")
        with pytest.raises(DeadlockError) as np_err:
            execute_tasks(tasks, 2, backend="numpy")
        assert str(py_err.value) == str(np_err.value)

    def test_circular_wait_cycle_reported_identically(self):
        def cta(i, wait_on):
            return CtaTask(
                cta=i,
                segments=(
                    TimedSegment(SegmentKind.PROLOGUE, 10.0),
                    TimedSegment(SegmentKind.WAIT, 0.0, wait_on),
                    TimedSegment(SegmentKind.FIXUP, 5.0, wait_on),
                    TimedSegment(SegmentKind.COMPUTE, 5.0),
                    TimedSegment(SegmentKind.STORE_PARTIALS, 5.0),
                    TimedSegment(SegmentKind.SIGNAL, 0.0, i),
                ),
            )

        tasks = [cta(0, 1), cta(1, 0)]
        # 2 slots: both CTAs resident; 1 slot: CTA 1 never launches.
        for slots in (4, 2, 1):
            for config in (None, FAULTY):
                with pytest.raises(DeadlockError) as py_err:
                    execute_tasks(
                        tasks,
                        slots,
                        faults=FaultInjector(config) if config else None,
                        backend="python",
                    )
                with pytest.raises(DeadlockError) as np_err:
                    execute_tasks(
                        tasks,
                        slots,
                        faults=FaultInjector(config) if config else None,
                        backend="numpy",
                    )
                assert str(py_err.value) == str(np_err.value), slots

    def test_double_signal_rejected_with_oracle_message(self):
        """CtaTask validation makes a double signal unreachable from task
        objects, but raw TaskArrays can express it; the array backend
        must reject it with the oracle loop's exact message."""
        from repro.gpu.backends import TaskArrays
        from repro.schedules.flatten import KIND_PROLOGUE, KIND_SIGNAL

        arrays = TaskArrays(
            np.array([0, 1]),
            np.array([0, 2, 4]),
            np.array([KIND_PROLOGUE, KIND_SIGNAL] * 2, dtype=np.int8),
            np.array([10.0, 0.0, 10.0, 0.0]),
            np.array([-1, 3, -1, 3]),
        )
        message = "slot 3 signalled twice"
        for slots in (4, 2, 1):
            with pytest.raises(SimulationError, match=message):
                run_task_arrays(arrays, slots)


class TestBackendResolution:
    def teardown_method(self):
        set_default_executor(None)

    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_executor_backend(None) == "python"

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "numpy")
        assert resolve_executor_backend("python") == "python"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "numpy")
        assert resolve_executor_backend(None) == "numpy"

    def test_process_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "python")
        set_default_executor("numpy")
        assert resolve_executor_backend(None) == "numpy"

    def test_unknown_backend_rejected(self):
        for name in ("fortran", "numba"):
            with pytest.raises(ConfigurationError):
                resolve_executor_backend(name)
            with pytest.raises(ConfigurationError):
                set_default_executor(name)

    def test_bad_env_value_rejected(self, monkeypatch):
        for value in ("cuda", "numba"):
            monkeypatch.setenv("REPRO_EXECUTOR", value)
            with pytest.raises(ConfigurationError):
                resolve_executor_backend(None)

    def test_backend_counter_published(self):
        spec = GPU_PRESETS["hypothetical_4sm"]
        schedule, cost = _build(
            "stream_k", spec, GemmProblem(64, 64, 64, dtype=FP64), FP64
        )
        tasks = cost.build_tasks(schedule)
        reset_counters()
        Executor(spec.total_cta_slots, backend="python").run(tasks)
        assert snapshot_counters()["executor.backend.python"] == 1
        reset_counters()
        Executor(spec.total_cta_slots, backend="numpy").run(tasks)
        assert snapshot_counters()["executor.backend.numpy"] == 1


class TestArrayTraceBehavesLikeExecutionTrace:
    """ArrayTrace is a drop-in ExecutionTrace: downstream consumers
    (gantt rendering, utilization, the invariant checker) see identical
    structure."""

    def _pair(self):
        spec = GPU_PRESETS["hypothetical_4sm"]
        schedule, cost = _build(
            "stream_k", spec, GemmProblem(96, 96, 160, dtype=FP64), FP64
        )
        tasks = cost.build_tasks(schedule)
        oracle = Executor(spec.total_cta_slots, backend="python").run(tasks)
        fast = Executor(spec.total_cta_slots, backend="numpy").run_arrays(
            cost.build_task_arrays(schedule)
        )
        return oracle, fast

    def test_utilization_identical(self):
        oracle, fast = self._pair()
        assert fast.utilization() == oracle.utilization()

    def test_gantt_rows_identical(self):
        oracle, fast = self._pair()
        assert fast.gantt_rows() == oracle.gantt_rows()

    def test_render_ascii_identical(self):
        oracle, fast = self._pair()
        assert fast.render_ascii(width=72) == oracle.render_ascii(width=72)

    def test_checker_accepts_fast_trace(self):
        from repro.faults.checker import check_protocol_invariants

        spec = GPU_PRESETS["a100"]
        schedule, cost = _build("two_tile_stream_k", spec, PROBLEMS[1])
        fast = Executor(spec.total_cta_slots, backend="numpy").run_arrays(
            cost.build_task_arrays(schedule)
        )
        report = check_protocol_invariants(schedule, fast)
        assert report.num_tiles == schedule.grid.num_tiles


class TestFlattenCorrespondence:
    def test_kind_codes_pin_segmentkind_order(self):
        from repro.schedules.flatten import KIND_NAMES

        assert tuple(k.value for k in SegmentKind) == KIND_NAMES

    def test_flat_stream_equals_build_tasks_stream(self):
        from repro.schedules.flatten import KIND_NAMES, flatten_work_items

        spec = GPU_PRESETS["a100"]
        schedule, cost = _build("stream_k", spec, PROBLEMS[1])
        flat = flatten_work_items(schedule)
        tasks = cost.build_tasks(schedule)
        assert flat.num_ctas == len(tasks)
        for r, task in enumerate(tasks):
            lo, hi = int(flat.seg_off[r]), int(flat.seg_off[r + 1])
            assert flat.ctas[r] == task.cta
            assert hi - lo == len(task.segments)
            for j, seg in enumerate(task.segments):
                assert KIND_NAMES[flat.kinds[lo + j]] == seg.kind.value
                slot = int(flat.slots[lo + j])
                assert (None if slot < 0 else slot) == seg.slot

    def test_duplicate_cta_ids_rejected_identically(self):
        spec = GPU_PRESETS["a100"]
        schedule, cost = _build("stream_k", spec, PROBLEMS[0])
        tasks = cost.build_tasks(schedule)
        dup = tasks + [tasks[0]]
        with pytest.raises(ConfigurationError) as py_err:
            execute_tasks(dup, spec.total_cta_slots, backend="python")
        with pytest.raises(ConfigurationError) as np_err:
            tasks_to_arrays(dup)
        assert str(py_err.value) == str(np_err.value)

    def test_pricing_is_bitwise_identical(self):
        """build_task_arrays prices segments bitwise like build_tasks,
        jitter draws included."""
        spec = GPU_PRESETS["a100"]
        for config in (None, FAULTY):
            schedule, cost = _build("fixed_split", spec, PROBLEMS[1])
            ia = FaultInjector(config) if config else None
            tasks = cost.build_tasks(schedule, faults=ia)
            ib = FaultInjector(config) if config else None
            arrays = cost.build_task_arrays(schedule, faults=ib)
            flat_cycles = np.concatenate(
                [[s.cycles for s in t.segments] for t in tasks]
            )
            np.testing.assert_array_equal(arrays.cycles, flat_cycles)


class TestSimulateKernelBackendParity:
    def test_simulate_kernel_executor_param(self):
        from repro.gpu import simulate_kernel

        spec = GPU_PRESETS["a100"]
        schedule, _ = _build("stream_k", spec, PROBLEMS[0])
        py = simulate_kernel(schedule, spec, executor="python")
        fast = simulate_kernel(schedule, spec, executor="numpy")
        assert fast.makespan_cycles == py.makespan_cycles
        assert fast.time_s == py.time_s
        assert fast.trace.ctas == py.trace.ctas

    def test_simulate_kernel_check_invariants_on_fast_backend(self):
        from repro.gpu import simulate_kernel

        spec = GPU_PRESETS["a100"]
        schedule, _ = _build("two_tile_stream_k", spec, PROBLEMS[1])
        result = simulate_kernel(
            schedule, spec, executor="numpy", check_invariants=True
        )
        assert result.makespan_cycles > 0.0

    def test_fault_sweep_backend_invariant(self):
        from repro.faults.sweep import run_fault_sweep

        spec = GPU_PRESETS["hypothetical_4sm"]
        problem = GemmProblem(96, 96, 120, dtype=FP64)
        py = run_fault_sweep(
            problem, spec, severities=(0.0, 1.0), seed=2, executor="python"
        )
        fast = run_fault_sweep(
            problem, spec, severities=(0.0, 1.0), seed=2, executor="numpy"
        )
        assert py == fast
