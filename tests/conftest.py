"""Shared fixtures (small problems, grids, GPUs, cost models) and the
Hypothesis profiles every ``@given`` test in the suite runs under.

Two profiles, selected via ``HYPOTHESIS_PROFILE`` (default ``dev``):

* ``dev`` — 25 examples per property, for the everyday tier-1 run;
* ``ci``  — 200 examples per property, the acceptance bar of the
  ``properties`` CI job (>= 200 generated (shape, spec) cases per
  registered schedule; run with ``--hypothesis-show-statistics``).

Both are derandomized and keep no example database, so a run draws the
same examples whatever a local ``.hypothesis`` directory holds: a
failing example fails everywhere, not just on one machine.  Deadlines
are disabled because one example of the property suite is a full
discrete-event execution plus an invariant-checker replay — wall time
scales with the drawn point, which is exactly what deadlines mis-flag.
Tests that set ``max_examples`` themselves keep their own count.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.gemm import FP16_FP32, FP64, Blocking, GemmProblem, TileGrid, random_operands
from repro.gpu import (
    A100,
    HYPOTHETICAL_4SM,
    Executor,
    KernelCostModel,
    tasks_to_arrays,
)

for _name, _examples in (("dev", 25), ("ci", 200)):
    settings.register_profile(
        _name,
        max_examples=_examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def small_problem():
    """A ragged FP64 problem exercising edge tiles on every axis."""
    return GemmProblem(100, 70, 53, dtype=FP64)


@pytest.fixture
def small_grid(small_problem):
    return TileGrid(small_problem, Blocking(16, 16, 8))


@pytest.fixture
def small_operands(small_problem):
    return random_operands(small_problem, seed=1)


@pytest.fixture
def fp16_problem():
    return GemmProblem(96, 80, 64, dtype=FP16_FP32)


@pytest.fixture
def fp16_grid(fp16_problem):
    return TileGrid(fp16_problem, Blocking(32, 32, 16))


@pytest.fixture
def gpu4():
    return HYPOTHETICAL_4SM


@pytest.fixture
def a100():
    return A100


@pytest.fixture
def cost4(small_grid, gpu4):
    return KernelCostModel(
        gpu=gpu4, blocking=small_grid.blocking, dtype=small_grid.problem.dtype
    )


def assert_schedule_correct(schedule, a, b, reference, atol_scale=1.0):
    """Validate structure and numerics of a schedule in one call."""
    schedule.validate()
    out = schedule.execute(a, b)
    err = np.abs(out.astype(np.float64) - reference).max()
    scale = max(1.0, np.abs(reference).max())
    assert err / scale < 1e-10 * atol_scale, (
        "schedule %s wrong by %.3e" % (schedule.name, err)
    )
    return out


def run_oracle(tasks, num_sm_slots, faults=None):
    """The pure-Python oracle loop: :meth:`Executor.run` on task objects."""
    return Executor(num_sm_slots, faults=faults).run(tasks)


def run_on_arrays(tasks, num_sm_slots, faults=None):
    """The numpy event loop every simulation runs, on the same tasks."""
    return Executor(num_sm_slots, faults=faults).run_arrays(
        tasks_to_arrays(tasks)
    )


@pytest.fixture(scope="module")
def execute():
    """The event loop an executor suite runs its hand-built tasks on.

    Two-valued across modules: the oracle here, and :func:`run_on_arrays`
    in ``tests/gpu/test_executor_on_arrays.py``, which re-collects the
    executor suites with this fixture overridden.  Module scope lets
    module-scoped fixtures build on it.
    """
    return run_oracle
