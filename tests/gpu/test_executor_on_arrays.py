"""The executor suites again, on the numpy event loop.

``tests/gpu/test_executor.py``, ``tests/gpu/test_executor_errors.py`` and
``tests/faults/test_executor_faults.py`` run hand-built and cost-model
tasks through the ``execute`` fixture, which is the Python oracle
(``Executor.run``).  This module re-collects every one of their tests
with ``execute`` bound to the numpy loop that all simulations run
(``Executor.run_arrays(tasks_to_arrays(tasks))``), so each expectation
holds for both loops.  (``tests/gpu/test_executor_properties.py`` runs
both loops inside each Hypothesis example instead.)
"""

import pytest

from tests.conftest import run_on_arrays
from tests.faults.test_executor_faults import *  # noqa: F401,F403
from tests.gpu.test_executor import *  # noqa: F401,F403
from tests.gpu.test_executor_errors import *  # noqa: F401,F403


@pytest.fixture(scope="module")
def execute():
    return run_on_arrays
