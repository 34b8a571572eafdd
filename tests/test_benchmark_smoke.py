"""The benchmark's untraced smoke test, run with the unit tests, so that a
change that breaks the benchmark's own output checks fails here too.

``perfbench/test_smoke.py`` is loaded by path and its untraced case is run
for every declared workload.  Its traced case is left to a run of that file.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "test_smoke.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_smoke", _PATH)
smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(smoke)


@pytest.mark.parametrize("workload", smoke.WORKLOADS)
def test_benchmark_prints_its_end_to_end_metrics(workload):
    smoke.test_end_to_end_metrics_printed_with_units(workload)
