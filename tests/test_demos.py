"""Every demo, run as a script.

Each demo must exit 0, print the line that ends its last check, and leave
its temporary directory as it found it.  Together they run end to end what
no other test does: demo 01 is the only one that calls ``predict`` (and
round-trips a saved tree), demo 05 the only one that turns path features
off, and demo 06 streams 25,000 examples through ``progressive_eval``
twice, in order and permuted, so it exercises the blocked
predict-then-train loop.  All six take about a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# a line each demo prints once it has run to its last check
FINAL_LINES = {
    "01_quickstart": "model round-trips through a saved file",
    "02_logarithmic_work": "every single prediction stayed within the logarithmic budget",
    "03_bernstein_gating": "the bound knows better",
    "04_entropy_ledger_and_boosting": "measured per-split advantage",
    "05_path_features_and_equivalence": "agreement with the tree's plurality predictions",
    "06_online_nonstationarity": "progressive accuracy, in-order stream",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(tmp_path, demo):
    # a demo writes its files to a temporary directory; keep them under
    # tmp_path, which it must leave as it found it
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert FINAL_LINES[demo.stem] in proc.stdout
    assert list(tmp_path.iterdir()) == []
