"""The demo that runs progressive validation, run as a script.

``demos/06_online_nonstationarity.py`` streams 25,000 examples through
``progressive_eval`` twice, in order and permuted, so it exercises the
blocked predict-then-train loop end to end.  The other demos are run by
hand: all six together take about a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_online_nonstationarity_demo_exits_0(tmp_path):
    # the demo writes its dataset to a temporary directory; keep it under
    # tmp_path, which it must leave as it found it
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "06_online_nonstationarity.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "progressive accuracy, in-order stream" in proc.stdout
    assert list(tmp_path.iterdir()) == []
