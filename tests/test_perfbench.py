"""The benchmark's tracer must still find every name it wraps.

``perfbench/tracer.py`` rebinds functions where mimoloc looks them up
(``similarity`` in ``mimoloc.pipeline`` and ``mimoloc.neural``, and so
on), so a refactor that renames or drops one of them breaks the traced
benchmark without breaking any library test. The ``selftest`` workload
runs the whole harness on a tiny world in a few seconds; its traced run
also guards a per-layer count the benchmark reports.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_selftest_workload_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "selftest", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
    if trace == "1":
        # the peak tracker detects all frames of a step's stack of
        # histories in one call
        per_predict = last["metrics"]["predictor.detect_peaks.per_predict"]
        assert per_predict["value"] == 1.0
