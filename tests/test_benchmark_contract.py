"""The verdicts the benchmark pins hold for the engine in this tree.

``perfbench/run.py`` judges every sample against notes written down by
hand, and a drifted note makes the benchmark count the run as incorrect.
This runs each workload named in ``BENCHMARK.json``, plus ``tiny``,
in-process through ``cli.run`` over the oracle seed panel, and judges it
with ``run.judge``.  The benchmark's files are only read.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from spinsym import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
NAMES = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture(scope="module")
def run():
    # run.py imports its reference kernel from its own directory
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name", NAMES + ["tiny"])
def test_workload_verdicts_match_the_pins(run, name):
    w = run.WORKLOADS[name]
    for seed in run.ORACLE_PANEL if w.oracle else (None,):
        argv = list(w.argv) + (["--seed", str(seed)] if w.oracle else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run(argv + ["--format", "json"])
        attempted, failed = run.judge(w, rc, out.getvalue())
        assert attempted and failed == 0, (name, seed, out.getvalue())
