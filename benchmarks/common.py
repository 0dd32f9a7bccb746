"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's
evaluation (the mapping is in DESIGN.md's per-experiment index).  The
simulated results are printed and also written to
``benchmarks/results/<name>.txt`` so they survive pytest's output
capture.
"""

from __future__ import annotations

import gc
import io
import json
import os
import platform
import statistics
import subprocess
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from repro.session import ExecutionConfig, SisaSession

RESULTS_DIR = Path(__file__).parent / "results"

#: Bench names that wrote a real ``BENCH_<name>.json`` record this
#: process — :func:`emit` backfills a stub for any bench that never
#: calls :func:`emit_json`, so the CI dashboard's "every bench leaves a
#: JSON record" invariant holds regardless of which helper a bench
#: uses (and in either call order within one process).
_JSON_EMITTED: set[str] = set()


def session_cell(
    graph,
    workload: str,
    *,
    digest=None,
    threads: int = 32,
    mode: str = "sisa",
    config: ExecutionConfig | None = None,
    **params,
):
    """One benchmark cell through the session API.

    Builds a cold :class:`SisaSession` (so the measured cycles match
    the historical one-shot numbers bit-for-bit), runs the named
    workload, and returns the ``(output_digest, runtime_cycles)`` pair
    the harness's ``run_three_variants`` callables produce.
    """
    if config is None:
        config = ExecutionConfig(threads=threads, mode=mode)
    run = SisaSession(graph, config).run(workload, **params)
    output = run.output if digest is None else digest(run.output)
    return output, run.runtime_cycles


def timed(fn, repeats: int):
    """Median/min/max wall seconds of ``repeats`` calls of ``fn`` after
    one warm-up (``gc.collect()`` before each), plus the last call's
    result."""
    result = fn()
    times = []
    for __ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
    }, result


def provenance() -> dict:
    """Where a wall-clock record was measured: the git commit, the core
    count and the Python/NumPy versions."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def emit(name: str, render) -> str:
    """Run ``render()`` capturing stdout; save and return the text."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        render()
    text = buffer.getvalue()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    if name not in _JSON_EMITTED:
        # Stub record so BENCH_<name>.json always exists; overwritten
        # with the real metrics if the bench later calls emit_json.
        path = RESULTS_DIR / f"BENCH_{name}.json"
        path.write_text(
            json.dumps({"bench": name, "metrics": {}}, indent=2) + "\n"
        )
    print(text)
    return text


def emit_json(name: str, metrics: dict, *, floors: dict | None = None) -> Path:
    """Write one machine-readable benchmark record next to the text
    render: ``benchmarks/results/BENCH_<name>.json``.

    ``metrics`` holds the headline numbers a CI dashboard trends (keep
    values JSON-native: numbers, strings, shallow containers);
    ``floors`` echoes whatever acceptance thresholds the bench asserted
    against, so a regression report can show how close each run came.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {"bench": name, "metrics": metrics}
    if floors:
        record["floors"] = floors
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    _JSON_EMITTED.add(name)
    return path


# The Fig. 6 small-graph panel, trimmed to one representative per
# dataset family to keep pure-Python simulation times practical.
FIG6_GRAPHS = [
    "int-antCol5-d1",
    "bio-SC-GT",
    "bio-HS-LC",
    "bn-flyMedulla",
    "econ-beacxc",
    "soc-fbMsg",
]

# Pattern cutoffs, following the paper's long-simulation methodology
# (Section 9.1: "we usually also pre-specify a number of graph
# patterns to be found").
CUTOFFS = {
    "kcc": 20_000,
    "ksc": 5_000,
    "mc": 1_000,
    "si": 1_000,
}
