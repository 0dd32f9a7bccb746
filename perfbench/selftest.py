"""The benchmark's own tests, at smoke size.

Runs every workload untraced and traced at smoke size and checks that
the correctness gate catches perturbed expected values: a reference
cycle count, a reference digest, and one oracle answer per workload.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import make_workload  # noqa: E402

SECONDS = 0.5
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _served(name: str, seed: int = 0):
    wl = make_workload(name, seed, smoke=True)
    rep = run.serve(wl, wl.setup())
    return wl, rep


def test_untraced_runs_are_correct():
    for name in run.WORKLOADS:
        record, problems = run.run_workload(name, 0, SECONDS, trace=False, smoke=True)
        assert problems == [], (name, problems)
        declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
        assert {k: unit for k, (__, unit) in record["end_to_end"].items()} == declared
        assert all(value > 0 for value, __ in record["end_to_end"].values()), name
        assert record["failed"] == 0


def test_traced_runs_reproduce_and_account():
    for name in run.WORKLOADS:
        record, problems = run.run_workload(name, 0, SECONDS, trace=True, smoke=True)
        assert problems == [], (name, problems)
        layers = record["per_layer"]
        declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        assert {k: unit for k, (__, unit) in layers.items()} == declared
        assert layers["trace.unattributed_s"][0] >= 0.0, name
        assert layers["trace.spans"][0] > 0, name


def test_reference_perturbation_is_caught():
    reference = oracles.load_reference()
    for name in run.WORKLOADS:
        entry = reference["smoke"][name]
        exact = oracles.check_reference(
            reference, "smoke", name, entry["seed"], entry["sim_mcycles"], entry["digest"]
        )
        assert exact == []
        perturbed = copy.deepcopy(reference)
        perturbed["smoke"][name]["sim_mcycles"] = np.nextafter(entry["sim_mcycles"], np.inf)
        assert oracles.check_reference(
            perturbed, "smoke", name, entry["seed"], entry["sim_mcycles"], entry["digest"]
        )
        assert oracles.check_reference(
            reference, "smoke", name, entry["seed"], entry["sim_mcycles"], "0" * 16
        )


def test_count_bursts_oracle_catches_perturbation():
    wl, rep = _served("count-bursts")
    assert oracles.check_count_bursts(wl, rep.calls) == []
    for label, bump in (
        ("triangles", lambda out: out + 1),
        ("local_clustering", lambda out: out * (1 + 1e-9)),
        ("similarity_pairs", lambda out: np.where(np.arange(out.size) == out.size // 2, out + 1e-6, out)),
    ):
        calls = copy.deepcopy(rep.calls)
        call = next(c for c in calls if c.label == label)
        call.output = bump(call.output)
        assert oracles.check_count_bursts(wl, calls), label


def test_recursive_scalar_oracle_catches_perturbation():
    wl, rep = _served("recursive-scalar")
    assert oracles.check_recursive_scalar(wl, rep.calls) == []
    calls = copy.deepcopy(rep.calls)
    next(c for c in calls if c.label == "subgraph_iso").output += 1
    assert oracles.check_recursive_scalar(wl, calls)
    calls = copy.deepcopy(rep.calls)
    cliques = next(c for c in calls if c.label == "maximal_cliques").output
    big = max(range(len(cliques)), key=lambda i: len(cliques[i]))
    cliques[big] = tuple(cliques[big])[:-1]  # a non-maximal clique
    assert oracles.check_recursive_scalar(wl, calls)


def test_serving_mix_oracle_catches_perturbation():
    wl, rep = _served("serving-mix")
    samples = run.serving_samples(wl, rep)
    assert oracles.check_serving_mix(wl, samples) == []
    epoch, key, name, output = samples[0]
    if isinstance(output, np.ndarray):
        output = output.copy()
        output[0] += 1
    else:
        output = output + 1
    samples[0] = (epoch, key, name, output)
    assert oracles.check_serving_mix(wl, samples)


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_") and callable(v)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
