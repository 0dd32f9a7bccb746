"""Repository benchmark: host-time metrics, exact modeled metrics, and a
per-layer trace measured from outside the program.

Run every workload untraced (one child process per workload, so peak
memory is not shared) and print every end-to-end metric::

    python3 perfbench/run.py

Select workloads (repeatable), shrink to smoke size, or take the traced
run that prints the per-layer metrics::

    python3 perfbench/run.py -s count-bursts --seed 3 --seconds 30
    python3 perfbench/run.py -s serving-mix -x --seconds 2
    python3 perfbench/run.py -s recursive-scalar --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A correctness
mismatch prints ``correct: false`` with no metrics and exits with 1.
The full record (provenance, sample counts, reference points) is
printed above it and written to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("count-bursts", "recursive-scalar", "serving-mix")

#: Fresh set-ups timed before the served repetitions (each repetition
#: adds one more); set-up is 15-500 ms, so one build alone swings ~30%.
SETUP_BUILDS = {"count-bursts": 6, "recursive-scalar": 12, "serving-mix": 20}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# One repetition: fresh set-up, then the fixed request sequence
# ---------------------------------------------------------------------------


class Rep:
    """Host times, modeled costs and outputs of one served repetition."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.setup_s = 0.0
        self.total_s = 0.0  # set-up plus serving, host seconds
        self.operands = 0
        self.times: list[float] = []  # host seconds per request
        self.cycles: list[float] = []  # modeled runtime cycles per request
        self.calls: list = []  # every Call, in order
        self.sizes: list[int] = []  # calls per request
        self.counters: dict[str, float] = {}
        self.layers: dict | None = None
        self.spans = None

    @property
    def wall_s(self) -> float:
        return sum(self.times)

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(call.error is not None for call in self.calls)

    def modeled(self) -> tuple:
        """Everything modeled, for the exact-repeat check."""
        return self.cycles, sorted(self.counters.items())


def _stats_delta(session, mark, smb0, cache0, orient0):
    from repro.isa.scu import DispatchStats

    stats: DispatchStats = session.ctx.stats_since(mark)
    smb = session.ctx.scu.smb.stats
    cache = session.cache_stats
    out = {
        "isa.scu.instructions": stats.instructions,
        "isa.scu.pum_ops": stats.pum_ops,
        "isa.scu.pnm_ops": stats.pnm_ops,
        "isa.scu.host_ops": stats.host_ops,
        "isa.scu.gallop_picks": stats.gallop_picks,
        "isa.scu.merge_picks": stats.merge_picks,
        "session.executor.fused_macros": stats.fused_macros,
        "isa.smb.hits": smb.hits - smb0[0],
        "isa.smb.misses": smb.misses - smb0[1],
        "session.cache.hits": cache.hits - cache0[0],
        "session.cache.gets": (cache.hits + cache.misses) - (cache0[0] + cache0[1]),
    }
    maintainer = session.orientation_maintainer
    if maintainer is not None:
        out["streaming.full_repeels"] = maintainer.stats.full_repeels - orient0[0]
        out["streaming.repairs"] = maintainer.stats.repairs - orient0[1]
    return out


def snapshot_counters(session):
    """Counter baselines taken after set-up."""
    smb = session.ctx.scu.smb.stats
    cache = session.cache_stats
    maintainer = session.orientation_maintainer
    orient = (maintainer.stats.full_repeels, maintainer.stats.repairs) if maintainer else (0, 0)
    return session.ctx.mark(), (smb.hits, smb.misses), (cache.hits, cache.misses), orient


def serve(wl, rig, tracer=None, speed=None) -> Rep:
    """Issue the workload's request sequence once, closed loop.  Host
    speed is probed between requests (outside the timed regions)."""
    rep = Rep(traced=tracer is not None)
    quiet = tracer.suspended if tracer is not None else nullcontext
    sessions = rig.sessions
    with quiet():
        start = [snapshot_counters(s) for s in sessions]
    stall_weighted = 0.0
    clock = time.perf_counter
    for i, request in enumerate(wl.requests(rig)):
        if tracer is not None:
            tracer.request = i
        if speed is not None:
            speed.maybe_sample()
        with quiet():
            marks = [s.ctx.mark() for s in sessions]
        t0 = clock()
        calls = request()
        rep.times.append(clock() - t0)
        with quiet():
            reports = [s.ctx.report_since(m) for s, m in zip(sessions, marks)]
        cycles = sum(r.runtime_cycles for r in reports)
        stall_weighted += sum(r.avg_stall_fraction * r.runtime_cycles for r in reports)
        rep.cycles.append(cycles)
        rep.calls.extend(calls)
        rep.sizes.append(len(calls))
    if tracer is not None:
        tracer.request = -1
    with quiet():
        totals: dict[str, float] = {}
        for session, (mark, smb0, cache0, orient0) in zip(sessions, start):
            for key, value in _stats_delta(session, mark, smb0, cache0, orient0).items():
                totals[key] = totals.get(key, 0) + value
    total_cycles = sum(rep.cycles)
    totals["hw.engine.stall_fraction"] = stall_weighted / total_cycles if total_cycles else 0.0
    dynamic = rig.handles.get("dynamic")
    if dynamic is not None:
        totals["streaming.batches"] = dynamic.epoch
        totals["streaming.edges"] = sum(b.size for b in wl.stream.batches[: dynamic.epoch])
    rep.counters = totals
    return rep


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def _build(wl, setups: list[float]):
    gc.collect()
    t0 = time.perf_counter()
    rig = wl.setup()
    setups.append(time.perf_counter() - t0)
    return rig


def collect(wl, seconds: float, tracer=None, speed=None) -> tuple[list[Rep], list[float]]:
    """Time fresh set-ups, then serve repetitions (each on a fresh
    set-up) while the next one fits in ``seconds``.  With a tracer,
    repetitions alternate untraced and traced, at least one of each."""
    setups: list[float] = []
    if tracer is None:
        for __ in range(SETUP_BUILDS[wl.name] if not wl.smoke else 3):
            speed.maybe_sample()
            _build(wl, setups)
    reps: list[Rep] = []
    serve_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        try:
            if traced:
                tracer.clear()
                tracer.install()
            t0 = time.perf_counter()
            rig = _build(wl, setups)
            rep = serve(wl, rig, tracer if traced else None, None if traced else speed)
            rep.setup_s = setups[-1]
            rep.total_s = time.perf_counter() - t0
            if traced:
                with tracer.suspended():
                    rep.spans = tracer.spans()
                    rep.layers = tracer.layer_totals(rep.spans)
                    rep.operands = tracer.operands
        finally:
            if traced:
                tracer.uninstall()
        del rig
        reps.append(rep)
        elapsed = time.perf_counter() - serve_start
        need_traced = tracer is not None and not any(r.traced for r in reps)
        if not need_traced and elapsed + median([r.total_s for r in reps]) > seconds:
            return reps, setups


def check(wl, reps: list[Rep], profile: str, record_reference: bool) -> list[str]:
    """The correctness gate: exact repeats, oracles, default-seed reference."""
    import oracles

    first = reps[0]
    digest, modeled = oracles.digest(first.calls), first.modeled()
    problems: list[str] = []
    for i, r in enumerate(reps):
        kind = "traced" if r.traced else "untraced"
        if oracles.digest(r.calls) != digest:
            problems.append(f"repetition {i} ({kind}): outputs differ from repetition 0")
        if r.modeled() != modeled:
            problems.append(f"repetition {i} ({kind}): modeled cycles/counters differ from repetition 0")
    if wl.name == "count-bursts":
        problems += oracles.check_count_bursts(wl, first.calls)
    elif wl.name == "recursive-scalar":
        problems += oracles.check_recursive_scalar(wl, first.calls)
    else:
        problems += oracles.check_serving_mix(wl, serving_samples(wl, first))
    sim_mcycles = sum(first.cycles) / 1e6
    reference = oracles.load_reference()
    if record_reference and not problems:
        reference.setdefault(profile, {})[wl.name] = {
            "seed": wl.seed, "sim_mcycles": sim_mcycles, "digest": digest,
        }
        oracles.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return problems + oracles.check_reference(reference, profile, wl.name, wl.seed, sim_mcycles, digest)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 record_reference: bool = False) -> tuple[dict, list[str]]:
    """One workload run: collect, check, and build the record."""
    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import make_workload

    # Allocated first, so the probe buffer is part of the RSS baseline.
    speed = None if trace else HostSpeed()
    tracer = Tracer() if trace else None
    t_begin = time.perf_counter()
    wl = make_workload(name, seed, smoke)
    reps, setups = collect(wl, seconds, tracer, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    profile = "smoke" if smoke else "full"
    problems = check(wl, reps, profile, record_reference)

    plain = [r for r in reps if not r.traced]
    first = plain[0]
    request_samples = [t for r in plain for t in r.times]
    p90 = percentile(request_samples, 90)
    record = {
        "workload": name,
        "seed": seed,
        "profile": profile,
        "trace": int(trace),
        "correct": not problems,
        "problems": problems,
        "attempted": first.attempted,
        "failed": first.failed,
        "error_rate": first.failed / first.attempted,
        "end_to_end": {},
        "per_layer": {},
        "samples": {
            "repetitions": len(plain),
            "traced_repetitions": len(reps) - len(plain),
            "setup_builds": len(setups),
            "requests_per_repetition": len(first.times),
            "calls_per_repetition": first.attempted,
            "epoch_samples": len(request_samples),
            "epoch_samples_beyond_p90": sum(t > p90 for t in request_samples),
        },
        "sizes": wl.sizes,
        "provenance": provenance(seed, seconds, smoke),
    }
    if name == "serving-mix":
        served = [c for c in first.calls if c.label != "stream_batch"]
        record["cache_served_share"] = sum(c.cached for c in served) / len(served)
    if trace:
        traced = [r for r in reps if r.traced]
        walls = [r.wall_s for r in traced]
        keep = min(traced, key=lambda r: abs(r.wall_s - median(walls)))
        record["per_layer"], record["layer_self_s"] = per_layer_metrics(first, plain, keep, median(walls))
        if record["per_layer"]["trace.unattributed_s"][0] < 0:
            problems.append("layer self times sum to more than the traced wall")
            record["correct"] = False
        tracer.write(OUT / f"spans-{name}.npz", keep.spans)
    else:
        # Per request, the median over repetitions; summed over the sequence.
        wall_s = sum(median([r.times[i] for r in plain]) for i in range(len(first.times)))
        while len(speed.samples) < 5:
            speed.sample()
        host = {
            "setup_s": median(setups),
            "wall_s": wall_s,
            "epoch_p50_ms": 1e3 * percentile(request_samples, 50),
            "epoch_p90_ms": 1e3 * p90,
        }
        factor = speed.factor
        record["end_to_end"] = {
            **{key: [value * factor, "s" if key.endswith("_s") else "ms"] for key, value in host.items()},
            "peak_rss_mb": [peak_rss_mb, "MB"],
            "sim_mcycles": [sum(first.cycles) / 1e6, "Mcycles"],
        }
        record["host_seconds"] = {f"raw.{key}": value for key, value in host.items()}
        record["host_speed"] = {
            "factor": factor,
            "probe_samples": len(speed.samples),
            "probe_median_s": median(speed.samples),
        }
        record["derived"] = {"sim.instr_per_host_s": first.counters["isa.scu.instructions"] / wall_s}
        if name == "count-bursts":
            record["reference_points"] = reference_points(wl, first, plain)
    record["run_s"] = time.perf_counter() - t_begin
    return record, problems


def serving_samples(wl, rep: Rep):
    """A seeded sample of one successful result per epoch."""
    rng = np.random.default_rng([wl.seed, 7])
    samples = []
    pos = 0
    for epoch, size in enumerate(rep.sizes):
        calls = rep.calls[pos : pos + size]
        pos += size
        ok = [c for c in calls if c.error is None and c.label != "stream_batch"]
        if ok:
            pick = ok[int(rng.integers(0, len(ok)))]
            key, name = pick.label.split("/")
            samples.append((epoch, key, name, pick.output))
    return samples


def per_layer_metrics(first: Rep, plain: list[Rep], keep: Rep, traced_wall_median: float) -> tuple[dict, dict]:
    """Per-layer metrics from ``keep``, the traced repetition whose wall
    time is the traced median, plus the modeled counters of the
    untraced run.

    Returns the reported metrics (each layer's calls and share of the
    traced wall) and each layer's self time in seconds.  Self times are
    reported as shares so that a layer a workload never enters reads as
    a zero ratio, not as a constant zero time."""
    traced_wall = keep.wall_s + keep.setup_s
    out: dict[str, list] = {}
    seconds = {}
    for layer, row in keep.layers.items():
        out[f"{layer}.calls"] = [row["calls"], "count"]
        out[f"{layer}.self_share"] = [row["self_s"] / traced_wall, "ratio"]
        seconds[f"{layer}.self_s"] = row["self_s"]
    c = first.counters
    gets = c.get("session.cache.gets", 0)
    smb_total = c["isa.smb.hits"] + c["isa.smb.misses"]
    plain_wall = median([r.wall_s for r in plain])
    out.update(
        {
            "runtime.batch.operands": [keep.operands, "count"],
            "session.executor.fused_macros": [c["session.executor.fused_macros"], "count"],
            "session.cache.gets": [gets, "count"],
            "session.cache.hits": [c.get("session.cache.hits", 0), "count"],
            "session.cache.hit_ratio": [c.get("session.cache.hits", 0) / gets if gets else 0.0, "ratio"],
            "streaming.batches": [c.get("streaming.batches", 0), "count"],
            "streaming.edges": [c.get("streaming.edges", 0), "count"],
            "streaming.full_repeels": [c.get("streaming.full_repeels", 0), "count"],
            "streaming.repairs": [c.get("streaming.repairs", 0), "count"],
        }
    )
    for key in ("instructions", "pum_ops", "pnm_ops", "host_ops", "gallop_picks", "merge_picks"):
        out[f"isa.scu.{key}"] = [c[f"isa.scu.{key}"], "count"]
    out["isa.smb.hits"] = [c["isa.smb.hits"], "count"]
    out["isa.smb.misses"] = [c["isa.smb.misses"], "count"]
    out["isa.smb.hit_rate"] = [c["isa.smb.hits"] / smb_total if smb_total else 0.0, "ratio"]
    out["hw.engine.stall_fraction"] = [c["hw.engine.stall_fraction"], "ratio"]
    out["sim.instr_per_host_s"] = [c["isa.scu.instructions"] / plain_wall, "1/s"]
    out["trace.overhead"] = [traced_wall_median / plain_wall - 1.0, "ratio"]
    out["trace.wall_s"] = [traced_wall, "s"]
    out["trace.unattributed_s"] = [traced_wall - sum(seconds.values()), "s"]
    out["trace.spans"] = [int(keep.spans["span"].size), "count"]
    return out, seconds


def reference_points(wl, first: Rep, plain: list[Rep]) -> dict:
    """Outside reference points on the count-bursts graph (never gated)."""
    import networkx as nx

    import oracles

    g = oracles.nx_graph(wl.graph)
    edges = wl.graph.edge_array()

    def median_of(fn, k=3):
        times = []
        for __ in range(k):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return median(times)

    tri_idx = [i for i, c in enumerate(first.calls) if c.label == "triangles"]
    program = median([r.times[i] for r in plain for i in tri_idx])
    return {
        "program_triangles_s": program,
        "networkx_triangles_s": median_of(lambda: sum(nx.triangles(g).values()) // 3),
        "numpy_vectorized_triangles_s": median_of(
            lambda: oracles.numpy_triangles(edges, wl.graph.num_vertices)
        ),
    }


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, seconds: float, smoke: bool) -> dict:
    import networkx

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    }


def print_record(record: dict) -> None:
    name = record["workload"]
    print(f"== {name}  seed={record['seed']}  profile={record['profile']}  trace={record['trace']}")
    for section in ("end_to_end", "per_layer"):
        for metric, (value, unit) in record[section].items():
            print(f"  {metric:<36} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<36} {record['error_rate']:>16.6g} ratio "
          f"({record['failed']} of {record['attempted']} calls)")
    for metric, value in record.get("layer_self_s", {}).items():
        print(f"  {metric:<36} {value:>16.6g} s")
    for key in ("host_seconds", "host_speed", "derived", "reference_points"):
        for metric, value in record.get(key, {}).items():
            print(f"  {metric:<36} {value:>16.6g}")
    if "cache_served_share" in record:
        print(f"  {'cache_served_share':<36} {record['cache_served_share']:>16.6g} ratio")
    print("  samples: " + json.dumps(record["samples"]))
    print("  provenance: " + json.dumps(record["provenance"]))
    if record["trace"]:
        print("  note: session.executor.self_s also covers the algorithm drivers "
              "(repro.algorithms) and the plan stage generators (session/workloads.py)")
    for problem in record["problems"]:
        print(f"  MISMATCH: {problem}")


def result_line(records: list[dict], prefix: bool) -> dict:
    correct = all(r["correct"] for r in records)
    metrics = {}
    if correct:
        for r in records:
            section = r["per_layer"] if r["trace"] else r["end_to_end"]
            for metric, (value, unit) in section.items():
                key = f"{r['workload']}.{metric}" if prefix else metric
                metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-s", "--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measurement budget per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("-x", "--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="after a deliberate model change: store this seed's "
                             "sim_mcycles and output digest as the reference")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    selected = args.workload or list(WORKLOADS)
    if len(selected) > 1:
        records = []
        for name in selected:
            cmd = [sys.executable, str(Path(__file__).resolve()), "-s", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["-x"] if args.smoke else []) + (
                   ["--record-reference"] if args.record_reference else [])
            record_path = OUT / f"record-{name}-trace{args.trace}.json"
            record_path.unlink(missing_ok=True)
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            if done.returncode not in (0, 1) or not record_path.exists():
                print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
                return 2
            records.append(json.loads(record_path.read_text()))
        print(json.dumps(result_line(records, prefix=True)))
        return 0 if all(r["correct"] for r in records) else 1
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    record, problems = run_workload(selected[0], args.seed, args.seconds, bool(args.trace),
                                    args.smoke, args.record_reference)
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{selected[0]}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    print(json.dumps(result_line([record], prefix=False)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
