"""The three benchmark workloads: seeded inputs, set-up and call sequence.

Every input (graphs, pair lists, edge streams, request draws) is
generated here from the workload seed; the program under test only
receives the generated inputs, through its public session, pool and
stream APIs.  Each workload is driven by one closed-loop client in one
process: the next request is issued only after the previous one
returned.

A workload object holds the generated inputs.  ``setup()`` builds a
fresh rig (graph in hand -> sessions with every structure the workload
reads); ``requests(rig)`` yields the fixed request sequence as
zero-argument callables that return the request's list of
:class:`Call` outcomes.  A request is one ``session.run`` call for the
two single-client workloads and one epoch (stream batch + submits +
``pool.run()``) for ``serving-mix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import networkx as nx
import numpy as np

from repro.algorithms.subgraph_iso import star_pattern
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import chung_lu_graph, gnp_random_graph
from repro.graphs.streams import churn_stream
from repro.session import SessionPool, SisaSession

WORKLOADS = ("count-bursts", "recursive-scalar", "serving-mix")


@dataclass
class Call:
    """The outcome of one workload call (one plan or one session run)."""

    label: str
    output: Any = None
    error: str | None = None  # exception or FailedResult, as text
    cached: bool = False  # served from the result cache or batch dedup


@dataclass
class Rig:
    """What ``setup()`` built: the sessions whose machines the request
    sequence charges, plus workload-specific handles."""

    sessions: list[SisaSession]
    handles: dict[str, Any] = field(default_factory=dict)


def _run_call(session: SisaSession, name: str, params: dict) -> Call:
    try:
        return Call(name, session.run(name, **params).output)
    except Exception as exc:  # counted in error_rate; the run goes on
        return Call(name, error=f"{type(exc).__name__}: {exc}")


def distinct_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` vertex pairs ``(u, v)`` with ``u != v``, drawn uniformly."""
    u = rng.integers(0, n, size=count)
    v = (u + rng.integers(1, n, size=count)) % n
    return np.column_stack([u, v]).astype(np.int64)


def _regular_graph(n: int, d: int, seed: int) -> CSRGraph:
    graph = nx.random_regular_graph(d, n, seed=seed)
    return CSRGraph.from_edges(n, np.asarray(sorted(graph.edges()), dtype=np.int64))


class CountBursts:
    """Warm uncached count-form bursts on the ROADMAP headline graph.

    Exercises the batched path (``SisaContext`` count bursts ->
    ``Scu.dispatch_binary_batch`` -> ``runtime.batch`` flat kernels ->
    ``ExecutionEngine.charge_batch``).  Power-law hubs cross the DB
    threshold, so both set representations and both PIM backends run.
    The result cache is off and observability stays off, so the cache,
    fusion and telemetry layers are bypassed.
    """

    name = "count-bursts"
    CALLS = ("triangles", "clustering_coefficient", "local_clustering", "similarity_pairs")
    ROUNDS = 2

    def __init__(self, seed: int, smoke: bool = False):
        n, m, pairs = (600, 1_800, 300) if smoke else (20_000, 60_000, 20_000)
        self.seed, self.smoke = seed, smoke
        self.graph = chung_lu_graph(n, m, gamma=2.2, seed=seed)
        self.pairs = distinct_pairs(np.random.default_rng([seed, 1]), n, pairs)
        self.sizes = {"n": n, "m": self.graph.num_edges, "pairs": pairs}

    def setup(self) -> Rig:
        session = SisaSession(self.graph, result_cache=False)
        session.setgraph
        session.oriented_setgraph
        return Rig([session])

    def params(self, name: str) -> dict:
        if name == "similarity_pairs":
            return {"pairs": self.pairs, "measure": "jaccard"}
        return {}

    def requests(self, rig: Rig):
        (session,) = rig.sessions
        for __ in range(self.ROUNDS):
            for name in self.CALLS:
                params = self.params(name)
                yield lambda name=name, params=params: [_run_call(session, name, params)]


class RecursiveScalar:
    """Scalar per-instruction recursion: VF2, Bron-Kerbosch, k-clique.

    Exercises ``SisaContext._binary``/``_count`` -> ``sets.kernels`` ->
    ``Scu.dispatch_binary`` -> ``ExecutionEngine.charge`` with
    DenseBitvector create/delete churn; almost nothing is batched.

    The VF2 target is a random 7-regular graph on 32 vertices (density
    0.226, the density of G(32, 0.22)).  VF2's work tracks the degree
    sequence, and G(n, p)'s degree spread made its modeled cycles swing
    between 6 and 15 Mcycles across seeds; a fixed degree sequence
    keeps every seed the same size.
    """

    name = "recursive-scalar"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed, self.smoke = seed, smoke
        if smoke:
            vf2_n, vf2_d, n, m = 14, 4, 300, 2_400
            self.max_cliques, self.max_kcliques = 300, 1_000
        else:
            vf2_n, vf2_d, n, m = 32, 7, 1_700, 34_000
            self.max_cliques, self.max_kcliques = 3_000, 20_000
        self.vf2_graph = _regular_graph(vf2_n, vf2_d, seed)
        self.graph = chung_lu_graph(n, m, gamma=2.2, seed=seed)
        self.pattern = star_pattern(3)
        self.sizes = {
            "vf2_n": vf2_n,
            "vf2_m": self.vf2_graph.num_edges,
            "n": n,
            "m": self.graph.num_edges,
            "max_cliques": self.max_cliques,
            "max_kcliques": self.max_kcliques,
        }

    def setup(self) -> Rig:
        vf2 = SisaSession(self.vf2_graph, result_cache=False)
        vf2.setgraph
        cliques = SisaSession(self.graph, result_cache=False)
        cliques.setgraph
        cliques.degeneracy
        cliques.oriented_setgraph
        return Rig([vf2, cliques])

    def requests(self, rig: Rig):
        vf2, cliques = rig.sessions
        for name, session, params in (
            ("subgraph_iso", vf2, {"pattern": self.pattern}),
            ("maximal_cliques", cliques, {"max_patterns": self.max_cliques}),
            ("kclique", cliques, {"k": 5, "max_patterns": self.max_kcliques}),
        ):
            yield lambda name=name, session=session, params=params: [
                _run_call(session, name, params)
            ]


class ServingMix:
    """A deployed multi-tenant server: strict ``SessionPool`` with
    fusion, the result cache and observability on, 8 tenants, one
    streaming session (1% churn per epoch, maintained orientation) and
    one static session.

    The only workload where request validation, plan compilation, the
    pool, the fused ``PlanExecutor`` path, the result cache and the
    observability hub do real work.  Stream writes invalidate the
    stream session's cached results and oriented sets between reads.
    """

    name = "serving-mix"
    TENANTS = 8
    DRAWS = 3
    MIX = (
        "triangles",
        "clustering_coefficient",
        "local_clustering",
        "kclique",
        "bfs",
        "similarity_pairs",
    )

    def __init__(self, seed: int, smoke: bool = False):
        self.seed, self.smoke = seed, smoke
        self.epochs = 12 if smoke else 100
        watch = 64 if smoke else 256
        rng = np.random.default_rng([seed, 3])
        self.graphs = {
            "stream": chung_lu_graph(200, 800, gamma=2.2, seed=seed),
            "static": gnp_random_graph(150, 0.06, seed=seed + 1),
        }
        self.stream = churn_stream(
            self.graphs["stream"], churn=0.01, num_batches=self.epochs, seed=seed + 2
        )
        self.params = {
            key: {
                "triangles": {},
                "clustering_coefficient": {},
                "local_clustering": {},
                "kclique": {"k": 3},
                "bfs": {"root": int(rng.integers(0, g.num_vertices))},
                "similarity_pairs": {
                    "pairs": distinct_pairs(rng, g.num_vertices, watch),
                    "measure": "jaccard",
                },
            }
            for key, g in self.graphs.items()
        }
        # draws[epoch][tenant][d] = (session key, workload name)
        keys = np.asarray(sorted(self.graphs))
        picks = rng.integers(0, len(keys), size=(self.epochs, self.TENANTS, self.DRAWS))
        names = rng.integers(0, len(self.MIX), size=picks.shape)
        self.draws = [
            [
                [(str(keys[picks[e, t, d]]), self.MIX[names[e, t, d]]) for d in range(self.DRAWS)]
                for t in range(self.TENANTS)
            ]
            for e in range(self.epochs)
        ]
        self.sizes = {
            "epochs": self.epochs,
            "tenants": self.TENANTS,
            "draws_per_tenant": self.DRAWS,
            "stream_n": self.graphs["stream"].num_vertices,
            "stream_m": self.graphs["stream"].num_edges,
            "churn_edges_per_epoch": int(self.stream.batches[0].deletions.shape[0]),
            "static_n": self.graphs["static"].num_vertices,
            "static_m": self.graphs["static"].num_edges,
            "watchlist_pairs": watch,
        }

    def setup(self) -> Rig:
        pool = SessionPool(observability=True)
        stream_session = pool.session("stream", self.graphs["stream"])
        static_session = pool.session("static", self.graphs["static"])
        for session in (stream_session, static_session):
            session.setgraph
            session.oriented_setgraph
        dynamic = stream_session.attach_stream()
        stream_session.maintain_orientation()
        return Rig([stream_session, static_session], {"pool": pool, "dynamic": dynamic})

    def _epoch(self, rig: Rig, epoch: int) -> list[Call]:
        pool = rig.handles["pool"]
        calls = []
        try:
            rig.handles["dynamic"].apply_batch(self.stream.batches[epoch])
            calls.append(Call("stream_batch", epoch))
        except Exception as exc:
            calls.append(Call("stream_batch", error=f"{type(exc).__name__}: {exc}"))
        submitted = []
        for t, draws in enumerate(self.draws[epoch]):
            for key, name in draws:
                label = f"{key}/{name}"
                try:
                    pool.submit(key, name, tenant=f"t{t}", **self.params[key][name])
                    submitted.append(label)
                except Exception as exc:
                    calls.append(Call(label, error=f"{type(exc).__name__}: {exc}"))
        try:
            results = pool.run()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            return calls + [Call(label, error=error) for label in submitted]
        for label, result in zip(submitted, results):
            if result.ok:
                calls.append(Call(label, result.output, cached=result.cached))
            else:
                calls.append(Call(label, error=f"FailedResult: {result.reason}"))
        return calls

    def requests(self, rig: Rig):
        for epoch in range(self.epochs):
            yield lambda epoch=epoch: self._epoch(rig, epoch)


def make_workload(name: str, seed: int, smoke: bool = False):
    classes = {cls.name: cls for cls in (CountBursts, RecursiveScalar, ServingMix)}
    return classes[name](seed, smoke)
