"""Tests for the non-set baselines and the paradigm frameworks:
functional agreement with the set-centric implementations, plus the
expected timing relationships."""

import networkx as nx
import pytest

from repro.algorithms.subgraph_iso import star_pattern
from repro.baselines.frameworks import (
    peregrine_like_kclique,
    peregrine_like_maximal_cliques,
    rstream_like_kclique,
)
from repro.baselines.nonset import (
    bfs_nonset,
    four_clique_count_nonset,
    jarvis_patrick_nonset,
    kclique_count_nonset,
    kclique_star_nonset,
    maximal_cliques_nonset,
    subgraph_isomorphism_nonset,
    triangle_count_nonset,
)
from repro.graphs.generators import complete_graph, gnp_random_graph
from repro.session import SisaSession

from conftest import to_networkx


class TestFunctionalAgreement:
    def test_triangles(self, random_graph):
        assert (
            triangle_count_nonset(random_graph, threads=4).output
            == SisaSession(random_graph, threads=4).run("triangles").output
        )

    def test_maximal_cliques(self, random_graph):
        a = maximal_cliques_nonset(random_graph, threads=4).output
        b = SisaSession(random_graph, threads=4).run("maximal_cliques").output
        assert sorted(a) == sorted(b)

    @pytest.mark.parametrize("k", [3, 4])
    def test_kclique(self, random_graph, k):
        assert (
            kclique_count_nonset(random_graph, k, threads=4).output
            == SisaSession(random_graph, threads=4).run("kclique", k=k).output
        )

    def test_four_clique(self, dense_graph):
        assert (
            four_clique_count_nonset(dense_graph, threads=4).output
            == SisaSession(dense_graph, threads=4).run("four_clique").output
        )

    def test_kclique_star(self, dense_graph):
        a = kclique_star_nonset(dense_graph, 3, threads=2).output
        b = SisaSession(dense_graph, threads=2).run(
            "kclique_star", k=3, variant="from_k1"
        ).output
        assert a == b

    def test_subgraph_isomorphism(self):
        g = gnp_random_graph(20, 0.3, seed=6)
        pattern = star_pattern(2)
        assert (
            subgraph_isomorphism_nonset(g, pattern, threads=2).output
            == SisaSession(g, threads=2).run(
                "subgraph_iso", pattern=pattern
            ).output
        )

    def test_clustering(self, random_graph):
        a = jarvis_patrick_nonset(random_graph, tau=2.0, threads=4).output
        b = SisaSession(random_graph, threads=4).run(
            "jarvis_patrick", tau=2.0
        ).output["edges"]
        assert a == b

    def test_bfs_depths(self, random_graph):
        nxg = to_networkx(random_graph)
        expected = nx.single_source_shortest_path_length(nxg, 0)
        parent = bfs_nonset(random_graph, 0, threads=4).output
        for v in range(random_graph.num_vertices):
            assert (parent[v] != -1) == (v in expected)


class TestFrameworks:
    def test_peregrine_kclique_counts(self, dense_graph):
        expected = SisaSession(dense_graph, threads=2).run(
            "kclique", k=3
        ).output
        run = peregrine_like_kclique(dense_graph, 3, threads=2)
        assert run.output == expected

    def test_rstream_kclique_counts(self, dense_graph):
        expected = SisaSession(dense_graph, threads=2).run(
            "kclique", k=4
        ).output
        run = rstream_like_kclique(dense_graph, 4, threads=2)
        assert run.output == expected

    def test_peregrine_maximal_cliques(self):
        g = gnp_random_graph(16, 0.4, seed=8)
        run = SisaSession(g, threads=2).run("maximal_cliques")
        expected = sorted(run.output)
        run = peregrine_like_maximal_cliques(g, threads=2)
        assert sorted(run.output) == expected

    def test_paradigms_much_slower_than_sisa(self, dense_graph):
        """The paper: 10-100x slower than SISA (and >100x for joins)."""
        sisa = SisaSession(dense_graph, threads=8).run("kclique", k=4)
        peregrine = peregrine_like_kclique(dense_graph, 4, threads=8)
        rstream = rstream_like_kclique(dense_graph, 4, threads=8)
        assert peregrine.runtime_cycles > 5 * sisa.runtime_cycles
        assert rstream.runtime_cycles > 5 * sisa.runtime_cycles


class TestTimingShape:
    """The Fig. 6 ordering on a heavy-tailed graph at full parallelism."""

    @pytest.fixture(scope="class")
    def heavy(self):
        from repro.graphs.generators import planted_clique_graph

        return planted_clique_graph(
            400, 8000, num_cliques=6, clique_size=14, gamma=1.9, seed=10
        )

    def test_sisa_beats_cpu_set(self, heavy):
        sisa = SisaSession(heavy, threads=32).run(
            "kclique", k=4, max_patterns=20_000
        )
        cpu = SisaSession(heavy, threads=32, mode="cpu-set").run(
            "kclique", k=4, max_patterns=20_000
        )
        assert sisa.runtime_cycles < cpu.runtime_cycles

    def test_sisa_beats_nonset(self, heavy):
        sisa = SisaSession(heavy, threads=32).run(
            "kclique", k=4, max_patterns=20_000
        )
        nonset = kclique_count_nonset(heavy, 4, threads=32, max_patterns=20_000)
        assert sisa.runtime_cycles < nonset.runtime_cycles

    def test_clustering_nonset_beats_cpu_set(self, heavy):
        """The paper's nuance: for simple clustering the tuned non-set
        baseline outperforms the set-based variant, while SISA wins."""
        sisa = SisaSession(heavy, threads=32).run("jarvis_patrick", tau=3.0)
        cpu = SisaSession(heavy, threads=32, mode="cpu-set").run(
            "jarvis_patrick", tau=3.0
        )
        nonset = jarvis_patrick_nonset(heavy, tau=3.0, threads=32)
        assert sisa.runtime_cycles < nonset.runtime_cycles < cpu.runtime_cycles
