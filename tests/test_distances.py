"""Tests for the distance engine (repro.graphs.distances)."""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmodel import UNIFORM_LINEAR
from repro.core.state import GameState
from repro.equilibria.add import add_gain
from repro.equilibria.remove import removal_loss
from repro.graphs.distances import (
    DistanceMatrix,
    apsp_matrix,
    canonical_labels,
    single_source_distances,
)
from repro.graphs.generation import random_connected_gnp

UNREACHABLE = 10**6


def nx_apsp(graph: nx.Graph) -> np.ndarray:
    n = graph.number_of_nodes()
    dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for source, lengths in nx.all_pairs_shortest_path_length(graph):
        for target, value in lengths.items():
            dist[source, target] = value
    return dist


@st.composite
def connected_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.floats(min_value=0.0, max_value=0.5))
    return random_connected_gnp(n, p, random.Random(seed))


class TestApspMatrix:
    def test_path(self):
        dist = apsp_matrix(nx.path_graph(4), UNREACHABLE)
        assert dist[0, 3] == 3
        assert dist[1, 2] == 1
        assert (np.diag(dist) == 0).all()

    def test_disconnected_pairs_get_unreachable(self):
        graph = nx.empty_graph(3)
        graph.add_edge(0, 1)
        dist = apsp_matrix(graph, UNREACHABLE)
        assert dist[0, 2] == UNREACHABLE
        assert dist[2, 1] == UNREACHABLE
        assert dist[0, 1] == 1

    def test_edgeless(self):
        dist = apsp_matrix(nx.empty_graph(3), UNREACHABLE)
        assert (np.diag(dist) == 0).all()
        assert dist[0, 1] == UNREACHABLE

    def test_rejects_noncanonical_nodes(self):
        graph = nx.Graph([("a", "b")])
        with pytest.raises(ValueError):
            apsp_matrix(graph, UNREACHABLE)

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, graph):
        ours = apsp_matrix(graph, UNREACHABLE)
        assert (ours == nx_apsp(graph)).all()

    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_triangle_inequality(self, graph):
        dist = apsp_matrix(graph, UNREACHABLE)
        assert (dist == dist.T).all()
        n = graph.number_of_nodes()
        for k in range(n):
            via_k = dist[:, k][:, None] + dist[k][None, :]
            assert (dist <= via_k).all()

    def test_big_m_sentinel_survives_exactly(self):
        """Regression: sentinels above 2**53 must not round-trip through
        float64 (float(2**53 + 1) == 2**53 would corrupt the big constant)."""
        sentinel = 2**53 + 1
        assert int(float(sentinel)) != sentinel  # the trap being guarded
        graph = nx.empty_graph(3)
        graph.add_edge(0, 1)
        dist = apsp_matrix(graph, sentinel)
        assert dist[0, 2] == sentinel
        assert dist[2, 1] == sentinel
        assert dist[0, 1] == 1

    def test_big_m_sentinel_near_int64_boundary(self):
        sentinel = 2**62 - 3  # largest class of sentinels callers may use
        graph = nx.empty_graph(2)
        dist = apsp_matrix(graph, sentinel)
        assert dist[0, 1] == sentinel


class TestSingleSource:
    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_matches_apsp_row(self, graph):
        dist = apsp_matrix(graph, UNREACHABLE)
        for source in range(graph.number_of_nodes()):
            row = single_source_distances(graph, source, UNREACHABLE)
            assert (row == dist[source]).all()

    def test_isolated_source(self):
        graph = nx.empty_graph(3)
        graph.add_edge(1, 2)
        row = single_source_distances(graph, 0, UNREACHABLE)
        assert row[0] == 0
        assert row[1] == UNREACHABLE

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx_single_source(self, graph):
        """Cross-check the vectorised BFS against networkx levels."""
        for source in range(graph.number_of_nodes()):
            row = single_source_distances(graph, source, UNREACHABLE)
            expected = nx.single_source_shortest_path_length(graph, source)
            for node in graph:
                assert row[node] == expected.get(node, UNREACHABLE)

    def test_big_sentinel_exact(self):
        graph = nx.empty_graph(3)
        graph.add_edge(0, 1)
        sentinel = 2**53 + 1
        row = single_source_distances(graph, 0, sentinel)
        assert row[2] == sentinel


class TestAdjacencyCsr:
    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx_adjacency(self, graph):
        from repro.graphs.distances import adjacency_csr

        ours = adjacency_csr(graph).toarray()
        expected = nx.to_numpy_array(graph, nodelist=range(len(graph)))
        assert (ours == expected).all()

    def test_edgeless(self):
        from repro.graphs.distances import adjacency_csr

        csr = adjacency_csr(nx.empty_graph(4))
        assert csr.shape == (4, 4)
        assert csr.nnz == 0


class TestIncrementalAdd:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_add_identity_is_exact(self, graph):
        """apply_add's row min(d_u, 1 + d_v) equals a fresh BFS after
        adding uv."""
        dm = DistanceMatrix(graph.copy(), UNREACHABLE)
        non_edges = [
            (u, v)
            for u in graph
            for v in graph
            if u < v and not graph.has_edge(u, v)
        ]
        for u, v in non_edges[:5]:
            token = dm.apply_add(u, v)
            mutated = graph.copy()
            mutated.add_edge(u, v)
            actual = single_source_distances(mutated, u, UNREACHABLE)
            assert (dm.row(u) == actual).all()
            dm.undo(token)

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_gain_matches_recomputation(self, graph):
        state = GameState(graph, 1)
        dist = state.dist_matrix
        non_edges = [
            (u, v)
            for u in graph
            for v in graph
            if u != v and not graph.has_edge(u, v)
        ]
        for u, v in non_edges[:5]:
            mutated = graph.copy()
            mutated.add_edge(u, v)
            recomputed = single_source_distances(mutated, u, UNREACHABLE)
            expected = int(dist[u].sum() - recomputed.sum())
            assert add_gain(state, u, v) == expected

    def test_gain_nonnegative(self):
        state = GameState(nx.path_graph(6), 1)
        assert add_gain(state, 0, 5) > 0
        assert add_gain(state, 0, 2) >= 0


class TestRemoval:
    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_removal_vector_matches_recomputation(self, graph):
        dm = DistanceMatrix(graph, UNREACHABLE)
        for u, v in list(graph.edges)[:5]:
            predicted = dm.rows_after_remove_from(u, v, (u,))[0]
            mutated = graph.copy()
            mutated.remove_edge(u, v)
            # networkx's levels, not the walk the query itself runs
            assert (predicted == nx_apsp(mutated)[u]).all()
            assert graph.has_edge(u, v)  # graph untouched

    def test_missing_edge_rejected(self):
        dm = DistanceMatrix(nx.path_graph(3), UNREACHABLE)
        with pytest.raises(ValueError):
            dm.rows_after_remove_from(0, 2, (0,))


class TestDistanceMatrixClass:
    def test_totals_and_diameter(self):
        dm = DistanceMatrix(nx.path_graph(4), UNREACHABLE)
        assert UNIFORM_LINEAR.rows_value(dm.matrix)[0] == 1 + 2 + 3
        assert dm.diameter() == 3

    def test_remove_loss_on_cycle(self):
        state = GameState(nx.cycle_graph(5), 1)
        # breaking one edge turns the 5-cycle into a path: 6 -> 10
        assert removal_loss(state, 0, 1) == 4

    def test_add_gain_on_path_ends(self):
        state = GameState(nx.path_graph(5), 1)
        # closing the path into a cycle: dist(0) drops from 10 to 6
        assert add_gain(state, 0, 4) == 4


class TestCanonicalLabels:
    def test_string_nodes(self):
        graph = nx.Graph([("b", "a"), ("a", "c")])
        relabeled = canonical_labels(graph)
        assert set(relabeled.nodes) == {0, 1, 2}
        assert relabeled.number_of_edges() == 2

    def test_preserves_structure(self):
        graph = nx.star_graph(4)
        relabeled = canonical_labels(graph)
        assert nx.is_isomorphic(graph, relabeled)
