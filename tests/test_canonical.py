"""Canonical graph keys: invariance, separation, round-trips, the memo."""

import random

import networkx as nx
import numpy as np
import pytest

from repro.core.traffic import TrafficMatrix
from repro.graphs.canonical import (
    adjacency_stack,
    canonical_cache_clear,
    canonical_cache_info,
    canonical_graph,
    canonical_key,
    canonical_labelling,
    decode_key,
    key_of_masks,
    masks_of_graph,
)


def _relabel(graph: nx.Graph, rng: random.Random) -> nx.Graph:
    nodes = list(graph.nodes)
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    return nx.relabel_nodes(graph, mapping)


def _permuted_weights(weights, mapping, n):
    permuted = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(n):
            permuted[mapping[u]][mapping[v]] = weights[u][v]
    return permuted


class TestStructuralInvariance:
    def test_relabeling_invariance_fuzz(self):
        rng = random.Random(20230711)
        for trial in range(60):
            n = rng.randint(1, 9)
            graph = nx.gnp_random_graph(n, rng.random(), seed=rng.randint(0, 10**9))
            key = canonical_key(graph)
            for _ in range(3):
                assert canonical_key(_relabel(graph, rng)) == key

    def test_symmetric_families(self):
        # highly symmetric graphs are the branching worst case — the twin
        # pruning must both keep them fast and keep the key invariant
        rng = random.Random(7)
        for graph in (
            nx.complete_graph(9),
            nx.star_graph(8),
            nx.cycle_graph(9),
            nx.complete_bipartite_graph(4, 5),
            nx.empty_graph(6),
        ):
            key = canonical_key(graph)
            for _ in range(3):
                assert canonical_key(_relabel(graph, rng)) == key

    def test_non_isomorphic_atlas_separation(self):
        # the atlas is the oracle: distinct isomorphism classes on n <= 6
        # nodes must map to distinct keys, exhaustively
        from repro.graphs.generation import all_connected_graphs

        for n in range(1, 7):
            graphs = list(all_connected_graphs(n))
            keys = {canonical_key(graph) for graph in graphs}
            assert len(keys) == len(graphs)

    def test_keys_embed_node_count(self):
        assert canonical_key(nx.path_graph(3)) != canonical_key(
            nx.path_graph(4)
        )

    def test_rejects_non_canonical_labels(self):
        graph = nx.Graph([("a", "b")])
        with pytest.raises(ValueError):
            canonical_key(graph)


class TestJointWeightedKeys:
    def test_joint_invariance_fuzz(self):
        rng = random.Random(42)
        for trial in range(30):
            n = rng.randint(2, 7)
            graph = nx.gnp_random_graph(n, rng.random(), seed=rng.randint(0, 10**9))
            weights = np.array(
                [
                    [0 if u == v else rng.randint(0, 5) for v in range(n)]
                    for u in range(n)
                ],
                dtype=np.int64,
            )
            key = canonical_key(graph, weights)
            for _ in range(3):
                nodes = list(range(n))
                rng.shuffle(nodes)
                mapping = dict(zip(range(n), nodes))
                assert (
                    canonical_key(
                        nx.relabel_nodes(graph, mapping),
                        _permuted_weights(weights, mapping, n),
                    )
                    == key
                )

    def test_demands_break_symmetry(self):
        # two labelled paths, isomorphic as graphs, distinct once the
        # demand matrix pins which endpoint is the heavy sender
        path = nx.path_graph(3)
        heavy_end = np.array(
            [[0, 0, 9], [0, 0, 0], [9, 0, 0]], dtype=np.int64
        )
        heavy_mid = np.array(
            [[0, 9, 0], [9, 0, 0], [0, 0, 0]], dtype=np.int64
        )
        assert canonical_key(path) == canonical_key(path)
        assert canonical_key(path, heavy_end) != canonical_key(
            path, heavy_mid
        )

    def test_uniform_traffic_collapses_to_structure(self):
        # a symmetric constant demand matrix adds no information: joint
        # keys separate exactly the same classes the structural keys do
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 6)
            uniform = TrafficMatrix.uniform(n)
            a = nx.gnp_random_graph(n, 0.5, seed=rng.randint(0, 10**9))
            b = nx.gnp_random_graph(n, 0.5, seed=rng.randint(0, 10**9))
            structural = canonical_key(a) == canonical_key(b)
            joint = canonical_key(a, uniform) == canonical_key(b, uniform)
            assert structural == joint

    def test_accepts_traffic_matrix_and_raw(self):
        graph = nx.path_graph(4)
        traffic = TrafficMatrix.hub_spoke(4, [0])
        assert canonical_key(graph, traffic) == canonical_key(
            graph, traffic.weights
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            canonical_key(nx.path_graph(3), np.zeros((4, 4), dtype=np.int64))

    def test_bad_demands_rejected_naming_the_entry(self):
        # a truncated 1.5 would share the key of the matrix holding 1, and
        # negative or oversized entries cannot round-trip through the key
        path = nx.path_graph(3)
        ones = np.ones((3, 3), dtype=np.int64)
        for bad in (1.5, -1, 2**63, 2**64, float("nan")):
            weights = ones.astype(object)
            weights[0, 2] = bad
            for keying in (canonical_key, canonical_labelling):
                with pytest.raises(ValueError, match=r"W\[0, 2\]"):
                    keying(path, weights)
        floats = ones.astype(float)
        floats[1, 2] = 1.5
        with pytest.raises(ValueError, match=r"W\[1, 2\] = 1\.5"):
            canonical_key(path, floats)

    def test_integral_floats_and_the_int64_edge_accepted(self):
        path = nx.path_graph(3)
        ones = np.ones((3, 3), dtype=np.int64)
        assert canonical_key(path, ones.astype(float)) == canonical_key(
            path, ones
        )
        numpy_scalars = np.empty((3, 3), dtype=object)
        for index in np.ndindex(3, 3):
            numpy_scalars[index] = np.int64(1)
        assert canonical_key(path, numpy_scalars) == canonical_key(path, ones)
        widest = ones.astype(object)
        widest[0, 2] = 2**63 - 1
        key = canonical_key(path, widest)
        decoded, weights = decode_key(key)
        assert canonical_key(decoded, weights) == key
        assert int(weights.max()) == 2**63 - 1


class TestRoundTrips:
    def test_structural_round_trip(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 8)
            graph = nx.gnp_random_graph(n, rng.random(), seed=rng.randint(0, 10**9))
            key = canonical_key(graph)
            decoded, weights = decode_key(key)
            assert weights is None
            assert canonical_key(decoded) == key

    def test_weighted_round_trip(self):
        graph = nx.path_graph(4)
        traffic = TrafficMatrix.hub_spoke(4, [1])
        key = canonical_key(graph, traffic)
        decoded, weights = decode_key(key)
        assert weights is not None
        assert canonical_key(decoded, weights) == key

    def test_canonical_graph_idempotent(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 8)
            graph = nx.gnp_random_graph(n, rng.random(), seed=rng.randint(0, 10**9))
            representative = canonical_graph(graph)
            assert nx.is_isomorphic(representative, graph)
            again = canonical_graph(representative)
            assert nx.utils.graphs_equal(again, representative)

    def test_key_of_masks_matches_graph_path(self):
        graph = nx.cycle_graph(5)
        assert key_of_masks(5, masks_of_graph(graph)) == canonical_key(graph)

    def test_adjacency_stack_matches_decode_key(self):
        # n = 1..9: no pair bits, a partial last byte, and whole bytes
        rng = random.Random(17)
        for n in range(1, 10):
            keys = [
                canonical_key(nx.gnp_random_graph(n, p, seed=rng.randint(0, 99)))
                for p in (0.0, 0.3, 0.6, 1.0)
            ]
            stack = adjacency_stack(keys)
            assert stack.shape == (4, n, n) and stack.dtype == bool
            for row, key in zip(stack, keys):
                decoded = nx.to_numpy_array(
                    decode_key(key)[0], nodelist=range(n), dtype=bool
                )
                assert (row == decoded).all()

    def test_adjacency_stack_refuses_mixed_keys(self):
        five, six = (canonical_key(nx.path_graph(n)) for n in (5, 6))
        weighted = canonical_key(nx.path_graph(5), TrafficMatrix.uniform(5))
        for keys in ([five, six], [six, five], [five, weighted]):
            with pytest.raises(ValueError, match="one node count"):
                adjacency_stack(keys)


class TestMemo:
    def test_hits_and_misses_counted(self):
        canonical_cache_clear()
        graph = nx.path_graph(5)
        canonical_key(graph)
        hits, misses, size = canonical_cache_info()
        assert (hits, misses, size) == (0, 1, 1)
        canonical_key(nx.path_graph(5))
        hits, misses, size = canonical_cache_info()
        assert (hits, misses, size) == (1, 1, 1)
        canonical_cache_clear()
        assert canonical_cache_info() == (0, 0, 0)

    def test_weighted_and_structural_entries_distinct(self):
        canonical_cache_clear()
        graph = nx.path_graph(3)
        canonical_key(graph)
        canonical_key(graph, TrafficMatrix.uniform(3))
        _, misses, size = canonical_cache_info()
        assert (misses, size) == (2, 2)
