"""Layered enumeration: exact counts, atlas cross-validation, stability."""

import hashlib
import random

import networkx as nx
import pytest

from repro.core.concepts import Concept
from repro.core.traffic import TrafficMatrix
from repro.graphs.canonical import canonical_key, masks_of_graph
from repro.graphs import enumerate as enum_mod
from repro.graphs.enumerate import (
    connected_graph_layer,
    enumerate_connected_graphs,
    enumerate_labelled_trees,
    enumerate_trees,
    max_edge_count,
    tree_layer_keys,
)

# A000055 (trees) and A001349 (connected graphs), both from n = 1
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]
N8_LAYERS_SHA256 = (
    "e3379574b57cedb772cf61ce7ffc23e2e0932a3befc7cb26edfac4dad617d505"
)


class TestCounts:
    @pytest.mark.parametrize(
        "n,count", list(enumerate(TREE_COUNTS[:10], start=1))
    )
    def test_tree_counts(self, n, count):
        assert len(tree_layer_keys(n)) == count

    @pytest.mark.parametrize(
        "n,count", list(enumerate(CONNECTED_COUNTS, start=1))
    )
    def test_connected_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == count

    def test_layer_sizes_sum_to_family(self):
        n = 6
        total = sum(
            len(connected_graph_layer(n, m))
            for m in range(n - 1, max_edge_count(n) + 1)
        )
        assert total == CONNECTED_COUNTS[n - 1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tree_layer_keys(0)
        with pytest.raises(ValueError):
            connected_graph_layer(5, 3)  # below the tree layer
        with pytest.raises(ValueError):
            connected_graph_layer(5, 11)  # beyond the complete graph
        with pytest.raises(ValueError):
            list(enumerate_labelled_trees(0, None))


class TestAtlasCrossValidation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_connected_key_sets_match_atlas(self, n):
        # the networkx atlas (production path for n <= 7) is the oracle:
        # the layered enumerator must produce exactly the same canonical
        # key set, i.e. the same isomorphism classes, no more, no fewer
        from networkx.generators.atlas import graph_atlas_g

        atlas_keys = {
            canonical_key(nx.convert_node_labels_to_integers(graph))
            for graph in graph_atlas_g()
            if graph.number_of_nodes() == n and nx.is_connected(graph)
        }
        enum_keys = {
            canonical_key(graph)
            for graph in enumerate_connected_graphs(n)
        }
        assert enum_keys == atlas_keys

    def test_tree_keys_match_atlas_trees(self):
        from networkx.generators.atlas import graph_atlas_g

        for n in (4, 5, 6, 7):
            atlas_keys = {
                canonical_key(nx.convert_node_labels_to_integers(graph))
                for graph in graph_atlas_g()
                if graph.number_of_nodes() == n
                and nx.is_tree(graph)
            }
            assert set(tree_layer_keys(n)) == atlas_keys


class TestBitStability:
    def test_layers_identical_after_memo_flush(self):
        # enumeration order must be a pure function of (n, m): flushing
        # the per-process layer memos and re-deriving from scratch gives
        # byte-identical key tuples
        first_trees = tree_layer_keys(7)
        first_layer = connected_graph_layer(6, 9)
        enum_mod._TREE_LAYERS.clear()
        enum_mod._GRAPH_LAYERS.clear()
        assert tree_layer_keys(7) == first_trees
        assert connected_graph_layer(6, 9) == first_layer

    def test_layers_are_sorted(self):
        assert list(tree_layer_keys(8)) == sorted(tree_layer_keys(8))
        layer = connected_graph_layer(6, 8)
        assert list(layer) == sorted(layer)

    def test_yielded_graphs_are_canonical_representatives(self):
        for graph in enumerate_trees(7):
            assert canonical_key(graph) == canonical_key(graph.copy())
            assert set(graph.nodes) == set(range(7))
            assert nx.is_tree(graph)


class TestCanonicalAugmentation:
    """Only children whose new edge is a top cycle edge are keyed; the
    layers stay exactly what keying every child produced."""

    def test_n8_layers_match_the_pinned_digest(self):
        # SHA-256 over every key of every n = 8 layer, m = 7..28 in order,
        # as the enumerator produced them when it keyed every child
        digest = hashlib.sha256()
        count = 0
        for m in range(7, max_edge_count(8) + 1):
            for key in connected_graph_layer(8, m):
                digest.update(key)
                count += 1
        assert count == 11117
        assert digest.hexdigest() == N8_LAYERS_SHA256

    def test_cold_n7_sweep_keys_few_children(self, monkeypatch):
        keyed = []
        key_of_masks = enum_mod.key_of_masks

        def counting(n, masks):
            keyed.append(n)
            return key_of_masks(n, masks)

        monkeypatch.setattr(enum_mod, "key_of_masks", counting)
        monkeypatch.setattr(enum_mod, "_TREE_LAYERS", {})
        monkeypatch.setattr(enum_mod, "_GRAPH_LAYERS", {})
        total = sum(
            len(connected_graph_layer(7, m))
            for m in range(6, max_edge_count(7) + 1)
        )
        assert total == CONNECTED_COUNTS[6]
        # keying every child of every parent took 8427 keys
        assert len(keyed) < 8427 / 4

    def test_on_cycle_matches_networkx_bridges(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(2, 10)
            graph = nx.gnp_random_graph(
                n, rng.random(), seed=rng.randrange(10**6)
            )
            masks = masks_of_graph(graph)
            bridges = {frozenset(edge) for edge in nx.bridges(graph)}
            for x, y in graph.edges:
                assert enum_mod._on_cycle(masks, x, y) == (
                    frozenset((x, y)) not in bridges
                )


class TestLabelledTrees:
    def test_uniform_degenerates_to_unlabelled(self):
        # a uniform demand matrix has every label symmetry, so the joint
        # classes collapse to the unlabelled tree classes exactly
        for n in (2, 3, 4, 5, 6):
            labelled = list(
                enumerate_labelled_trees(n, TrafficMatrix.uniform(n))
            )
            assert len(labelled) == TREE_COUNTS[n - 1]

    def test_broken_symmetry_grows_the_family(self):
        # one hub with distinguished demand: label position now matters,
        # so there are strictly more joint classes than unlabelled shapes
        n = 5
        traffic = TrafficMatrix.hub_spoke(n, [0])
        labelled = list(enumerate_labelled_trees(n, traffic))
        assert len(labelled) > TREE_COUNTS[n - 1]
        keys = {canonical_key(g, traffic) for g in labelled}
        assert len(keys) == len(labelled)
        for graph in labelled:
            assert nx.is_tree(graph)

    def test_trivial_sizes(self):
        assert len(list(enumerate_labelled_trees(1, None))) == 1
        assert len(list(enumerate_labelled_trees(2, None))) == 1


class TestPoAIntegration:
    def test_layer_poa_max_equals_whole_family(self):
        from repro.analysis.poa import empirical_poa, family_poa

        n, alpha, concept = 5, 2, Concept.PS
        whole = empirical_poa(n, alpha, concept)
        layers = [
            family_poa("graphs", n, alpha, concept, m=m)
            for m in range(n - 1, max_edge_count(n) + 1)
        ]
        layer_poas = [r.poa for r in layers if r.poa is not None]
        assert max(layer_poas) == whole.poa
        assert sum(r.equilibria for r in layers) == whole.equilibria
        assert sum(r.candidates for r in layers) == whole.candidates

    def test_exact_weighted_tree_poa_uniform_matches_representative(self):
        from repro.analysis.poa import family_poa

        n, alpha, concept = 5, 3, Concept.PS
        uniform = TrafficMatrix.uniform(n)
        exact = family_poa(
            "labelled_trees", n, alpha, concept, traffic=uniform
        )
        representative = family_poa(
            "trees", n, alpha, concept, traffic=uniform
        )
        assert exact.poa == representative.poa
        assert exact.candidates == representative.candidates
        assert exact.equilibria == representative.equilibria
        assert exact.worst_cost == representative.worst_cost
        assert exact.best_cost == representative.best_cost
