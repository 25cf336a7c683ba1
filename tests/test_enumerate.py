"""Layered enumeration: exact counts, atlas cross-validation, stability."""

import hashlib
import itertools
import json
import random

import networkx as nx
import numpy as np
import pytest

from repro.core.concepts import Concept
from repro.core.traffic import TrafficMatrix
from repro.graphs.canonical import (
    canonical_cache_info, canonical_key, masks_of_stack,
)
from repro.graphs import enumerate as enum_mod
from repro.graphs.enumerate import (
    connected_graph_layer,
    enumerate_connected_graphs,
    enumerate_labelled_trees,
    enumerate_trees,
    max_edge_count,
    tree_layer_keys,
)
from repro.obs import trace

# A000055 (trees) and A001349 (connected graphs), both from n = 1
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]
N8_LAYERS_SHA256 = (
    "e3379574b57cedb772cf61ce7ffc23e2e0932a3befc7cb26edfac4dad617d505"
)
N9_FAMILY_SHA256 = (
    "fa9ff3359f4c852385d512bbfd6a11f8c38dafb5e24ee1a9e049d5c68e4c7f64"
)


class TestCounts:
    @pytest.mark.parametrize(
        "n,count", list(enumerate(TREE_COUNTS, start=1))
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

    @pytest.mark.slow
    def test_n9_family_matches_the_pinned_digest(self, monkeypatch):
        # SHA-256 over every key of every n = 9 layer, m = 8..36 in order
        monkeypatch.setattr(enum_mod, "_TREE_LAYERS", {})
        monkeypatch.setattr(enum_mod, "_GRAPH_LAYERS", {})
        digest = hashlib.sha256()
        count = 0
        for m in range(8, max_edge_count(9) + 1):
            for key in connected_graph_layer(9, m):
                digest.update(key)
                count += 1
        assert count == 261080
        assert digest.hexdigest() == N9_FAMILY_SHA256

    def test_cold_n7_sweep_keys_few_children(self, monkeypatch):
        keyed = []
        key_rows = enum_mod.key_rows

        def counting(n, masks):
            keyed.append(len(masks))
            return key_rows(n, masks)

        monkeypatch.setattr(enum_mod, "key_rows", counting)
        monkeypatch.setattr(enum_mod, "_TREE_LAYERS", {})
        monkeypatch.setattr(enum_mod, "_GRAPH_LAYERS", {})
        total = sum(
            len(connected_graph_layer(7, m))
            for m in range(6, max_edge_count(7) + 1)
        )
        assert total == CONNECTED_COUNTS[6]
        # keying every child of every parent took 8427 keys; the
        # child-by-child filter keyed 1378 graph and 66 tree children
        assert sum(keyed) < 8427 / 4
        assert sum(keyed) == 1378 + 66

    def test_on_cycle_matches_networkx_bridges(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(2, 10)
            graph = nx.gnp_random_graph(
                n, rng.random(), seed=rng.randrange(10**6)
            )
            masks = masks_of_stack(
                nx.to_numpy_array(graph, nodelist=range(n), dtype=bool)[None]
            )
            edges = np.array(graph.edges, dtype=np.intp).reshape(1, -1, 2)
            xs, ys = edges[..., 0], edges[..., 1]
            side = enum_mod._reach_without(masks, xs, ys)
            on_cycle = (side >> ys.astype(side.dtype)) & 1 == 1
            bridges = {frozenset(edge) for edge in nx.bridges(graph)}
            assert on_cycle[0].tolist() == [
                frozenset((x, y)) not in bridges for x, y in graph.edges
            ]
            # every edge's side is x's component of G - xy
            for (x, y), mask in zip(graph.edges, side[0].tolist()):
                cut = graph.copy()
                cut.remove_edge(x, y)
                component = nx.node_connected_component(cut, x)
                assert mask == sum(1 << v for v in component)


class TestLayerSpans:
    def test_one_span_per_cold_layer(self, monkeypatch, tmp_path):
        monkeypatch.setattr(enum_mod, "_TREE_LAYERS", {})
        monkeypatch.setattr(enum_mod, "_GRAPH_LAYERS", {})
        sink = tmp_path / "trace.jsonl"
        trace.enable_trace(sink)
        try:
            layers = {
                m: connected_graph_layer(6, m)
                for m in range(5, max_edge_count(6) + 1)
            }
            connected_graph_layer(6, 9)  # a memo hit: no span
        finally:
            trace.disable_trace()
        spans = [
            record
            for record in map(json.loads, sink.read_text().splitlines())
            if record["span"] == "enumerate.layer"
        ]
        # the tree layers n = 1..6, then the graph layers m = 6..15
        expected = [(n, n - 1) for n in range(1, 7)] + [
            (6, m) for m in range(6, max_edge_count(6) + 1)
        ]
        assert [(span["n"], span["m"]) for span in spans] == expected
        for span in spans:
            keys = (
                tree_layer_keys(span["n"])
                if span["m"] == span["n"] - 1
                else layers[span["m"]]
            )
            assert span["kept"] == len(keys)
            assert span["kept"] <= span["keyed"] <= span["children"]
        assert sum(span["kept"] for span in spans[5:]) == CONNECTED_COUNTS[5]


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

    def test_sweep_leaves_the_canonical_memo_alone(self):
        # each Pruefer sequence is keyed past the shared memo, so a sweep
        # neither reads nor fills it; a memo-keyed sweep picks the same
        # representatives in the same order
        n = 6
        traffic = TrafficMatrix.gravity([3, 1, 2, 1, 1, 1])
        before = canonical_cache_info()
        labelled = list(enumerate_labelled_trees(n, traffic))
        assert canonical_cache_info() == before
        seen, reference = set(), []
        for sequence in itertools.product(range(n), repeat=n - 2):
            graph = nx.empty_graph(n)
            graph.add_edges_from(enum_mod._prufer_edges(n, sequence))
            key = canonical_key(graph, traffic)
            if key not in seen:
                seen.add(key)
                reference.append(list(graph.edges))
        assert [list(graph.edges) for graph in labelled] == reference

    def test_demands_for_another_size_are_refused(self):
        with pytest.raises(ValueError, match="demand matrix is 4x4"):
            next(enumerate_labelled_trees(5, TrafficMatrix.uniform(4)))


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

    def test_whole_n8_family_is_stacked_from_its_layers(self):
        # above the atlas the whole family is its layers in edge-count
        # order; the values are the ones the family gave when it was
        # stacked from decoded graphs
        from fractions import Fraction

        from repro.analysis.poa import (
            empirical_poa,
            family_poa,
            worst_equilibria,
        )

        n, alpha, concept = 8, 2, Concept.PS
        whole = empirical_poa(n, alpha, concept)
        star_of_stars = [
            (0, 6), (1, 6), (2, 6), (3, 7), (4, 7), (5, 7), (6, 7),
        ]
        assert (whole.poa, whole.equilibria, whole.candidates) == (
            Fraction(8, 7), 127, 11117,
        )
        assert sorted(whole.witness.edges) == star_of_stars
        layers = [
            family_poa("graphs", n, alpha, concept, m=m)
            for m in range(n - 1, max_edge_count(n) + 1)
        ]
        first_worst = max(
            (r for r in layers if r.poa is not None), key=lambda r: r.poa
        )
        assert first_worst.poa == whole.poa
        assert sorted(first_worst.witness.edges) == star_of_stars
        assert sum(r.equilibria for r in layers) == whole.equilibria
        assert sum(r.candidates for r in layers) == whole.candidates
        worst = worst_equilibria(n, alpha, concept, trees_only=False)
        assert [(rho, sorted(graph.edges)) for rho, graph in worst] == [
            (Fraction(8, 7), star_of_stars),
            (Fraction(8, 7),
             [(0, 6), (1, 7), (2, 7), (3, 4), (3, 5), (4, 6), (5, 7), (6, 7)]),
            (Fraction(8, 7),
             [(0, 6), (1, 6), (2, 7), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]),
        ]

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
