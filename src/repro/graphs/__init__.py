"""Graph substrate: distances, bridges, trees, generation, enumeration."""

from repro.graphs.bridges import BridgeSet, component_bridges
from repro.graphs.distances import (
    DistanceMatrix,
    UndoToken,
    apsp_matrix,
    component_labels,
)
from repro.graphs.trees import RootedTree, one_medians, tree_split_masks
from repro.graphs.canonical import (
    canonical_cache_clear,
    canonical_cache_info,
    canonical_graph,
    canonical_key,
    decode_key,
    key_of_masks,
)
from repro.graphs.enumerate import (
    connected_graph_layer,
    enumerate_connected_graphs,
    enumerate_labelled_trees,
    enumerate_trees,
    max_edge_count,
    tree_layer_keys,
)
from repro.graphs.generation import (
    all_connected_graphs,
    all_trees,
    random_connected_gnp,
    random_tree,
)

__all__ = [
    "BridgeSet",
    "DistanceMatrix",
    "RootedTree",
    "UndoToken",
    "all_connected_graphs",
    "all_trees",
    "apsp_matrix",
    "canonical_cache_clear",
    "canonical_cache_info",
    "canonical_graph",
    "canonical_key",
    "component_bridges",
    "component_labels",
    "connected_graph_layer",
    "decode_key",
    "enumerate_connected_graphs",
    "enumerate_labelled_trees",
    "enumerate_trees",
    "key_of_masks",
    "max_edge_count",
    "one_medians",
    "random_connected_gnp",
    "random_tree",
    "tree_layer_keys",
    "tree_split_masks",
]
