"""Canonical graph keys: iterated degree refinement + ordered minimisation.

The exhaustive "all non-isomorphic graphs" sweeps need a *canonical key*:
a bytes value equal for two graphs **iff** they are isomorphic.  Keys make
isomorphism-pruned enumeration a set-membership test (the layered
enumerator in :mod:`repro.graphs.enumerate`), give content-addressed
identities to campaign witnesses, and — extended to act jointly on a
``(graph, W)`` pair — canonicalise *labelled* weighted instances, where a
demand matrix breaks label symmetry.

The algorithm is classic individualisation–refinement, sized for the
n <= 10 graphs the exact sweeps enumerate:

1. **Iterated degree refinement.**  Vertices start in one colour class;
   each round re-colours a vertex by the sorted multiset of its
   neighbours' colours (for weighted keys: by the sorted profile of
   ``(colour(v), adjacency, W[u, v], W[v, u])`` over *all* other
   vertices, because demands couple non-adjacent pairs too).  Colour
   classes are renumbered in sorted-signature order each round, so the
   resulting ordered partition is isomorphism-invariant.
2. **Minimisation over the residual orderings.**  If refinement leaves
   non-singleton cells, the first such cell is branched on: each member
   is individualised (moved to the front of its cell), refinement
   re-runs, and the recursion bottoms out at discrete partitions, each of
   which is a candidate labelling.  The key is the lexicographic minimum
   of the candidates' serialised forms.  Branching only over the first
   non-singleton cell keeps the candidate set isomorphism-invariant, so
   the minimum is a true canonical form.  *Twin* vertices — members of a
   cell whose transposition is an automorphism — generate identical
   subtrees and are branched once (this collapses cliques, stars and
   complete multipartite cells to a single branch).

Keys are **memoised** per labelled input together with the labelling
the same search found (:func:`canonical_key` and
:func:`canonical_labelling` read one entry, so an input is searched
once); :func:`canonical_cache_info` exposes hit/miss counters in the spy
idiom of the engine modules, and :func:`key_of_masks` is the cache-free
core the layered enumerator feeds adjacency bitmasks directly.

Key format (``bytes``): ``[n]`` + the upper-triangle adjacency bits of
the canonical labelling packed big-endian; weighted keys append the
canonically permuted demand matrix as ``n**2`` big-endian ``uint64``
words.  :func:`decode_key` inverts both forms exactly, and
:func:`adjacency_stack` unpacks a run of structural keys on one node
count into one boolean adjacency array.
"""

from __future__ import annotations

from numbers import Integral
from typing import Sequence

import networkx as nx
import numpy as np

from repro.obs import metrics as _obs

__all__ = [
    "adjacency_stack",
    "canonical_cache_clear",
    "canonical_cache_info",
    "canonical_graph",
    "canonical_key",
    "canonical_labelling",
    "decode_key",
    "key_of_masks",
    "masks_of_graph",
]

_MAX_KEY_NODES = 255  # one header byte; the sweeps live at n <= 10

# -- memoisation (spy-counted, like the engine's rebuild counters) -----------

#: labelled input ``(n, masks, demands)`` -> ``(key, sigma)``
_CACHE: dict = {}
_CACHE_MAX = 1 << 16
_HITS = _obs.counter(
    "repro_canonical_cache_hits_total", "canonical-form memo hits"
)
_MISSES = _obs.counter(
    "repro_canonical_cache_misses_total", "canonical-form memo misses"
)


def canonical_cache_info() -> tuple[int, int, int]:
    """``(hits, misses, size)`` of the canonical-form memo."""
    return _HITS.value, _MISSES.value, len(_CACHE)


def canonical_cache_clear() -> None:
    _CACHE.clear()
    _HITS.reset()
    _MISSES.reset()


# -- adjacency bitmasks ------------------------------------------------------


def masks_of_graph(graph: nx.Graph) -> list[int]:
    """Adjacency rows as int bitmasks; nodes must be ``0..n-1``."""
    n = graph.number_of_nodes()
    if set(graph.nodes) != set(range(n)):
        raise ValueError(
            "canonical keys need integer nodes 0..n-1 "
            "(relabel via repro.graphs.distances.canonical_labels)"
        )
    masks = [0] * n
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _exact_int(value) -> int | None:
    """``value`` as an exact int, or ``None`` when it is not integral."""
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _weights_tuple(weights) -> tuple[tuple[int, ...], ...]:
    """The demands as nested int tuples.  Each must be a non-negative
    integer that :func:`decode_key` can hand back as ``int64``: a
    truncated float or an out-of-range entry would let two different
    matrices share a key, or fail to serialise or decode.  Integral
    floats are taken exactly."""
    array = np.asarray(weights)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise ValueError("a weight matrix must be square")
    rows = array.tolist()
    for u, row in enumerate(rows):
        for v, w in enumerate(row):
            exact = w if type(w) is int else _exact_int(w)
            if exact is None or not 0 <= exact < 1 << 63:
                raise ValueError(
                    f"demand W[{u}, {v}] = {w!r} is not an integer "
                    "in [0, 2**63)"
                )
            row[v] = exact
    return tuple(map(tuple, rows))


# -- refinement --------------------------------------------------------------


def _refine(
    n: int,
    adj: Sequence[int],
    weights: Sequence[Sequence[int]] | None,
    colors: list[int],
) -> list[int]:
    """Iterated degree refinement to a stable, invariantly ordered partition."""
    while True:
        if weights is None:
            sigs = []
            for u in range(n):
                mask = adj[u]
                neigh = []
                while mask:
                    low = mask & -mask
                    neigh.append(colors[low.bit_length() - 1])
                    mask ^= low
                neigh.sort()
                sigs.append((colors[u], tuple(neigh)))
        else:
            sigs = []
            for u in range(n):
                row = weights[u]
                au = adj[u]
                profile = sorted(
                    (colors[v], (au >> v) & 1, row[v], weights[v][u])
                    for v in range(n)
                    if v != u
                )
                sigs.append((colors[u], tuple(profile)))
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(sigs)))}
        refined = [ranking[sig] for sig in sigs]
        if len(ranking) == len(set(colors)):
            # no cell split this round: the partition is stable (one more
            # round would permute labels of the same classes), and the
            # numbering is a deterministic function of invariant input
            return refined
        colors = refined


def _twins(
    n: int,
    adj: Sequence[int],
    weights: Sequence[Sequence[int]] | None,
    v: int,
    w: int,
) -> bool:
    """Is the transposition ``(v w)`` an automorphism of ``(graph, W)``?"""
    clear = ~((1 << v) | (1 << w))
    if (adj[v] & clear) != (adj[w] & clear):
        return False
    if weights is not None:
        if weights[v][w] != weights[w][v]:
            return False
        for x in range(n):
            if x == v or x == w:
                continue
            if weights[v][x] != weights[w][x]:
                return False
            if weights[x][v] != weights[x][w]:
                return False
    return True


# -- the canonical key -------------------------------------------------------


def _leaf_candidate(
    n: int,
    adj: Sequence[int],
    weights: Sequence[Sequence[int]] | None,
    colors: Sequence[int],
):
    """Comparable candidate form of one discrete partition."""
    perm = [0] * n  # position -> original vertex
    for u in range(n):
        perm[colors[u]] = u
    bits = 0
    for i in range(n):
        row = adj[perm[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | ((row >> perm[j]) & 1)
    if weights is None:
        return (bits,)
    flat = tuple(
        weights[perm[i]][perm[j]] for i in range(n) for j in range(n)
    )
    return (bits, flat)


def key_of_masks(
    n: int,
    adj: Sequence[int],
    weights: Sequence[Sequence[int]] | None = None,
) -> bytes:
    """Canonical key from adjacency bitmasks (the enumerator's fast path).

    ``weights``, when given, must be an ``n x n`` nested sequence of
    non-negative ints — the key then canonicalises the *joint*
    ``(graph, W)`` structure.
    """
    best, _ = _minimise(n, adj, weights)
    return _serialise(n, best, weights is not None)


def _minimise(
    n: int,
    adj: Sequence[int],
    weights: Sequence[Sequence[int]] | None,
) -> tuple[tuple, list[int]]:
    """The lexicographically minimal candidate and its discrete colouring.

    Shared core of :func:`key_of_masks` and the canonical-form memo:
    returns ``(candidate, colors)`` where ``colors[u]`` is vertex ``u``'s
    canonical position in the winning labelling.
    """
    if not 0 < n <= _MAX_KEY_NODES:
        raise ValueError(f"canonical keys support 1..{_MAX_KEY_NODES} nodes")
    best = None
    best_colors: list[int] = []
    colors0 = _refine(n, adj, weights, [0] * n)
    stack = [colors0]
    while stack:
        colors = stack.pop()
        counts = [0] * n
        for color in colors:
            counts[color] += 1
        target = -1
        for color in range(n):
            if counts[color] > 1:
                target = color
                break
        if target < 0:
            candidate = _leaf_candidate(n, adj, weights, colors)
            if best is None or candidate < best:
                best = candidate
                best_colors = list(colors)
            continue
        cell = [u for u in range(n) if colors[u] == target]
        tried: list[int] = []
        for v in cell:
            if any(_twins(n, adj, weights, v, w) for w in tried):
                continue
            tried.append(v)
            branched = [
                color + 1 if (u != v and color >= target) else color
                for u, color in enumerate(colors)
            ]
            branched[v] = target
            stack.append(_refine(n, adj, weights, branched))
    return best, best_colors


def _serialise(n: int, candidate, weighted: bool) -> bytes:
    bit_bytes = (n * (n - 1) // 2 + 7) // 8
    key = bytes([n]) + candidate[0].to_bytes(bit_bytes, "big")
    if weighted:
        key += b"".join(w.to_bytes(8, "big") for w in candidate[1])
    return key


def _canonical_form(graph: nx.Graph, traffic) -> tuple[bytes, tuple[int, ...]]:
    """``(key, sigma)`` of one labelled input, memoised on its adjacency
    masks and demands: one search per distinct input."""
    n = graph.number_of_nodes()
    adj = masks_of_graph(graph)
    weights = None
    if traffic is not None:
        weights = _weights_tuple(getattr(traffic, "weights", traffic))
        if len(weights) != n:
            raise ValueError(
                f"demand matrix is {len(weights)}x{len(weights)}, "
                f"graph has {n} nodes"
            )
    memo = (n, tuple(adj), weights)
    cached = _CACHE.get(memo)
    if cached is not None:
        _HITS.inc()
        return cached
    _MISSES.inc()
    best, colors = _minimise(n, adj, weights)
    form = (_serialise(n, best, weights is not None), tuple(colors))
    if len(_CACHE) >= _CACHE_MAX:
        _CACHE.clear()
    _CACHE[memo] = form
    return form


def canonical_key(graph: nx.Graph, traffic=None) -> bytes:
    """Memoised canonical key of ``graph`` (jointly with ``traffic``).

    ``traffic`` may be a :class:`repro.core.traffic.TrafficMatrix`, a raw
    square matrix, or ``None`` for the purely structural key.  Two calls
    return equal keys **iff** the (graph, demands) structures are
    isomorphic under a common relabelling.
    """
    return _canonical_form(graph, traffic)[0]


def canonical_graph(graph: nx.Graph, traffic=None) -> nx.Graph:
    """The canonical representative of ``graph``'s isomorphism class.

    Decoded straight from :func:`canonical_key`, so two isomorphic inputs
    return *identical* labelled graphs (and with ``traffic``, two jointly
    isomorphic inputs return the identical labelled pair).
    """
    decoded, _ = decode_key(canonical_key(graph, traffic))
    return decoded


def canonical_labelling(graph: nx.Graph, traffic=None) -> tuple[int, ...]:
    """The relabelling onto the canonical representative.

    Returns ``sigma`` with ``sigma[u]`` = vertex ``u``'s label in
    :func:`canonical_graph`; relabelling ``graph`` by ``sigma`` (and
    permuting a demand matrix as ``W'[sigma[u], sigma[v]] = W[u, v]``)
    reproduces the canonical representative *identically*.  This is what
    lets a cache keyed by :func:`canonical_key` serve label-dependent
    queries ("agent ``u``'s best move") for any representative of the
    class: map the query through ``sigma``, answer on the canonical
    instance, and map the answer back through ``sigma``'s inverse.
    """
    return _canonical_form(graph, traffic)[1]


def decode_key(key: bytes) -> tuple[nx.Graph, np.ndarray | None]:
    """Invert a canonical key into ``(graph, weights-or-None)``."""
    n = key[0]
    bit_bytes = (n * (n - 1) // 2 + 7) // 8
    bits = int.from_bytes(key[1 : 1 + bit_bytes], "big")
    graph = nx.empty_graph(n)
    position = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            position -= 1
            if (bits >> position) & 1:
                graph.add_edge(i, j)
    rest = key[1 + bit_bytes :]
    if not rest:
        return graph, None
    if len(rest) != 8 * n * n:
        raise ValueError("malformed weighted canonical key")
    flat = [
        int.from_bytes(rest[8 * k : 8 * k + 8], "big")
        for k in range(n * n)
    ]
    weights = np.array(flat, dtype=np.int64).reshape(n, n)
    return graph, weights


def adjacency_stack(keys: Sequence[bytes]) -> np.ndarray:
    """The ``(len(keys), n, n)`` boolean adjacency stack of structural
    keys on one node count ``n``, unpacked in one pass.

    Row ``i`` is the graph :func:`decode_key` returns for ``keys[i]``.
    """
    n = keys[0][0]
    pairs = n * (n - 1) // 2
    width = 1 + (pairs + 7) // 8
    packed = np.frombuffer(b"".join(keys), dtype=np.uint8)
    if packed.size != width * len(keys) or (packed[::width] != n).any():
        raise ValueError(
            "an adjacency stack needs structural keys on one node count"
        )
    packed = packed.reshape(len(keys), width)
    # the pair bits are the low ``pairs`` bits of the big-endian payload,
    # pair (0, 1) first, in decode_key's (i, j > i) order
    bits = np.unpackbits(packed[:, 1:], axis=1)[:, 8 * (width - 1) - pairs :]
    stack = np.zeros((len(keys), n, n), dtype=bool)
    upper, lower = np.triu_indices(n, 1)
    stack[:, upper, lower] = bits
    stack[:, lower, upper] = bits
    return stack
