"""Seeded inputs for the benchmark workloads.

Everything here is built from the seed alone and is independent of the
program under test, except for the reference data (class rows and standard
negative-edge lists) read from ``signedpetersen.expected``.

Petersen model: vertex i is the i-th 2-subset of {1..5} in lexicographic
order and the 15 edges (disjoint pairs) are sorted, which is the program's
canonical edge order, so bit i of a mask is edge i.
"""

from __future__ import annotations

import itertools
import random

PAIRS = tuple(itertools.combinations(range(1, 6), 2))
EDGES = tuple(sorted((a, b) for a, b in itertools.combinations(range(10), 2)
                     if not set(PAIRS[a]) & set(PAIRS[b])))
EDGE_INDEX = {e: i for i, e in enumerate(EDGES)}
VERTEX_CUTS = tuple(sum(1 << i for i, e in enumerate(EDGES) if v in e)
                    for v in range(10))


def _induced(base: tuple[int, ...]) -> tuple[int, ...]:
    """Vertex permutation of P induced by a permutation of {1..5}."""
    return tuple(PAIRS.index(tuple(sorted((base[i - 1], base[j - 1]))))
                 for i, j in PAIRS)


# Aut(P) is S5 acting on the 2-subsets.
AUTOMORPHISMS = tuple(_induced(p) for p in itertools.permutations(range(1, 6)))


def permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i, (u, v) in enumerate(EDGES):
        if mask >> i & 1:
            a, b = perm[u], perm[v]
            out |= 1 << EDGE_INDEX[(min(a, b), max(a, b))]
    return out


def switch_mask(mask: int, vertex_bits: int) -> int:
    for v in range(10):
        if vertex_bits >> v & 1:
            mask ^= VERTEX_CUTS[v]
    return mask


def standard_masks(expected) -> tuple[int, ...]:
    """Mask of each class's standard representative, in column order."""
    out = []
    for name in expected.CLASS_NAMES:
        mask = 0
        for a, b in expected.STANDARD_NEGATIVE_EDGES[name]:
            u = PAIRS.index((int(a[0]), int(a[1])))
            v = PAIRS.index((int(b[0]), int(b[1])))
            mask |= 1 << EDGE_INDEX[(min(u, v), max(u, v))]
        out.append(mask)
    return tuple(out)


def planted_mask(rng: random.Random, expected, standard) -> tuple[int, int]:
    """(class column, mask): the class is drawn in proportion to its
    signature count, then a uniform automorphism of P and a uniform
    switching are applied to its standard representative. Every element of
    the switching-automorphism action is equally likely, so the mask is
    uniform over the class and hence over all 2^15 signatures."""
    r = rng.randrange(expected.TOTAL_SIGNATURES)
    for col, count in enumerate(expected.SIGNATURE_COUNTS):
        if r < count:
            break
        r -= count
    mask = permute_mask(standard[col], rng.choice(AUTOMORPHISMS))
    return col, switch_mask(mask, rng.randrange(1 << 10))


# ---------------------------------------------------------------------------
# General signed graphs
# ---------------------------------------------------------------------------

MIN_VERTICES, MAX_VERTICES = 8, 16
MAX_EDGES = 20          # clustering.MAX_EDGES at the benchmarked commit
COLOR_MAX_VERTICES = 10


def _connected_edges(rng: random.Random, n: int, m: int) -> set:
    """A random connected graph on 0..n-1 with at most m edges in which each
    vertex has at most three earlier neighbours. Degeneracy 3 means a greedy
    signed colouring never needs more than four colours, so the chromatic
    numbers stay within the program's k <= 2 search."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    back = [0] + [1] * (n - 1)
    extra = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    rng.shuffle(extra)
    for u, v in extra:
        if len(edges) >= m:
            break
        if back[v] < 3:
            edges.add((u, v))
            back[v] += 1
    return edges


def random_signed_graph(rng: random.Random, n: int, disconnected: bool, level: float):
    """(n, {edge: sign}) with vertices shuffled and random signs. ``level``
    in [0, 1) places each component's edge count in its reachable range,
    from one more than a tree up to 3k - 6, capped at 20 edges in all."""
    if disconnected:
        sizes = (n // 2, n - n // 2)
    else:
        sizes = (n,)
    edges = set()
    base = 0
    for k in sizes:
        top = min(MAX_EDGES // len(sizes), 3 * k - 6)
        m = k + 1 + int(level * (top - k))
        edges |= {(u + base, v + base) for u, v in _connected_edges(rng, k, m)}
        base += k
    return relabel(n, {e: rng.choice((1, -1)) for e in sorted(edges)},
                   _permutation(rng, n))


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(n: int, signs: dict, perm) -> tuple[int, dict]:
    out = {}
    for (u, v), s in signs.items():
        a, b = perm[u], perm[v]
        out[(min(a, b), max(a, b))] = s
    return n, out


def switch(n: int, signs: dict, vertex_bits: int) -> tuple[int, dict]:
    return n, {(u, v): -s if (vertex_bits >> u ^ vertex_bits >> v) & 1 else s
               for (u, v), s in signs.items()}


def serialize(graph) -> str:
    n, signs = graph
    lines = [f"n {n}"]
    lines += [f"{u} {v} {'+' if s > 0 else '-'}" for (u, v), s in sorted(signs.items())]
    return "\n".join(lines) + "\n"


GOLDEN = (5 ** 0.5 - 1) / 2


def graph_set(rng: random.Random, index: int) -> dict:
    """One general graph with its twins: ``relabelled`` (vertex ids
    permuted) for clustering, which switching changes, and ``switched``
    (permuted and switched) for the switching invariants.

    Sizes and edge counts are stratified, not drawn, so that every round
    has the same make-up whatever the seed: round r holds one graph of each
    size 8..16, the 8-vertex one with two components, and each takes the
    r-th point of the golden-ratio sequence as its edge-count level. The
    seed chooses the structure, the signs and the twins."""
    sizes = MAX_VERTICES - MIN_VERTICES + 1
    n = MIN_VERTICES + index % sizes
    level = (index // sizes * GOLDEN) % 1.0
    connected = n != MIN_VERTICES
    graph = random_signed_graph(rng, n, not connected, level)
    relabelled = relabel(*graph, _permutation(rng, n))
    switched = switch(*relabel(*graph, _permutation(rng, n)), rng.randrange(1 << n))
    return {"n": n, "connected": connected,
            "graph": serialize(graph), "relabelled": serialize(relabelled),
            "switched": serialize(switched)}
