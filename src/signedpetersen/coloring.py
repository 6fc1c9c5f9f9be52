"""Signed-graph colorations with colors {0, +-1, ..., +-k}: exact counts at
small arguments, the two chromatic numbers, and the independent-set balance
counts of the difference formula.

At k = 1 the vertices colored 0 form an independent set W, and +-1 on the
rest is a switching that makes -Sigma - W all positive. So the count is the
sum of 2^c(G - W) over the independent W with -Sigma - W balanced, its
zero-free part the W = {} term (T. Zaslavsky, "Signed graph coloring",
Discrete Math. 39 (1982)). At k = 2 that would need 3^n terms: a backtrack
counts there.

The independent sets, each with an echelon basis of U_W (Sigma - W is
balanced exactly when the syndrome of Sigma lies in U_W), come from
``graphs.vertex_sets``, the generator that l0 reads when r < n - c. Here it
serves whatever r is: a graph has one table, built once per graph and read
by every class, and the independent sets are few.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import xor

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError,
                     chord_mask, petersen, span_reduce, syndrome, vertex_sets)
from .signed import SignedGraph, negate, petersen_invariants

MAX_K = 2
# A count at k = 2 walks every colouring: 5 * 4^(n - 1) on an n-vertex path.
MAX_K2_VERTICES = 11


class BudgetError(ValueError):
    """Raised when a coloration count is requested beyond the k <= 2 budget."""


def _count(s: SignedGraph, k: int, zero_free: bool, first: bool = False) -> int:
    """Number of proper colorations with colors in {0, +-1, ..., +-k}
    (without 0 when zero_free), by backtracking that counts the colors left
    to the last vertex; with first, it stops at the first one and returns a
    positive number, not the count. Proper: the color of w differs from
    sign(vw) times the color of v on every edge vw. Each component of the
    spanning forest is counted on its own, by decreasing degree, ties by
    increasing index (a stable sort), and the counts multiplied: a clique
    fails before the sparse rest is walked, and a component with no
    coloration ends the count. The back edges come from ``g.neighbours``,
    each sign from its mask bit."""
    g = s.graph
    colors = [c for c in range(-k, k + 1) if c or not zero_free]
    root, parts = {}, {}
    for v, parent, _ in g.spanning_forest:
        root[v] = root[parent] if parent >= 0 else v
    for v in sorted(range(g.vertex_count), key=g.degree, reverse=True):
        parts.setdefault(root[v], []).append(v)
    assigned = [0] * g.vertex_count

    def extend(i):
        banned = {sig * assigned[u] for u, sig in earlier[i]}
        if i == last:  # colors is closed under negation, so banned is in it
            return len(colors) - len(banned)
        total = 0
        for c in colors:
            if c not in banned:
                assigned[i] = c
                total += extend(i + 1)
                if first and total:
                    break
        return total

    total = 1
    for order in parts.values():
        pos = {v: i for i, v in enumerate(order)}
        earlier = [[(pos[u], -1 if s.mask >> j & 1 else 1)
                    for u, j in g.neighbours[v] if pos[u] < i]
                   for i, v in enumerate(order)]
        last = len(order) - 1
        total *= extend(0)
        if not total:
            break
    return total


@lru_cache(maxsize=8)
def _independent_sets(g: Graph) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Every independent vertex set W of g, the empty set first, as (|W|,
    echelon basis of U_W, c(G - W)), from ``graphs.vertex_sets``. U_W is
    spanned by the syndromes of the edges at W, E_W; Sigma - W is balanced
    exactly when the syndrome of Sigma lies in U_W. The cut space of G - W
    has dimension n - c + rank U_W - |E_W|, so c(G - W) = c - |W| + |E_W|
    - rank U_W."""
    n = g.vertex_count
    if n > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for coloring search")
    c = n - len(g.edges) + len(g.chords)
    return tuple((w.bit_count(), basis,
                  c - w.bit_count() + e.bit_count() - len(basis))
                 for w, e, basis in vertex_sets(g, independent=True))


def _count_one(g: Graph, z: int, zero_free: bool) -> int:
    """Proper colorations at k = 1 of a signature with syndrome z: 2^c(G -
    W) summed over the W with -Sigma - W balanced, W = {} alone when
    zero_free."""
    table = _independent_sets(g)
    z ^= reduce(xor, g.syndromes, 0)  # the syndrome of -Sigma
    return sum(1 << c for _, basis, c in (table[:1] if zero_free else table)
               if not span_reduce(z, basis))


def _class_syndrome(s: SignedGraph, k: int) -> int:
    """The syndrome of s, after the budget and size checks: a count at
    k = 2 is refused past MAX_K2_VERTICES vertices."""
    if k < 0 or k > MAX_K:
        raise BudgetError(f"k={k} outside the supported range 0..{MAX_K}")
    if s.graph.vertex_count > (MAX_K2_VERTICES if k == 2
                               else MAX_SEARCH_VERTICES):
        raise SearchSizeError("graph too large for coloring search")
    return syndrome(s.graph, s.mask)


def count_colorations(s: SignedGraph, k: int, zero_free: bool = False) -> int:
    """Number of proper colorations, as ``_count`` defines them, by the
    expansion at k = 1. Budget and size checks come first."""
    return _class_count(s.graph, _class_syndrome(s, k), k, zero_free, False)


@lru_cache(maxsize=512)
def _class_count(g: Graph, z: int, k: int, zero_free: bool,
                 first: bool) -> int:
    """``_count`` for the switching class with syndrome z, once: switching
    a vertex negates its color, so every member has the chord
    representative's count. At k = 1, first is False in every call, so
    that count and chromatic number share one cache entry."""
    if k == 1:
        return _count_one(g, z, zero_free)
    return _count(SignedGraph(g, chord_mask(g, z)), k, zero_free, first)


def chromatic_numbers(s: SignedGraph) -> tuple[int, int]:
    """(chi, chi_star): least k admitting a proper coloration, with and
    then without the zero color; ``_count`` stops at its first one at
    k = 2. chi = 0 exactly when there is no edge, since with the colors
    {0} only every edge is improper."""
    z = _class_syndrome(s, 0)

    def least(zero_free: bool) -> int:
        for k in range(1, MAX_K + 1):
            if _class_count(s.graph, z, k, zero_free, k != 1):
                return k
        raise BudgetError("chromatic number exceeds the k <= 2 budget")

    return least(False) if s.graph.edges else 0, least(True)


def alpha_k(s: SignedGraph, k: int) -> int:
    """Number of independent vertex sets of size k whose deletion leaves a
    balanced signature."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1, or 2")
    z = syndrome(s.graph, s.mask)
    return sum(1 for size, basis, _ in _independent_sets(s.graph)
               if size == k and not span_reduce(z, basis))


def chi3_difference(s: SignedGraph) -> int:
    """Difference between the 3-color count of a Petersen signature and the
    120 of the all-positive one, via independent-set balance counts of the
    negation and the negative hexagon count."""
    g, _ = petersen()
    if s.graph != g:
        raise ValueError("requires the canonical Petersen graph")
    neg = negate(s)
    a0, a1, a2 = (alpha_k(neg, k) for k in (0, 1, 2))
    c6 = petersen_invariants(s.mask)[4]
    return 2 * a0 + 2 * a1 + 2 * a2 - 4 * c6
