"""Signed-graph colorations with colors {0, +-1, ..., +-k}: exact counts at
small arguments, the two chromatic numbers, and the balanced-expansion and
difference-formula cross-checks.
"""

from __future__ import annotations

from .frustration import alpha_k, delete_vertices
from .graphs import (MAX_SEARCH_VERTICES, SearchSizeError,
                     all_independent_sets, petersen)
from .signed import SignedGraph, negate, petersen_hexagon_masks, switch

MAX_K = 2


class BudgetError(ValueError):
    """Raised when a coloration count is requested beyond the k <= 2 budget."""


def _count(s: SignedGraph, k: int, zero_free: bool, first: bool = False) -> int:
    """Number of proper colorations with colors in {0, +-1, ..., +-k}
    (without 0 when zero_free), by backtracking that counts the colors left
    to the last vertex; with first, it stops at the first one and returns a
    positive number, not the count. Proper: the color of w differs from
    sign(vw) times the color of v on every edge vw. Size checks come first."""
    if k < 0 or k > MAX_K:
        raise BudgetError(f"k={k} outside the supported range 0..{MAX_K}")
    g = s.graph
    n = g.vertex_count
    if n > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for coloring search")
    colors = [c for c in range(-k, k + 1) if c or not zero_free]
    # Edges back to already-colored vertices, for incremental checking.
    earlier = [[(u, s.sign(u, v)) for u in g.adjacency[v] if u < v]
               for v in range(n)]
    assigned = [0] * n

    def extend(v):
        banned = {sig * assigned[u] for u, sig in earlier[v]}
        if v == n - 1:  # colors is closed under negation, so banned is in it
            return len(colors) - len(banned)
        total = 0
        for c in colors:
            if c not in banned:
                assigned[v] = c
                total += extend(v + 1)
                if first and total:
                    break
        return total

    return extend(0) if n else 1


def count_colorations(s: SignedGraph, k: int, zero_free: bool = False) -> int:
    """Number of proper colorations, as ``_count`` defines them."""
    return _count(s, k, zero_free)


def chromatic_numbers(s: SignedGraph) -> tuple[int, int]:
    """(chi, chi_star): least k admitting a proper coloration, with and
    then without the zero color; each search stops at its first one (a
    0-vertex graph has one, the empty coloration)."""
    def least(zero_free: bool) -> int:
        for k in range(1 if zero_free else 0, MAX_K + 1):
            if _count(s, k, zero_free, first=True):
                return k
        raise BudgetError("chromatic number exceeds the k <= 2 budget")

    return least(False), least(True)


def balanced_expansion_check(s: SignedGraph) -> tuple[bool, int, int]:
    """Verify that the count at 3 colors equals the sum over independent
    sets W of the zero-free count of s minus W at 2 colors (the expansion
    at mu = 1, the only one within the k <= 2 budget). Returns (equal, left
    side, right side)."""
    left = count_colorations(s, 1, zero_free=False)
    right = sum(count_colorations(delete_vertices(s, w), 1, zero_free=True)
                for w in all_independent_sets(s.graph))
    return left == right, left, right


def chi3_difference(s: SignedGraph) -> int:
    """Difference between the 3-color count of a Petersen signature and the
    120 of the all-positive one, via independent-set balance counts of the
    negation and the negative hexagon count."""
    g, _ = petersen()
    if s.graph != g:
        raise ValueError("requires the canonical Petersen graph")
    neg = negate(s)
    a0, a1, a2 = (alpha_k(neg, k) for k in (0, 1, 2))
    c6 = sum(1 for h in petersen_hexagon_masks() if (s.mask & h).bit_count() & 1)
    return 2 * a0 + 2 * a1 + 2 * a2 - 4 * c6


def switching_color_invariance_check(s: SignedGraph, x: int) -> bool:
    """Counts at k <= 2, both zero-free settings, agree between s and its
    switching by the vertex mask x (budget keeps the k = 2 checks to the
    zero-free ones)."""
    t = switch(s, x)
    return all(count_colorations(s, k, zf) == count_colorations(t, k, zf)
               for k, zf in ((1, False), (1, True), (2, True)))
