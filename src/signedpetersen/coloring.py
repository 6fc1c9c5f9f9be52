"""Signed-graph colorations with colors {0, +-1, ..., +-k}: exact counts at
small arguments, the two chromatic numbers, and the balanced-expansion and
difference-formula cross-checks.
"""

from __future__ import annotations

from .frustration import alpha_k, delete_vertices
from .graphs import all_independent_sets, petersen
from .signed import (SignedGraph, SwitchingFunction, negate,
                     negative_circle_counts, switch)

MAX_K = 2


class BudgetError(ValueError):
    """Raised when a coloration count is requested beyond the k <= 2 budget."""


def _colors(k: int, zero_free: bool) -> list[int]:
    cs = [c for c in range(-k, k + 1) if c or not zero_free]
    cs.sort(key=abs)  # keeps small magnitudes first; order is cosmetic
    return cs


def count_colorations(s: SignedGraph, k: int, zero_free: bool = False) -> int:
    """Number of proper colorations with colors in {0, +-1, ..., +-k}
    (without 0 when zero_free): exhaustive assignment with early pruning.

    Proper means the color of w differs from sign(vw) times the color of v
    on every edge vw.
    """
    if k < 0 or k > MAX_K:
        raise BudgetError(f"k={k} outside the supported range 0..{MAX_K}")
    g = s.graph
    n = g.vertex_count
    colors = _colors(k, zero_free)
    # Edges back to already-colored vertices, for incremental checking.
    earlier = [[(u, s.sign(u, v)) for u in g.adjacency[v] if u < v]
               for v in range(n)]
    assigned = [0] * n
    total = 0

    def extend(v):
        nonlocal total
        if v == n:
            total += 1
            return
        for c in colors:
            if all(c != sig * assigned[u] for u, sig in earlier[v]):
                assigned[v] = c
                extend(v + 1)
        assigned[v] = None

    extend(0)
    return total


def chromatic_numbers(s: SignedGraph) -> tuple[int, int]:
    """(chi, chi_star): least k admitting a proper coloration, with and
    then without the zero color."""
    chi = chi_star = None
    for k in range(0, MAX_K + 1):
        if chi is None and count_colorations(s, k, zero_free=False):
            chi = k
        if chi_star is None and k > 0 and count_colorations(s, k, zero_free=True):
            chi_star = k
        if chi is not None and chi_star is not None:
            return chi, chi_star
    raise BudgetError("chromatic number exceeds the k <= 2 budget")


def balanced_expansion_check(s: SignedGraph) -> tuple[bool, int, int]:
    """Verify that the count at 3 colors equals the sum over independent
    sets W of the zero-free count of s minus W at 2 colors (the expansion
    at mu = 1, the only one within the k <= 2 budget). Returns (equal, left
    side, right side)."""
    left = count_colorations(s, 1, zero_free=False)
    right = 0
    for w in all_independent_sets(s.graph):
        right += count_colorations(delete_vertices(s, w), 1, zero_free=True)
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
    c6 = negative_circle_counts(s, {6})[6]
    return 2 * a0 + 2 * a1 + 2 * a2 - 4 * c6


def switching_color_invariance_check(s: SignedGraph, z: SwitchingFunction) -> bool:
    """Counts at k <= 2, both zero-free settings, agree between s and its
    switching (budget keeps the k = 2 checks to the zero-free ones)."""
    t = switch(s, z)
    for k, zero_free in ((1, False), (1, True), (2, True)):
        if count_colorations(s, k, zero_free) != count_colorations(t, k, zero_free):
            return False
    return True
