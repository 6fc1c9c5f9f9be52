"""Unsigned graph foundation: Petersen construction, cycles, cuts, matchings,
contraction, automorphisms, and small-graph chromatic number.

All graphs are simple and undirected, with vertices 0..n-1 and a canonical
(lexicographically sorted) edge list so that edge indices are deterministic.
Search routines are exact and capped at 16 vertices.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

MAX_SEARCH_VERTICES = 16


class SearchSizeError(ValueError):
    """Raised when an exhaustive search is requested on too large a graph."""


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop edge {u}-{v}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge {u}-{v} out of range")
            if u > v:
                raise ValueError(f"edge {u}-{v} not normalized")
            if (u, v) in seen:
                raise ValueError(f"repeated edge {u}-{v}")
            seen.add((u, v))
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edge list not in canonical order")

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
        return cls(vertex_count, tuple(norm))

    @cached_property
    def adjacency(self) -> tuple[frozenset, ...]:
        adj = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(a) for a in adj)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def index_of(self, u: int, v: int) -> int:
        return self.edge_index[(u, v) if u < v else (v, u)]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs shortest-path distances (BFS per vertex)."""
        n = self.vertex_count
        out = []
        for s in range(n):
            dist = [-1] * n
            dist[s] = 0
            frontier = [s]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in self.adjacency[u]:
                        if dist[w] < 0:
                            dist[w] = dist[u] + 1
                            nxt.append(w)
                frontier = nxt
            out.append(tuple(dist))
        return tuple(out)

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Edge mask of the edges at each vertex: the cut of that vertex
        alone."""
        inc = [0] * self.vertex_count
        for i, (u, v) in enumerate(self.edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        return tuple(inc)

    @cached_property
    def spanning_forest(self) -> tuple[tuple[int, int, int], ...]:
        """Breadth-first spanning forest as (vertex, parent, edge index)
        triples in visiting order. Each component is rooted at its least
        vertex, which carries parent and edge index -1."""
        # In canonical edge order each vertex meets its neighbours in
        # increasing order, so these lists need no sort.
        nbrs = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            nbrs[u].append((v, i))
            nbrs[v].append((u, i))
        seen = [False] * self.vertex_count
        out = []
        for root in range(self.vertex_count):
            if seen[root]:
                continue
            seen[root] = True
            i = len(out)
            out.append((root, -1, -1))
            while i < len(out):
                u = out[i][0]
                i += 1
                for w, j in nbrs[u]:
                    if not seen[w]:
                        seen[w] = True
                        out.append((w, u, j))
        return tuple(out)

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All adjacency-preserving vertex bijections, as image tuples in
        the order the backtracking search finds them; searched once per
        graph."""
        return _automorphism_search(self)

    def is_connected(self) -> bool:
        return sum(1 for _, parent, _ in self.spanning_forest if parent < 0) <= 1

    def closed_neighborhood(self, v: int) -> frozenset:
        return self.adjacency[v] | {v}


# ---------------------------------------------------------------------------
# Petersen graph
# ---------------------------------------------------------------------------

# 2-subsets of {1..5} in lexicographic order; subset i is vertex i.
PETERSEN_PAIRS = tuple(itertools.combinations(range(1, 6), 2))


@dataclass(frozen=True)
class PetersenLabeling:
    """Bijection between vertex ids 0..9 and the 2-subsets of {1..5}."""

    pair_of: tuple[tuple[int, int], ...] = PETERSEN_PAIRS

    @cached_property
    def vertex_of(self) -> dict[frozenset, int]:
        return {frozenset(p): i for i, p in enumerate(self.pair_of)}

    def vertex(self, i: int, j: int) -> int:
        return self.vertex_of[frozenset((i, j))]


@lru_cache(maxsize=1)
def petersen() -> tuple[Graph, PetersenLabeling]:
    """Petersen graph on the canonical pair labeling: v_{ij} ~ v_{kl} iff
    the pairs {i,j} and {k,l} are disjoint. Every call returns the same
    frozen graph, so what it caches (automorphisms, incidence, spanning
    forest) is computed once per process."""
    edges = []
    for a in range(10):
        for b in range(a + 1, 10):
            if not set(PETERSEN_PAIRS[a]) & set(PETERSEN_PAIRS[b]):
                edges.append((a, b))
    return Graph(10, tuple(sorted(edges))), PetersenLabeling()


def is_petersen(g: Graph) -> bool:
    return g.vertex_count == 10 and g.edges == petersen()[0].edges


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cycle:
    """A simple cycle: its vertices in canonical rotation and the edge mask
    of its edges (bit i set when edge i lies on it)."""

    vertices: tuple[int, ...]
    edge_mask: int

    @property
    def length(self) -> int:
        return len(self.vertices)

    @classmethod
    def from_vertices(cls, g: Graph, verts) -> "Cycle":
        verts = tuple(verts)
        if len(verts) < 3 or len(set(verts)) != len(verts):
            raise ValueError(f"not a cycle: {verts}")
        mask = 0
        for a, b in zip(verts, verts[1:] + verts[:1]):
            i = g.edge_index.get((a, b) if a < b else (b, a))
            if i is None:
                raise ValueError(f"not a cycle: {a}-{b} is not an edge")
            mask |= 1 << i
        return cls(_canonical_rotation(verts), mask)


def _canonical_rotation(verts: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate to start at the least vertex; orient so the second vertex is
    smaller than the last."""
    i = verts.index(min(verts))
    rot = verts[i:] + verts[:i]
    if rot[1] > rot[-1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def enumerate_cycles(g: Graph, max_len: int) -> list[Cycle]:
    """All simple cycles of length <= max_len, each exactly once, in a
    deterministic order (by length, then vertex sequence)."""
    if max_len > g.vertex_count:
        max_len = g.vertex_count
    adj = [sorted(a) for a in g.adjacency]
    found = []

    def dfs(root, path, visited):
        last = path[-1]
        for w in adj[last]:
            if w == root and len(path) >= 3:
                if path[1] < path[-1]:  # fix orientation: one copy per cycle
                    found.append(tuple(path))
            elif w > root and w not in visited and len(path) < max_len:
                visited.add(w)
                path.append(w)
                dfs(root, path, visited)
                path.pop()
                visited.remove(w)

    for root in range(g.vertex_count):
        dfs(root, [root], {root})
    cycles = [Cycle.from_vertices(g, vs) for vs in found]
    cycles.sort(key=lambda c: (c.length, c.vertices))
    return cycles


def hexagon_of_vertex(g: Graph, v: int) -> Cycle:
    """The unique hexagon of the Petersen graph avoiding the closed
    neighborhood of v."""
    rest = [w for w in range(g.vertex_count) if w not in g.closed_neighborhood(v)]
    if len(rest) != 6:
        raise ValueError("graph is not the Petersen graph")
    order = [rest[0]]
    while len(order) < 6:
        nxt = [w for w in g.adjacency[order[-1]]
               if w in rest and w not in order]
        if not nxt:
            raise ValueError("complement of N[v] is not a hexagon")
        order.append(min(nxt))
    return Cycle.from_vertices(g, order)


# ---------------------------------------------------------------------------
# Cuts and independent sets
# ---------------------------------------------------------------------------

def cut(g: Graph, x) -> frozenset:
    """Edge indices with exactly one endpoint in the vertex set x."""
    xs = set(x)
    return frozenset(i for i, (u, v) in enumerate(g.edges)
                     if (u in xs) != (v in xs))


def bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cut_space(g: Graph):
    """Every cut of g as a pair (vertex mask X, edge mask of cut(X)).

    Switching X flips the signs on cut(X), so these XOR masks are the whole
    switching action on a sign mask. The least vertex of each connected
    component stays out of X, which makes the pairs one per cut: 2^(n -
    components) of them, starting with (0, 0). Gray-code order switches one
    vertex per step, so each step costs one XOR. It is a generator because a
    16-vertex graph has up to 2^15 cuts.
    """
    free = sorted(v for v, parent, _ in g.spanning_forest if parent >= 0)
    inc = g.incidence
    x = c = 0
    yield x, c
    for step in range(1, 1 << len(free)):
        v = free[(step & -step).bit_length() - 1]
        x ^= 1 << v
        c ^= inc[v]
        yield x, c


def cut_mask(g: Graph, x: int) -> int:
    """Edge mask of the cut of the vertex mask x: switching x flips the
    signs on exactly these edges."""
    c = 0
    for v in bits(x):
        c ^= g.incidence[v]
    return c


def forest_preimage(g: Graph, d: int) -> int:
    """The vertex mask X, least vertex of every component left out, whose
    cut agrees with the edge mask d on every spanning-forest edge: X is read
    off the forest, an edge of d separating a vertex from its parent."""
    x = 0
    for v, parent, i in g.spanning_forest:
        if parent >= 0 and ((x >> parent) ^ (d >> i)) & 1:
            x |= 1 << v
    return x


def cut_preimage(g: Graph, d: int):
    """The vertex mask X with cut(X) = d (as edge masks) that leaves the
    least vertex of every component out, or None when d is not a cut.

    X is ``forest_preimage(g, d)``; the check that cut(X) gives back d
    covers the edges off the forest.
    """
    x = forest_preimage(g, d)
    return x if cut_mask(g, x) == d else None


def independent_sets(g: Graph, k: int) -> list[frozenset]:
    """All independent vertex sets of size exactly k."""
    if not 0 <= k <= g.vertex_count:
        raise ValueError(f"bad size {k}")
    out = []
    for combo in itertools.combinations(range(g.vertex_count), k):
        if all(not g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
            out.append(frozenset(combo))
    return out


def all_independent_sets(g: Graph) -> list[frozenset]:
    """Independent sets of every size (including the empty set)."""
    out = []
    for k in range(g.vertex_count + 1):
        sets = independent_sets(g, k)
        if not sets:
            break
        out.extend(sets)
    return out


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

class MatchingClass(enum.Enum):
    EMPTY = "empty"
    M1 = "M1"
    M22 = "M2,2"
    M23 = "M2,3"
    M32 = "M3,2"
    M33 = "M3,3"
    M3PRIME = "M3'"
    M3_2_3 = "M3,2/3"
    M4PRIME = "M4'"
    M5_MINUS_EDGE = "M5-e"
    M5 = "M5"


def edge_distance(g: Graph, e: tuple[int, int], f: tuple[int, int]) -> int:
    """Distance between edges in the line graph (adjacent edges: 1)."""
    if set(e) == set(f):
        return 0
    if set(e) & set(f):
        return 1
    return 1 + min(g.distances[a][b] for a in e for b in f)


def all_matchings(g: Graph) -> list[frozenset]:
    """Every matching of g (as frozensets of edges), the empty one included."""
    edges = g.edges
    out = []

    def extend(start, chosen, used):
        out.append(frozenset(chosen))
        for i in range(start, len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                chosen.append(edges[i])
                extend(i + 1, chosen, used | {u, v})
                chosen.pop()

    extend(0, [], frozenset())
    return out


def classify_matching(g: Graph, m) -> MatchingClass:
    """Automorphism class of a matching of the Petersen graph."""
    edges = [tuple(sorted(e)) for e in m]
    verts = [v for e in edges for v in e]
    if len(set(verts)) != len(verts):
        raise ValueError("edge set is not a matching")
    for e in edges:
        if e not in g.edge_index:
            raise ValueError(f"{e} is not an edge")
    k = len(edges)
    if k == 0:
        return MatchingClass.EMPTY
    if k == 1:
        return MatchingClass.M1
    if k == 5:
        return MatchingClass.M5
    dists = sorted(edge_distance(g, e, f)
                   for e, f in itertools.combinations(edges, 2))
    if k == 2:
        return MatchingClass.M22 if dists == [2] else MatchingClass.M23
    if k == 3:
        if dists == [3, 3, 3]:
            return MatchingClass.M33
        if dists == [2, 2, 3]:
            return MatchingClass.M3_2_3
        if dists == [2, 2, 2]:
            m = sum(1 << g.edge_index[e] for e in edges)
            for v in range(g.vertex_count):
                if m & hexagon_of_vertex(g, v).edge_mask == m:
                    return MatchingClass.M32
            return MatchingClass.M3PRIME
        raise ValueError(f"unexpected 3-matching distances {dists}")
    if k == 4:
        unmatched = [v for v in range(g.vertex_count) if v not in verts]
        if g.has_edge(*unmatched):
            return MatchingClass.M5_MINUS_EDGE
        return MatchingClass.M4PRIME
    raise ValueError(f"matching of unsupported size {k}")


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionResult:
    quotient: Graph
    loop_flag: bool
    origin: tuple[frozenset, ...]
    from_contraction: tuple[bool, ...]


def contract(g: Graph, s) -> ContractionResult:
    """Contract the edge set s: each component of (V, s) becomes one vertex.
    Parallel edges are merged; a loop is only recorded as a flag."""
    parent = list(range(g.vertex_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in s:
        if (min(u, v), max(u, v)) not in g.edge_index:
            raise ValueError(f"{(u, v)} is not an edge")
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    roots = sorted({find(v) for v in range(g.vertex_count)})
    new_id = {r: i for i, r in enumerate(roots)}
    origin = [set() for _ in roots]
    for v in range(g.vertex_count):
        origin[new_id[find(v)]].add(v)

    contracted = {tuple(sorted((min(u, v), max(u, v)))) for u, v in s}
    loop = False
    qedges = set()
    for u, v in g.edges:
        if (u, v) in contracted:
            continue
        a, b = new_id[find(u)], new_id[find(v)]
        if a == b:
            loop = True
        else:
            qedges.add((min(a, b), max(a, b)))
    quotient = Graph(len(roots), tuple(sorted(qedges)))
    return ContractionResult(
        quotient=quotient,
        loop_flag=loop,
        origin=tuple(frozenset(o) for o in origin),
        from_contraction=tuple(len(o) > 1 for o in origin),
    )


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def automorphism_images(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All adjacency-preserving vertex bijections of g, as image tuples
    (``Graph.automorphisms``)."""
    return g.automorphisms


def _automorphism_search(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Backtracking over vertices with degree filtering and full adjacency
    consistency against already-mapped vertices."""
    n = g.vertex_count
    if n > MAX_SEARCH_VERTICES:
        raise SearchSizeError(f"{n} vertices exceeds cap {MAX_SEARCH_VERTICES}")
    degs = [g.degree(v) for v in range(n)]
    adj = g.adjacency
    result = []
    image = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            result.append(tuple(image))
            return
        for w in range(n):
            if used[w] or degs[w] != degs[i]:
                continue
            ok = True
            for j in range(i):
                if (j in adj[i]) != (image[j] in adj[w]):
                    ok = False
                    break
            if ok:
                image[i] = w
                used[w] = True
                extend(i + 1)
                used[w] = False
        image[i] = -1

    extend(0)
    return tuple(result)


# ---------------------------------------------------------------------------
# Chromatic number
# ---------------------------------------------------------------------------

def _colorable(g: Graph, k: int) -> bool:
    n = g.vertex_count
    if n == 0:
        return True
    if k == 0:
        return len(g.edges) == 0 and n == 0
    order = sorted(range(n), key=g.degree, reverse=True)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[w for w in g.adjacency[v] if pos[w] < pos[v]] for v in order]
    colors = [-1] * n

    def extend(i):
        if i == n:
            return True
        v = order[i]
        limit = min(k, i + 1)  # symmetry break: first use of each color
        used = {colors[w] for w in earlier[i]}
        for c in range(limit):
            if c not in used:
                colors[v] = c
                if extend(i + 1):
                    return True
        colors[v] = -1
        return False

    return extend(0)


def chromatic_number(x) -> int | float:
    """Minimum number of colors in a proper vertex coloring.

    Accepts a Graph or a ContractionResult; a contraction with a loop is
    uncolorable and reported as math.inf.
    """
    if isinstance(x, ContractionResult):
        if x.loop_flag:
            return math.inf
        g = x.quotient
    else:
        g = x
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for exact chromatic number")
    if g.vertex_count == 0:
        return 0
    if not g.edges:
        return 1
    for k in itertools.count(2):
        if _colorable(g, k):
            return k
