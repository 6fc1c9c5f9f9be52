"""Unsigned graph foundation: Petersen construction, cycles as edge masks,
cuts and the cycle-space syndrome, spanning forests, vertex sets and
automorphisms.

All graphs are simple and undirected, with vertices 0..n-1 and a canonical
(lexicographically sorted) edge list so that edge indices are deterministic.
Search routines are exact and capped at 16 vertices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter

MAX_SEARCH_VERTICES = 16


class SearchSizeError(ValueError):
    """Raised when an exhaustive search is requested on too large a graph."""


class _cached:
    """A property computed on first read and kept in the instance's
    ``__dict__``, which later reads find first. It is the cached property
    of ``functools`` without the lock that Python 3.11 takes on every
    first read; Python 3.12 dropped it. Every query on a new graph
    makes a few first reads, and with the lock a cold one costs several
    times as much."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Record:
    """Immutable fields named in ``_fields``, which ``__init__`` writes into
    ``__dict__`` (where ``_cached`` keeps its values too); equality,
    hash and repr go by the field values, within one class. The hash is
    computed on first use and kept in ``__dict__`` as well."""

    def __init_subclass__(cls):
        cls._key = itemgetter(*cls._fields)  # the field values of a __dict__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self.__dict__) == other._key(other.__dict__)

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash(self._key(self.__dict__))
            return h

    def __repr__(self):
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _edge_fault(n: int, edges) -> str:
    """Why the edge list of a graph on n vertices is not canonical: the
    first loop, edge out of range, unnormalized or repeated edge, else the
    order."""
    seen = set()
    for u, v in edges:
        if u == v:
            return f"loop edge {u}-{v}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {u}-{v} out of range"
        if u > v:
            return f"edge {u}-{v} not normalized"
        if (u, v) in seen:
            return f"repeated edge {u}-{v}"
        seen.add((u, v))
    return "edge list not in canonical order"


class Graph(_Record):
    _fields = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int], ...]):
        """Refuses an edge list that is not canonical, in one pass: each
        edge u < v inside 0..n-1 and after the one before it. Only then is
        the first fault looked for, to word the message."""
        last = ()
        for e in edges:
            u, v = e
            if not (last < e and 0 <= u < v < vertex_count):
                raise ValueError(_edge_fault(vertex_count, edges))
            last = e
        self.__dict__.update(vertex_count=vertex_count, edges=edges)

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
        return cls(vertex_count, tuple(norm))

    def index_of(self, u: int, v: int) -> int:
        """Index of the edge uv, the one edge at both ends, or -1 when u
        and v are not adjacent (u == v included)."""
        inc = self.incidence
        return (inc[u] & inc[v]).bit_length() - 1 if u != v else -1

    def degree(self, v: int) -> int:
        return len(self.neighbours[v])

    @_cached
    def incidence(self) -> tuple[int, ...]:
        """Edge mask of the edges at each vertex: the cut of that vertex
        alone."""
        inc = [0] * self.vertex_count
        for i, (u, v) in enumerate(self.edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        return tuple(inc)

    @_cached
    def neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each vertex's (neighbour, edge index) pairs, by increasing
        neighbour: canonical edge order meets them in that order."""
        nbrs = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            nbrs[u].append((v, i))
            nbrs[v].append((u, i))
        return tuple(map(tuple, nbrs))

    @_cached
    def spanning_forest(self) -> tuple[tuple[int, int, int], ...]:
        """``bfs_forest`` of the whole graph."""
        return bfs_forest(self)

    @_cached
    def chords(self) -> tuple[int, ...]:
        """Indices of the edges off the spanning forest, increasing: the
        t-th closes the t-th fundamental cycle, r = m - n + c in all."""
        forest = {i for _, parent, i in self.spanning_forest if parent >= 0}
        return tuple(i for i in range(len(self.edges)) if i not in forest)

    @_cached
    def syndromes(self) -> tuple[int, ...]:
        """Cycle-space syndrome of each edge, bit t its parity on the t-th
        fundamental cycle: 1 << t for the t-th chord, and for the forest
        edge above v the xor of the chords with one end in the subtree of
        v, the chords that the cut of that subtree meets. One pass up the
        forest gathers those in O(n + m)."""
        out = [0] * len(self.edges)
        below = [0] * self.vertex_count
        for t, e in enumerate(self.chords):
            out[e] = 1 << t
            for v in self.edges[e]:
                below[v] ^= 1 << t
        for v, parent, i in reversed(self.spanning_forest):
            if parent >= 0:
                out[i] = below[v]
                below[parent] ^= below[v]
        return tuple(out)

    def is_connected(self) -> bool:
        return sum(1 for _, parent, _ in self.spanning_forest if parent < 0) <= 1

# ---------------------------------------------------------------------------
# Petersen graph
# ---------------------------------------------------------------------------

# The 2-subsets {i, j} of {1..5} in lexicographic order: vertex v is v_ij
# with (i, j) = PETERSEN_PAIRS[v], and its label "ij" is PETERSEN_LABELS[v].
PETERSEN_PAIRS = tuple(itertools.combinations(range(1, 6), 2))
PETERSEN_LABELS = tuple(f"{i}{j}" for i, j in PETERSEN_PAIRS)


@lru_cache(maxsize=1)
def petersen() -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Petersen graph on ``PETERSEN_PAIRS``, with those pairs: v_{ij} ~
    v_{kl} iff the pairs {i,j} and {k,l} are disjoint. Every call returns the
    same frozen graph, so what it caches (incidence, spanning forest,
    syndromes) and the caches keyed by it are computed once per process."""
    edges = [(a, b) for a, b in itertools.combinations(range(10), 2)
             if not set(PETERSEN_PAIRS[a]) & set(PETERSEN_PAIRS[b])]
    return Graph.from_edges(10, edges), PETERSEN_PAIRS


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def enumerate_cycles(g: Graph, max_len: int) -> tuple[int, ...]:
    """Edge masks of all simple cycles of length <= max_len, each exactly
    once, by length and then by vertex sequence. A cycle is walked from its
    least vertex towards the smaller of that vertex's two neighbours on it,
    so each is met once, with its edge mask gathered on the way."""
    max_len = min(max_len, g.vertex_count)
    nbrs = g.neighbours
    found = []

    def dfs(root, path, visited, mask):
        last = path[-1]
        for w, i in nbrs[last]:
            if w == root and len(path) >= 3:
                if path[1] < last:  # fix orientation: one copy per cycle
                    found.append((len(path), tuple(path), mask | 1 << i))
            elif w > root and w not in visited and len(path) < max_len:
                visited.add(w)
                path.append(w)
                dfs(root, path, visited, mask | 1 << i)
                path.pop()
                visited.remove(w)

    for root in range(g.vertex_count):
        dfs(root, [root], {root}, 0)
    found.sort()
    return tuple(mask for _, _, mask in found)


def bfs_forest(g: Graph, skip: int = 0) -> tuple[tuple[int, int, int], ...]:
    """Breadth-first spanning forest of g without the edges in the mask
    skip, as (vertex, parent, edge index) triples in visiting order. Each
    component is rooted at its least vertex, which carries parent and edge
    index -1."""
    nbrs = g.neighbours
    seen = [False] * g.vertex_count
    out = []
    for root in range(g.vertex_count):
        if seen[root]:
            continue
        seen[root] = True
        i = len(out)
        out.append((root, -1, -1))
        while i < len(out):
            u = out[i][0]
            i += 1
            for w, j in nbrs[u]:
                if not seen[w] and not skip >> j & 1:
                    seen[w] = True
                    out.append((w, u, j))
    return tuple(out)


def forest_paths(g: Graph, skip: int):
    """``bfs_forest(g, skip)``, each vertex's component (numbered by least
    vertex), and the edge mask of each vertex's forest path to its root:
    two vertices of one component are joined in the forest by the xor of
    their masks."""
    forest = bfs_forest(g, skip)
    comp = [0] * g.vertex_count
    up = [0] * g.vertex_count
    count = 0
    for v, parent, i in forest:
        if parent < 0:
            comp[v] = count
            count += 1
        else:
            comp[v] = comp[parent]
            up[v] = up[parent] | 1 << i
    return forest, tuple(comp), tuple(up)


# ---------------------------------------------------------------------------
# Cuts and the cycle-space syndrome
# ---------------------------------------------------------------------------

def bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cut_space(g: Graph):
    """Every cut of g as a pair (vertex mask X, edge mask of the cut of X).

    Switching X flips the signs on its cut, so these XOR masks are the whole
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


def syndrome(g: Graph, mask: int) -> int:
    """Parities of an edge mask on the fundamental cycles: zero exactly when
    mask is a cut, so two sign masks are switching equivalent exactly when
    their syndromes agree (Harary)."""
    cols = g.syndromes
    z = 0
    for e in bits(mask):
        z ^= cols[e]
    return z


def chord_mask(g: Graph, z: int) -> int:
    """The sign mask with syndrome z that is negative on chords only: one
    representative of the switching class with syndrome z."""
    return sum(1 << g.chords[t] for t in bits(z))


def span_reduce(z: int, basis) -> int:
    """z reduced by an echelon basis (distinct leading bits, largest
    first): zero exactly when z lies in the span of the basis."""
    for b in basis:
        if z ^ b < z:
            z ^= b
    return z


def span_basis(vectors, basis=()) -> tuple[int, ...]:
    """Echelon basis, largest first, of the span of basis and vectors.
    Each vector is reduced as ``span_reduce`` does, with its loop written
    out: this is the step of every subset of ``vertex_sets``."""
    basis = list(basis)
    for y in vectors:
        for b in basis:
            if y ^ b < y:
                y ^= b
        if y:
            basis.append(y)
            basis.sort(reverse=True)
    return tuple(basis)


def vertex_sets(g: Graph, independent: bool = False):
    """Every vertex set W of g (only the independent ones, with
    independent) by increasing size, in ``itertools.combinations`` order
    within a size, as (vertex mask W, edge mask E_W of the edges at W,
    echelon basis of U_W, the span of the syndromes of E_W). The cycles of
    G - W are the cycles of G that avoid E_W, those whose fundamental-cycle
    coordinates are orthogonal to U_W, so a sign mask with syndrome z is
    balanced on G - W exactly when z lies in U_W (Harary). Each basis grows
    from that of W less its largest vertex, kept from the size before."""
    yield 0, 0, ()
    n, inc, cols = g.vertex_count, g.incidence, g.syndromes
    # The edges at v make a cut, whose syndromes xor to 0, so the last one
    # adds nothing to the span; a bridge's syndrome is 0.
    stars = [[cols[i] for _, i in nv[:-1] if cols[i]] for nv in g.neighbours]
    near = [sum(1 << u for u, _ in nv) if independent else 0
            for nv in g.neighbours]
    level = [(0, 0, ())]
    while level:
        grown = []
        for w, e, basis in level:
            for v in range(w.bit_length(), n):  # above the largest in W
                if not w & near[v]:
                    grown.append(entry := (w | 1 << v, e | inc[v],
                                           span_basis(stars[v], basis)))
                    yield entry
        level = grown


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def automorphism_images(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All adjacency-preserving vertex bijections of g, as image tuples,
    sorted, searched on each call (``groups._automorphism_edge_maps`` keeps
    them once per graph) by backtracking in spanning-forest order on
    neighbour bitmasks. A vertex's candidates, the unused ones of its degree
    adjacent to the images of its earlier neighbours, are one mask; one is
    taken when its used neighbours are exactly those images (adjacency both
    ways); sorted, they come in the order a vertex-order search finds them."""
    n = g.vertex_count
    if n > MAX_SEARCH_VERTICES:
        raise SearchSizeError(f"{n} vertices exceeds cap {MAX_SEARCH_VERTICES}")
    adj = [sum(1 << w for w, _ in nv) for nv in g.neighbours]
    order = [v for v, _, _ in g.spanning_forest]
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[u for u, _ in g.neighbours[v] if pos[u] < i]
               for i, v in enumerate(order)]
    like = [sum(1 << w for w in range(n)
                if adj[w].bit_count() == adj[v].bit_count()) for v in order]
    result, image = [], [-1] * n

    def extend(i, used):
        if i == n:
            result.append(tuple(image))
            return
        need, free = 0, like[i] & ~used
        for u in earlier[i]:
            need |= 1 << image[u]
            free &= adj[image[u]]
        while free:
            low = free & -free
            free ^= low
            w = low.bit_length() - 1
            if adj[w] & used == need:
                image[order[i]] = w
                extend(i + 1, used | low)

    extend(0, 0)
    return tuple(sorted(result))
