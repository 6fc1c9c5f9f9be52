"""Reference routes the tests compare the program with, each computing a
value the program also computes the slow and direct way, and the helpers
only the tests use: circles as vertex sequences with their edge masks, the
balance and clusterability witnesses (a bipartition or a negative circle, a
clustering partition or a circle with one negative edge), edge and circle
signs, the edge-list writer, groups checked on their Cayley tables, cycle
notation, products, conjugates and actions of switching permutations, the
coset product, matchings with their classes found two ways, a minimum
vertex colouring, and the maximum inclusterability."""

import enum
import itertools
from functools import lru_cache

from signedpetersen.clustering import _clusters, bad_edge
from signedpetersen.coloring import _count, count_colorations
from signedpetersen.graphs import (MAX_SEARCH_VERTICES, Graph, SearchSizeError,
                                   _Record, automorphism_images, bits,
                                   cut_mask, cut_space, forest_preimage,
                                   petersen, span_basis, syndrome)
from signedpetersen.groups import (CosetError, FiniteGroup,
                                   GroupAxiomError, SwitchingGroup,
                                   SwitchingPermutation, _default_reps,
                                   compose, identity_perm, inverse)
from signedpetersen.signed import SignedGraph, switch


class Cycle(_Record):
    """A simple cycle: its vertices in canonical rotation and the edge mask
    of its edges (bit i set when edge i lies on it)."""

    _fields = ("vertices", "edge_mask")

    def __init__(self, vertices: tuple[int, ...], edge_mask: int):
        self.__dict__.update(vertices=vertices, edge_mask=edge_mask)

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
            i = g.index_of(a, b)
            if i < 0:
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


def list_cycles(g: Graph, max_len: int) -> list[Cycle]:
    """All simple cycles of length <= max_len, each exactly once, sorted by
    length and then vertex sequence: each closed path found, in either
    direction, is put in canonical rotation and kept once."""
    adj = adjacency(g)
    found = set()

    def dfs(path):
        for w in adj[path[-1]]:
            if w == path[0] and len(path) >= 3:
                found.add(Cycle.from_vertices(g, path))
            elif w > path[0] and w not in path and len(path) < max_len:
                dfs(path + [w])

    for root in range(g.vertex_count):
        dfs([root])
    return sorted(found, key=lambda c: (c.length, c.vertices))


def tree_cycle(g: Graph, forest, u: int, w: int) -> Cycle:
    """Cycle through edge uw and the path between u and w in forest, given
    as ``bfs_forest`` triples of a forest of g."""
    parent = {v: p for v, p, _ in forest}
    up = [u]
    while parent[up[-1]] >= 0:
        up.append(parent[up[-1]])
    at = {v: i for i, v in enumerate(up)}
    down = [w]
    while down[-1] not in at:
        down.append(parent[down[-1]])
    return Cycle.from_vertices(g, up[:at[down[-1]]] + down[::-1])


class BalanceResult(_Record):
    """Balance with its witness: the bipartition (positive side, negative
    side) of a balanced signature, or a negative circle."""

    _fields = ("balanced", "bipartition", "negative_cycle")

    def __init__(self, balanced: bool,
                 bipartition: tuple[frozenset, frozenset] | None,
                 negative_cycle: Cycle | None):
        self.__dict__.update(balanced=balanced, bipartition=bipartition,
                             negative_cycle=negative_cycle)

    def __bool__(self):
        return self.balanced


def balance_witness(s) -> BalanceResult:
    """Balance by the cut of the forest preimage, not by the syndrome: a
    signature is balanced exactly when its negative edges form a cut
    (Harary), and X = forest_preimage(mask), the one candidate vertex set,
    must have the mask as its cut. Balanced signatures get the bipartition
    (V - X, X), positive edges inside a side; unbalanced ones get a
    negative circle, the edge of least index where cut(X) and the mask
    differ (never a forest edge) closed by the forest paths from its ends."""
    g = s.graph
    x = forest_preimage(g, s.mask)
    off = s.mask ^ cut_mask(g, x)
    if not off:
        neg = frozenset(bits(x))
        return BalanceResult(True, (frozenset(range(g.vertex_count)) - neg, neg),
                             None)
    u, w = g.edges[(off & -off).bit_length() - 1]
    return BalanceResult(False, None, tree_cycle(g, g.spanning_forest, u, w))


def cluster_witness(s):
    """(flag, witness) from the program's own pieces, its positive forest,
    ``bad_edge`` and ``_clusters``: a negative edge inside one positive
    component, closed by the forest path between its ends, or the
    fewest-parts partition with positive edges inside parts and negative
    edges across, the vertices of each colour class of ``_clusters``."""
    bad = bad_edge(s)
    forest, comp, _ = s.positive_forest
    if bad:
        return False, tree_cycle(s.graph, forest, *bad)
    return True, tuple(frozenset(v for v, c in enumerate(comp) if part >> c & 1)
                       for part in _clusters(s))


def cut(g, x):
    """Edge indices with exactly one endpoint in the vertex set x."""
    xs = set(x)
    return frozenset(i for i, (u, v) in enumerate(g.edges)
                     if (u in xs) != (v in xs))


@lru_cache(maxsize=64)
def adjacency(g):
    """Each vertex's neighbours as a frozenset, from the edge list."""
    adj = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(map(frozenset, adj))


@lru_cache(maxsize=64)
def edge_index(g):
    """The index of each edge (u, v), u < v, from the edge list."""
    return {e: i for i, e in enumerate(g.edges)}


def cut_preimage(g, d):
    """The vertex mask X with cut(X) = d (as edge masks) that leaves the
    least vertex of every component out, or None when d is not a cut.

    X is ``forest_preimage(g, d)``; the check that cut(X) gives back d
    covers the edges off the forest.
    """
    x = forest_preimage(g, d)
    return x if cut_mask(g, x) == d else None


def edge_sign(s, u, v):
    """+1 or -1, the sign of the edge uv of s."""
    return -1 if s.mask >> edge_index(s.graph)[min(u, v), max(u, v)] & 1 else 1


def sign_of_circle(s, c):
    """+1 or -1, the product of the signs of the circle's edges."""
    return -1 if (s.mask & c.edge_mask).bit_count() & 1 else 1


def serialize_signed_graph(s):
    """The edge-list text of s, one signed edge a line in edge order."""
    out = [f"n {s.graph.vertex_count}"]
    for i, (u, v) in enumerate(s.graph.edges):
        out.append(f"{u} {v} {'-' if s.mask >> i & 1 else '+'}")
    return "\n".join(out) + "\n"


def negative_circle_counts(s, lengths):
    """Negative circles of each length in lengths, from a fresh cycle
    listing."""
    lengths = set(lengths)
    counts = {k: 0 for k in lengths}
    for c in list_cycles(s.graph, max(lengths)):
        if c.length in lengths and sign_of_circle(s, c) < 0:
            counts[c.length] += 1
    return counts


def delete_vertices(s, w):
    """Signature induced on the remaining vertices (ids compacted). The
    relabeling keeps the vertex order, so the kept edges stay in canonical
    order."""
    ws = set(w)
    keep = [v for v in range(s.graph.vertex_count) if v not in ws]
    new_id = {v: i for i, v in enumerate(keep)}
    edges, mask = [], 0
    for i, (u, v) in enumerate(s.graph.edges):
        if u in ws or v in ws:
            continue
        mask |= (s.mask >> i & 1) << len(edges)
        edges.append((new_id[u], new_id[v]))
    return SignedGraph(Graph(len(keep), tuple(edges)), mask)


def independent_sets(g, k):
    """All independent vertex sets of size exactly k."""
    return [frozenset(combo)
            for combo in itertools.combinations(range(g.vertex_count), k)
            if not any(b in adjacency(g)[a]
                       for a, b in itertools.combinations(combo, 2))]


def all_independent_sets(g):
    """Independent sets of every size (including the empty set)."""
    return [w for k in range(g.vertex_count + 1)
            for w in independent_sets(g, k)]


def balanced_expansion_check(s):
    """The count at 3 colors against the sum over independent sets W of
    the zero-free backtrack count of s minus W at 2 colors (the expansion
    at mu = 1, the only one within the k <= 2 budget). Returns (equal, left
    side, right side)."""
    left = count_colorations(s, 1, zero_free=False)
    right = sum(_count(delete_vertices(s, w), 1, zero_free=True)
                for w in all_independent_sets(s.graph))
    return left == right, left, right


def switching_color_invariance_check(s, x):
    """Counts at k <= 2, both zero-free settings, of s and of its switching
    by the vertex mask x agree with the backtrack on the switching (time
    keeps the k = 2 checks to the zero-free ones). The program counts once
    per switching class, so the backtrack is the independent route."""
    t = switch(s, x)
    return all(count_colorations(s, k, zf) == count_colorations(t, k, zf)
               == _count(t, k, zf)
               for k, zf in ((1, False), (1, True), (2, True)))


def minimal_representative(s):
    """Among the switchings of s, by a walk over every cut, one with fewest
    negative edges, and the vertex mask switched to reach it; ties break to
    the least sign mask."""
    g, mask = s.graph, s.mask
    x, c = min(cut_space(g), key=lambda xc: ((mask ^ xc[1]).bit_count(),
                                             mask ^ xc[1]))
    return SignedGraph(g, mask ^ c), x


def switching_orbits(g):
    """Every switching class of signatures on g once, as the sorted list
    of its masks: the least mask not yet met, switched by every cut."""
    cuts = [c for _, c in cut_space(g)]
    seen = set()
    for mask in range(1 << len(g.edges)):
        if mask not in seen:
            orbit = sorted(mask ^ c for c in cuts)
            seen.update(orbit)
            yield orbit


def switching_equivalence(s1, s2):
    """The vertex mask whose switching carries s1 to s2, or None: the
    signatures are switching equivalent exactly when the edges where they
    differ form a cut. Each component's least vertex stays unswitched."""
    if s1.graph != s2.graph:
        raise ValueError("underlying graphs differ")
    return cut_preimage(s1.graph, s1.mask ^ s2.mask)


def pullback(mask, index_map):
    """Bit i of the result is bit index_map[i] of mask. Through an edge
    permutation this moves a sign mask, through a vertex permutation a
    vertex mask."""
    out = 0
    for i, j in enumerate(index_map):
        if mask >> j & 1:
            out |= 1 << i
    return out


def sp_identity(n):
    return SwitchingPermutation(0, identity_perm(n))


def sp_negate(a):
    """Complement the switching set; same action on a connected graph."""
    return SwitchingPermutation(a.switch_mask ^ (1 << len(a.perm)) - 1, a.perm)


def sp_inverse(a):
    inv = inverse(a.perm)
    return SwitchingPermutation(pullback(a.switch_mask, inv), inv)


class CayleyGroup(FiniteGroup):
    """Elements with a product, checked on the Cayley table: closure, an
    identity, inverses, and Light's associativity test. Element orders and
    commutativity are read off the table."""

    def __init__(self, elements, mul):
        self.mul = mul
        super().__init__(elements)

    def _check(self) -> None:
        self.table = self._cayley_table()
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()
        self._check_associativity()

    def _cayley_table(self) -> list[list[int]]:
        """Row a, column b: the index of mul(a, b), which must be listed."""
        table = []
        for a in self.elements:
            row = []
            for b in self.elements:
                c = self.mul(a, b)
                k = self.index.get(c)
                if k is None:
                    raise GroupAxiomError(f"not closed: {a} * {b} = {c}")
                row.append(k)
            table.append(row)
        return table

    def _find_identity(self) -> int:
        for i in range(len(self.elements)):
            if all(self.table[i][j] == j and self.table[j][i] == j
                   for j in range(len(self.elements))):
                return i
        raise GroupAxiomError("no identity element")

    def _find_inverses(self):
        e = self.identity
        inv = [-1] * len(self.elements)
        for i, row in enumerate(self.table):
            for j, x in enumerate(row):
                if x == e:
                    inv[i] = j
        if any(v < 0 for v in inv):
            raise GroupAxiomError("missing inverse")
        return inv

    def _check_associativity(self):
        """Light's test: the table is associative exactly when
        (xa)y = x(ay) for all x and y and each a of a generating set, since
        the elements a that pass are closed under products. Generators are
        taken greedily: the least element not yet reached, after which the
        reached set is closed under right multiplication by the generators
        so far."""
        t = self.table
        reached = {self.identity}
        gens = []
        for a in range(len(t)):
            if a in reached:
                continue
            gens.append(a)
            stack = list(reached)
            while stack:
                x = stack.pop()
                for g in gens:
                    y = t[x][g]
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
        for a in gens:
            row_a = t[a]
            for row_x in t:
                if t[row_x[a]] != [row_x[ay] for ay in row_a]:
                    raise GroupAxiomError("not associative")

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.table[x][i]
            k += 1
        return k

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(n) for j in range(i + 1, n))


def edge_permutation(g, perm):
    """Index map sending each edge to its image edge, looked up by its
    sorted ends."""
    index = {e: i for i, e in enumerate(g.edges)}
    return tuple(index[tuple(sorted((perm[u], perm[v])))] for u, v in g.edges)


def graph_automorphisms(g):
    """All graph automorphisms, as switching permutations with empty
    switching part."""
    return SwitchingGroup(SwitchingPermutation(0, p)
                          for p in automorphism_images(g))


def scan_lifts(s):
    """Each automorphism p of the underlying graph that lifts, as the pair
    (switching part of its lift, p): cut_preimage of the mask xor its
    pullback through p, tried for every p."""
    g, mask = s.graph, s.mask
    out = []
    for p in automorphism_images(g):
        inv = edge_permutation(g, inverse(p))
        moved = sum(1 << inv[j] for j in range(len(g.edges)) if mask >> j & 1)
        x = cut_preimage(g, mask ^ moved)
        if x is not None:
            out.append((x, p))
    return tuple(out)


@lru_cache(maxsize=8)
def circle_masks(g):
    """Edge mask of every circle of g, once each."""
    return tuple(c.edge_mask for c in list_cycles(g, g.vertex_count))


def bad_cycles(circles, neg_mask):
    """The circles (edge masks) that carry exactly one negative edge."""
    return [e for e in circles if (e & neg_mask).bit_count() == 1]


def min_hitting_mask(targets, cap):
    """A least bit set meeting every mask in targets; one of size cap does.
    Breadth-first over which targets are met, one bit per step: a bit of
    the shortest target not yet met, which every hitting set must meet.
    It shares no code with the program's depth-first search."""
    targets = sorted(targets, key=int.bit_count)
    meets = {}
    for j, t in enumerate(targets):
        for b in bits(t):
            meets[b] = meets.get(b, 0) | 1 << j
    every = (1 << len(targets)) - 1
    reach, level = {0: 0}, [0]
    for _ in range(cap + 1):
        if every in reach:
            return reach[every]
        grown = []
        for met in level:
            first = (~met & met + 1).bit_length() - 1  # shortest not met
            for b in bits(targets[first]):
                if met | meets[b] not in reach:
                    reach[met | meets[b]] = reach[met] | 1 << b
                    grown.append(met | meets[b])
        level = grown
    raise AssertionError("unreachable: cap bounds a hitting set")


def inclusterability_by_circles(s):
    """Edge mask of a least deletion set making s clusterable: a least set
    meeting every bad circle of a full circle listing."""
    return min_hitting_mask(bad_cycles(circle_masks(s.graph), s.mask),
                            s.mask.bit_count())


def minimum_coloring(g: Graph) -> list[int]:
    """A proper vertex colouring with the fewest colours, one per vertex,
    by a backtrack over the vertices by decreasing degree that tries 2, 3,
    ... colours in turn (an edge needs two, a vertex one). A minimum
    colouring uses every one of its colours, so the chromatic number is
    one more than the largest."""
    n = g.vertex_count
    if n > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for exact chromatic number")
    order = sorted(range(n), key=g.degree, reverse=True)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[w for w, _ in g.neighbours[v] if pos[w] < pos[v]]
               for v in order]
    colors = [-1] * n

    def extend(i, k):
        if i == n:
            return True
        v = order[i]
        used = {colors[w] for w in earlier[i]}
        # symmetry break: first use of each color
        for c in range(min(k, i + 1)):
            if c not in used:
                colors[v] = c
                if extend(i + 1, k):
                    return True
        colors[v] = -1
        return False

    k = 2 if g.edges else min(n, 1)
    while not extend(0, k):
        k += 1
    return colors


def clusterability_by_positive_graph(s):
    """``cluster_witness`` from the spanning forest of a separate graph of
    the positive edges: the least negative edge inside a positive
    component, closed by the forest path, or the fewest-parts partition
    from ``minimum_coloring`` of a separate graph of the negative edges on
    the components, numbered by least vertex."""
    g = s.graph
    positive = Graph(g.vertex_count, tuple(
        e for i, e in enumerate(g.edges) if not s.mask >> i & 1))
    forest = positive.spanning_forest
    comp = [0] * g.vertex_count
    count = 0
    for v, parent, _ in forest:
        if parent < 0:
            comp[v] = count
            count += 1
        else:
            comp[v] = comp[parent]
    negative = [g.edges[i] for i in bits(s.mask)]
    for u, w in negative:
        if comp[u] == comp[w]:
            return False, tree_cycle(g, forest, u, w)
    coloring = minimum_coloring(Graph.from_edges(
        count, ((comp[u], comp[w]) for u, w in negative)))
    parts = [set() for _ in range(max(coloring, default=-1) + 1)]
    for v, c in enumerate(comp):
        parts[coloring[c]].add(v)
    return True, tuple(frozenset(p) for p in parts)


def circle_hitting_sets(s):
    """(edge mask, vertex mask) of a least edge set and a least vertex set
    meeting every negative circle of s, from a fresh cycle listing: by
    Harary, deleting such a set balances s. The negative edges meet every
    negative circle, so their number caps both searches."""
    negative = [c for c in list_cycles(s.graph, s.graph.vertex_count)
                if sign_of_circle(s, c) < 0]
    cap = s.mask.bit_count()
    return (min_hitting_mask([c.edge_mask for c in negative], cap),
            min_hitting_mask([sum(1 << v for v in c.vertices)
                              for c in negative], cap))


@lru_cache(maxsize=1)
def deletion_tables():
    """For every vertex set W of the Petersen graph with |W| <= 3, in
    increasing size and then lexicographic order: |W| and the bitmap (r = 6
    on P) of U_W, the span of the syndromes of the edges at W, which holds
    the syndrome of a signature exactly when it is balanced on P - W."""
    g, _ = petersen()
    tables = []
    for k in range(4):
        for w in itertools.combinations(range(10), k):
            span = [0]
            for b in span_basis(g.syndromes[e] for v in w
                                for e in bits(g.incidence[v])):
                span += [u ^ b for u in span]
            tables.append((k, sum(1 << u for u in span)))
    return tables


def petersen_l0_by_spans(z):
    """Frustration number of the Petersen switching class with syndrome z:
    the least |W| whose span holds z. Every class has l0 <= 3."""
    return next(k for k, span in deletion_tables() if span >> z & 1)


def edge_syndromes(g):
    """Cycle-space syndrome of each edge, bit t its parity on the t-th
    fundamental cycle, edge by edge: the chord bits of e xor the cut of its
    forest preimage, which agrees with e on the forest."""
    out = []
    for e in range(len(g.edges)):
        d = (1 << e) ^ cut_mask(g, forest_preimage(g, 1 << e))
        out.append(sum(1 << t for t, i in enumerate(g.chords) if d >> i & 1))
    return tuple(out)


def syndrome_lifts(s):
    """Each automorphism p of the underlying graph that lifts, as the pair
    (switching part of its lift, p), scanned for the signature itself, over
    every negative edge: p lifts when it fixes the syndrome of the mask, and
    then the part is read off the forest from the mask xor its pullback
    through p."""
    g, mask = s.graph, s.mask
    z, mbits = syndrome(g, mask), tuple(bits(mask))
    out = []
    for p, pull, cols in edge_pullbacks(g):
        image = 0
        for j in mbits:
            image ^= cols[j]
        if image == z:
            moved = 0
            for j in mbits:
                moved |= pull[j]
            out.append((forest_preimage(g, mask ^ moved), p))
    return tuple(out)


@lru_cache(maxsize=8)
def edge_pullbacks(g):
    """Each automorphism p of g with the pullback of single edges through
    it: bit j of a sign mask moves to pull[j], whose syndrome is cols[j]."""
    out = []
    for p in automorphism_images(g):
        inv = edge_permutation(g, inverse(p))
        out.append((p, tuple(1 << i for i in inv),
                    tuple(g.syndromes[i] for i in inv)))
    return tuple(out)


# Base permutations act on {1..5}; stored as image tuples of length 5 with
# entry i-1 giving the image of i.

def parse_cycles(text, degree=5):
    """Parse cycle notation such as ``(12)(45)`` or ``(145)`` on {1..degree}.
    An empty string or ``()`` is the identity."""
    images = list(range(1, degree + 1))
    body = text.strip()
    while body:
        if not body.startswith("("):
            raise ValueError(f"bad cycle notation {text!r}")
        end = body.index(")")
        cyc = [int(ch) for ch in body[1:end]]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= degree:
                raise ValueError(f"entry {a} out of range in {text!r}")
            images[a - 1] = b
        body = body[end + 1:].strip()
    if sorted(images) != list(range(1, degree + 1)):
        raise ValueError(f"not a permutation: {text!r}")
    return tuple(images)


def sp_multiply(a, b):
    """Semidirect product: the switching set of b is pulled back through the
    permutation of a, then combined by symmetric difference."""
    if len(a.perm) != len(b.perm):
        raise ValueError("size mismatch")
    return SwitchingPermutation(a.switch_mask ^ pullback(b.switch_mask, a.perm),
                                compose(a.perm, b.perm))


def sp_conjugate(a, alpha):
    """Conjugate by a plain permutation: the switching set is relabeled by
    alpha and the permutation part becomes alpha^-1 * a.perm * alpha."""
    ai = inverse(alpha)
    return SwitchingPermutation(pullback(a.switch_mask, ai),
                                compose(compose(ai, a.perm), alpha))


def sp_canonical(a):
    """Kernel-canonical lift on a connected graph: vertex 0 unswitched."""
    return sp_negate(a) if a.switch_mask & 1 else a


def sp_act(a, s):
    """Switch by the switching set, then relabel by the permutation: edge
    i takes the sign of the edge that the inverse permutation sends it to."""
    g = s.graph
    switched = s.mask ^ cut_mask(g, a.switch_mask)
    return SignedGraph(g, pullback(switched,
                                    edge_permutation(g, inverse(a.perm))))


def reference_coset_system(group, subgroup):
    """(representatives, closed under conjugation) of the subgroup's left
    cosets inside a switching automorphism group, element by element: the
    default choice, and when it is not closed under conjugation by the
    subgroup, a closed choice propagated around each orbit of cosets by
    ``sp_conjugate``."""
    if not subgroup.is_subgroup(group):
        raise CosetError("not a subgroup")
    if any(e.switch_mask for e in subgroup.elements):
        raise CosetError("subgroup must have trivial switching parts")
    cosets = {}
    for e in group.elements:
        cosets.setdefault(e.switch_mask, []).append(e)
    reps = _default_reps(cosets, len(subgroup.elements[0].perm))
    closed = is_conjugation_closed(reps, subgroup)
    if not closed:
        alternative = closed_reps(cosets, subgroup)
        if alternative is not None:
            reps = alternative
            closed = is_conjugation_closed(reps, subgroup)
    return tuple(reps), closed


def is_conjugation_closed(reps, subgroup):
    """``sp_conjugate`` of each rep by each subgroup element is a rep."""
    rep_set = set(reps)
    return all(sp_conjugate(r, a.perm) in rep_set
               for r in reps for a in subgroup.elements)


def closed_reps(cosets, subgroup):
    """One exact representative per coset, closed under conjugation by the
    subgroup, or None: every candidate for a seed coset is propagated
    around its orbit until one is consistent."""
    alphas = [a.perm for a in subgroup.elements]
    todo = set(cosets)
    chosen = {}
    while todo:
        seed = min(todo)
        candidates = [c for e in cosets[seed] for c in (e, sp_negate(e))]
        ok = None
        for cand in candidates:
            assign = {}
            good = True
            for a in alphas:
                img = sp_conjugate(cand, a)
                key = sp_canonical(img).switch_mask
                if key in assign:
                    if assign[key] != img:
                        good = False
                        break
                else:
                    assign[key] = img
            if good:
                ok = assign
                break
        if ok is None:
            return None
        chosen.update(ok)
        todo -= set(ok)
    return [chosen[mask] for mask in sorted(chosen)]


def rep_for_mask(reps, canonical_mask):
    """Index, among the representatives reps, of the one of the coset with
    the given canonical switching mask."""
    for i, r in enumerate(reps):
        if sp_canonical(r).switch_mask == canonical_mask:
            return i
    raise CosetError(f"no representative for switching class {canonical_mask:#x}")


def general_product(system, subgroup, x, y):
    """Product of x = rep_i * alpha and y = rep_j * beta computed through the
    coset representatives: returns (sign, rep index, nu, alpha*beta) with nu
    in the subgroup, and cross-checks against direct multiplication.

    system is the (representatives, closed) pair of ``coset_system`` for
    the subgroup, and must be conjugation-closed.
    """
    reps, closed = system
    if not closed:
        raise CosetError("representative system is not conjugation-closed")
    i, alpha = x
    j, beta = y
    rx, ry = reps[i], reps[j]
    if alpha not in subgroup.index or beta not in subgroup.index:
        raise CosetError("cofactors must lie in the subgroup")

    # Raw switching set of the product: X xor the pullback of Y through
    # (gamma_X alpha).
    ga = compose(rx.perm, alpha.perm)
    u_raw = rx.switch_mask ^ pullback(ry.switch_mask, ga)
    k = rep_for_mask(reps, sp_canonical(SwitchingPermutation(u_raw, ga)).switch_mask)
    ru = reps[k]
    sign = 1 if u_raw == ru.switch_mask else -1

    # nu = gamma_U^-1 * gamma_X * (gamma_Y conjugated by alpha^-1)
    gy_conj = compose(compose(alpha.perm, ry.perm), inverse(alpha.perm))
    nu_perm = compose(compose(inverse(ru.perm), rx.perm), gy_conj)
    nu = SwitchingPermutation(0, nu_perm)
    if nu not in subgroup.index:
        raise CosetError("nu fell outside the subgroup")
    ab = SwitchingPermutation(0, compose(alpha.perm, beta.perm))

    direct = sp_multiply(sp_multiply(rx, alpha), sp_multiply(ry, beta))
    recombined = sp_multiply(sp_multiply(ru, nu), ab)
    if sign < 0:
        recombined = sp_negate(recombined)
    if recombined != direct:
        raise CosetError("decomposition disagrees with direct product")
    return sign, k, nu, ab


def is_petersen(g: Graph) -> bool:
    return g.vertex_count == 10 and g.edges == petersen()[0].edges


@lru_cache(maxsize=None)
def distances(g):
    """All-pairs shortest-path distances (BFS per vertex)."""
    out = []
    for s in range(g.vertex_count):
        dist = [-1] * g.vertex_count
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adjacency(g)[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        out.append(tuple(dist))
    return tuple(out)


def closed_neighborhood(g, v):
    return adjacency(g)[v] | {v}


def hexagon_of_vertex(g, v):
    """The unique hexagon of the Petersen graph avoiding the closed
    neighborhood of v."""
    rest = [w for w in range(g.vertex_count)
            if w not in closed_neighborhood(g, v)]
    if len(rest) != 6:
        raise ValueError("graph is not the Petersen graph")
    order = [rest[0]]
    while len(order) < 6:
        nxt = [w for w in adjacency(g)[order[-1]]
               if w in rest and w not in order]
        if not nxt:
            raise ValueError("complement of N[v] is not a hexagon")
        order.append(min(nxt))
    return Cycle.from_vertices(g, order)


def _pair_circle_mask(pairs):
    """Edge mask of the circle of the Petersen graph through the vertices
    v_ij named by pairs, in order."""
    g, lab = petersen()
    verts = [lab.vertex(i, j) for i, j in pairs]
    return sum(1 << g.index_of(u, v)
               for u, v in zip(verts, verts[1:] + verts[:1]))


def closed_form_pentagon_masks():
    """The 12 pentagons of the Petersen graph, the Kneser graph K(5,2):
    ab-cd-ea-bc-de, one for each cyclic order (a b c d e) of {1..5} up to
    reversal (a = 1, b < e)."""
    return {_pair_circle_mask(((a, b), (c, d), (e, a), (b, c), (d, e)))
            for a, b, c, d, e in ((1, *rest) for rest in
                                  itertools.permutations(range(2, 6)))
            if b < e}


def closed_form_hexagon_masks():
    """The 10 hexagons of the Petersen graph: xp-yq-xr-yp-xq-yr, one for
    each pair {x, y}, with {p, q, r} the other three; its vertices are those
    that meet {x, y} once."""
    out = set()
    for x, y in itertools.combinations(range(1, 6), 2):
        p, q, r = sorted(set(range(1, 6)) - {x, y})
        out.add(_pair_circle_mask(((x, p), (y, q), (x, r), (y, p), (x, q),
                                   (y, r))))
    return out


def edge_distance(g, e, f):
    """Distance between edges in the line graph (adjacent edges: 1)."""
    if set(e) == set(f):
        return 0
    if set(e) & set(f):
        return 1
    return 1 + min(distances(g)[a][b] for a in e for b in f)


class MatchingClass(enum.Enum):
    """The automorphism classes of matchings of the Petersen graph."""

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


# One member of each class, its least matching in edge order, as edges
# between pair labels.
MATCHING_MEMBERS = {
    MatchingClass.EMPTY: (),
    MatchingClass.M1: (("12", "34"),),
    MatchingClass.M22: (("12", "34"), ("13", "25")),
    MatchingClass.M23: (("12", "34"), ("13", "24")),
    MatchingClass.M32: (("12", "34"), ("13", "25"), ("24", "35")),
    MatchingClass.M33: (("12", "34"), ("13", "24"), ("14", "23")),
    MatchingClass.M3PRIME: (("12", "34"), ("13", "25"), ("14", "35")),
    MatchingClass.M3_2_3: (("12", "34"), ("13", "24"), ("14", "25")),
    MatchingClass.M4PRIME: (("12", "34"), ("13", "24"), ("14", "25"),
                            ("15", "23")),
    MatchingClass.M5_MINUS_EDGE: (("12", "34"), ("13", "25"), ("14", "35"),
                                  ("15", "24")),
    MatchingClass.M5: (("12", "34"), ("13", "25"), ("14", "35"), ("15", "24"),
                       ("23", "45")),
}


def classify_matching(g, m):
    """Automorphism class of a matching m, given as vertex pairs, of the
    Petersen graph: the class whose member lies in the orbit of m's edge
    mask under the automorphisms."""
    pg, lab = petersen()
    if g != pg:
        raise ValueError("matching classes are defined on the Petersen graph")
    edges = {(min(u, v), max(u, v)) for u, v in m}
    index = edge_index(g)
    if not edges <= index.keys():
        raise ValueError(f"{sorted(edges)} is not a set of edges")

    def mask(pairs):
        return sum(1 << index[min(u, v), max(u, v)] for u, v in pairs)
    orbit = {mask((a[u], a[v]) for u, v in edges)
             for a in automorphism_images(g)}
    vertex = {f"{i}{j}": v for v, (i, j) in enumerate(lab.pair_of)}
    for c, member in MATCHING_MEMBERS.items():
        if mask((vertex[x], vertex[y]) for x, y in member) in orbit:
            return c
    raise ValueError(f"{sorted(edges)} is not a matching")


def geometric_matching_class(g, m):
    """Automorphism class of a matching of the Petersen graph, from the
    edge distances within it, whether a 3-matching of pairwise distance 2
    lies in a hexagon, and whether the two vertices a 4-matching leaves
    are adjacent."""
    edges = [tuple(sorted(e)) for e in m]
    verts = [v for e in edges for v in e]
    if len(set(verts)) != len(verts):
        raise ValueError("edge set is not a matching")
    k = len(edges)
    if k in (0, 1, 5):
        return {0: MatchingClass.EMPTY, 1: MatchingClass.M1,
                5: MatchingClass.M5}[k]
    dists = sorted(edge_distance(g, e, f)
                   for e, f in itertools.combinations(edges, 2))
    if k == 2:
        return MatchingClass.M22 if dists == [2] else MatchingClass.M23
    if k == 3:
        if dists == [3, 3, 3]:
            return MatchingClass.M33
        if dists == [2, 2, 3]:
            return MatchingClass.M3_2_3
        mask = sum(1 << edge_index(g)[e] for e in edges)
        if any(mask & hexagon_of_vertex(g, v).edge_mask == mask
               for v in range(g.vertex_count)):
            return MatchingClass.M32
        return MatchingClass.M3PRIME
    unmatched = [v for v in range(g.vertex_count) if v not in verts]
    if unmatched[1] in adjacency(g)[unmatched[0]]:
        return MatchingClass.M5_MINUS_EDGE
    return MatchingClass.M4PRIME


def all_matchings(g):
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


SCAN_EDGES = 20  # the most edges whose 2^m signatures the scan below takes
MAX_INCLUSTERABILITY = 3  # of the Petersen graph, over all its signatures


def max_inclusterability(g, cubic_shortcut=True):
    """Maximum inclusterability index over all signatures of g.

    With the shortcut (maximum degree <= 3 required) only signatures whose
    negative edges form a matching are scanned; every other signature is
    dominated by one of those. Without it, all 2^|E| signatures are scanned.
    """
    m = len(g.edges)
    if m > SCAN_EDGES:
        raise SearchSizeError("too many edges for signature scan")
    circles = circle_masks(g)

    def q_of(neg_mask):
        bad = bad_cycles(circles, neg_mask)
        return min_hitting_mask(bad, neg_mask.bit_count()).bit_count()

    masks = range(1 << m)
    if cubic_shortcut:
        if any(len(nv) > 3 for nv in adjacency(g)):
            raise ValueError("shortcut needs maximum degree at most 3")
        masks = (sum(1 << edge_index(g)[e] for e in matching)
                 for matching in all_matchings(g))
    return max(map(q_of, masks))
