"""Permutations, switching permutations with semidirect-product arithmetic,
automorphism and switching-automorphism groups of signed graphs, coset
representative systems, and isomorphism-type identification of small groups.

An automorphism lifts to a switching automorphism exactly when it fixes
the cycle-space syndrome of the sign mask, so each switching class is
scanned and closure-checked once (``_switching_class``). Groups of switching
automorphisms are read as permutation groups: no Cayley table is built.

Conventions. Permutations are image tuples over vertex ids and compose left
to right: compose(p, q) applies p first. A switching automorphism has one
form, the pair (switch_mask, perm) of an exact vertex subset (as a bitmask)
and a permutation, acting on signatures by switching first, permuting
second; ``SwitchingPermutation`` is that tuple with its two fields named, so
pairs compare, hash and sort as tuples, by mask and then permutation. Two
pairs that differ by complementing the switching set act identically on a
connected graph, so a lift is stored in one canonical form, vertex 0
unswitched. ``aut_signed``, ``swaut`` and ``orbit_counts`` read their lifts
from ``_lifts``, which refuses a disconnected graph and one of more than
MAX_SEARCH_VERTICES vertices.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache, partial

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError, _cached,
                     automorphism_images, bits, chord_mask, forest_preimage,
                     syndrome)
from .signed import SignedGraph

# ---------------------------------------------------------------------------
# Plain permutations
# ---------------------------------------------------------------------------

def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right composition: p first, then q."""
    return tuple(map(q.__getitem__, p))


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


@lru_cache(maxsize=1024)
def perm_order(p: tuple[int, ...]) -> int:
    """The least k with p^k the identity, found once per permutation."""
    one, k, q = identity_perm(len(p)), 1, p
    while q != one:
        q, k = compose(q, p), k + 1
    return k


@lru_cache(maxsize=512)
def _pull_tables(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Vertex masks pulled back through p, bit p[v] to bit v, as two
    tables, one per half of the bits: x goes to lo[x & (2^h - 1)] ^
    hi[x >> h] with h = (n + 1) // 2, two 32-entry tables on the Petersen
    graph. Pulling back through p pushes through the inverse of p."""
    ai, h = inverse(p), (len(p) + 1) // 2
    tables = []
    for half in (ai[:h], ai[h:]):
        t = [0]
        for w in half:
            t += [y | 1 << w for y in t]
        tables.append(tuple(t))
    return tuple(tables)


# Base permutations act on {1..5}; stored as image tuples of length 5 with
# entry i-1 giving the image of i.

def format_cycles(base: tuple[int, ...]) -> str:
    """Cycle notation for a permutation of {1..len(base)}; identity is ()."""
    n = len(base)
    seen = [False] * n
    parts = []
    for start in range(1, n + 1):
        if seen[start - 1] or base[start - 1] == start:
            seen[start - 1] = True
            continue
        cyc = [start]
        seen[start - 1] = True
        x = base[start - 1]
        while x != start:
            cyc.append(x)
            seen[x - 1] = True
            x = base[x - 1]
        parts.append("(" + "".join(str(c) for c in cyc) + ")")
    return "".join(parts) or "()"


def induced_permutation(labeling, base: tuple[int, ...]) -> tuple[int, ...]:
    """Vertex permutation of the Petersen graph induced by a permutation of
    {1..5}: v_{ij} goes to v_{i^base j^base}."""
    return tuple(labeling.vertex(base[i - 1], base[j - 1])
                 for i, j in labeling.pair_of)


# ---------------------------------------------------------------------------
# Switching permutations
# ---------------------------------------------------------------------------

SwitchingPermutation = namedtuple("SwitchingPermutation", "switch_mask perm")
SwitchingPermutation.__doc__ = """A switching automorphism, the pair of an
exact switching set (vertex bitmask) and a vertex permutation, acting
switch-first."""
# a pair from a 2-tuple, without the namedtuple's Python-level __new__
_pair = partial(tuple.__new__, SwitchingPermutation)


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------

class GroupAxiomError(ValueError):
    """Raised when a purported group fails closure/identity/inverse checks."""


class FiniteGroup:
    """An element list without repeats, with each element's index, checked
    to be a group by the subclass's ``_check``, which sees the list; the
    subclass also gives ``element_order`` (by index)."""

    def __init__(self, elements):
        self.elements = list(elements)
        self.index = dict(zip(self.elements, range(len(self.elements))))
        if len(self.index) != len(self.elements):
            raise GroupAxiomError("repeated elements")
        self._check()

    @property
    def order(self) -> int:
        return len(self.elements)

    @_cached
    def order_histogram(self) -> Counter:
        return Counter(map(self.element_order, range(self.order)))


# Order and element-order histogram name each group below, commutativity
# included: every group of order 1, 2 or 4 is abelian, an abelian one of
# order 6 or 24 (60 or 120) has an element of order 6 (15), and no abelian
# group of order 8 has the histogram of D4 or Q8.
_CATALOG = {
    (1, ((1, 1),)): "1",
    (2, ((1, 1), (2, 1))): "Z2",
    (4, ((1, 1), (2, 1), (4, 2))): "Z4",
    (4, ((1, 1), (2, 3))): "V4",
    (6, ((1, 1), (2, 3), (3, 2))): "S3",
    (8, ((1, 1), (2, 5), (4, 2))): "D4",
    (8, ((1, 1), (2, 1), (4, 6))): "Q8",
    (24, ((1, 1), (2, 9), (3, 8), (4, 6))): "S4",
    (60, ((1, 1), (2, 15), (3, 20), (5, 24))): "A5",
    (120, ((1, 1), (2, 25), (3, 20), (4, 30), (5, 24), (6, 20))): "S5",
}


def identify_group(g: FiniteGroup) -> str:
    """Label ("S5", "1", ..., "other") by order and element-order
    histogram, which separate every pair in the catalog."""
    if g.order > 120:
        return "other"
    key = (g.order, tuple(sorted(g.order_histogram.items())))
    return _CATALOG.get(key, "other")


# ---------------------------------------------------------------------------
# Automorphism groups of signed graphs
# ---------------------------------------------------------------------------

class SwitchingGroup(FiniteGroup):
    """(switch_mask, perm) pairs stored as canonical lifts, in tuple order:
    by switching mask, then permutation. On a connected graph a lift is
    fixed by its permutation, so the group is isomorphic to its group of
    permutations: element orders are read from permutations, and no Cayley
    table is built. ``histogram``, the histogram of element orders, is
    given only for a list known to be a group (a conjugate of a checked
    one); otherwise the closure check runs."""

    def __init__(self, elements, histogram=None):
        elements = sorted(elements)
        self.by_perm = {e[1]: e for e in elements}
        if len(self.by_perm) != len(elements):
            raise GroupAxiomError("two elements share a permutation")
        if histogram:
            self.order_histogram = histogram
        super().__init__(elements)

    def _check(self) -> None:
        if "order_histogram" not in self.__dict__:
            _check_closure(self.by_perm)

    def element_order(self, i: int) -> int:
        return perm_order(self.elements[i][1])

    def is_subgroup(self, other: "SwitchingGroup") -> bool:
        """Whether every element lies in other; both are checked groups
        under one product, so containment is enough."""
        return all(e in other.index for e in self.elements)


def _check_closure(by_perm) -> None:
    """Check that the (switch_mask, perm) pairs by_perm lists (keyed by
    permutation) form a group, by closure under greedy generators, |S|·|T|
    products in place of |S|^2 Cayley cells: each element not yet reached
    becomes a generator, and each reached element is multiplied once by
    each generator. Each product, canonicalised, must be listed; with the
    identity listed, the list is then the group the generators generate."""
    n = len(next(iter(by_perm), ()))
    one = identity_perm(n)
    if by_perm.get(one) != (0, one):
        raise GroupAxiomError("no identity element")
    full, h = (1 << n) - 1, (n + 1) // 2
    low = (1 << h) - 1
    reached, gens = {one: (0, one)}, []
    for candidate in by_perm.values():
        if candidate[1] in reached:
            continue
        gens.append(candidate)
        work = [(a, (candidate,)) for a in reached.values()]
        while work:
            (x, p), ts = work.pop()
            # the semidirect product, canonicalised, inlined: the switching
            # set of t is pulled back through p
            lo, hi = _pull_tables(p)
            for y, r in ts:
                q = compose(p, r)
                z = x ^ lo[y & low] ^ hi[y >> h]
                c = by_perm.get(q)
                if c is None or c[0] != (z ^ full if z & 1 else z):
                    raise GroupAxiomError(f"not closed: {(x, p)} * {(y, r)}")
                if q not in reached:
                    reached[q] = c
                    work.append((c, tuple(gens)))


@lru_cache(maxsize=8)
def _automorphism_edge_maps(g: Graph):
    """Each automorphism p of g, built once per graph, with the edges it
    carries onto the chords: pulled[t] is the one edge at both preimages of
    the ends of the t-th chord (``Graph.index_of``, inlined)."""
    inc, chords = g.incidence, [g.edges[e] for e in g.chords]
    maps = ((p, inverse(p)) for p in automorphism_images(g))
    return tuple((p, tuple((inc[ai[u]] & inc[ai[v]]).bit_length() - 1
                           for u, v in chords))
                 for p, ai in maps)


@lru_cache(maxsize=64)
def _switching_class(g: Graph, z: int):
    """What every signature with syndrome z shares, found once per
    switching class: the automorphisms p of g that lift (those that fix z),
    each as (X, p, pull tables), with X the switching part of its lift on
    the chord representative b = ``chord_mask(g, z)`` (the chords of z) and
    the tables that pull vertex masks back through p; and SwAut's histogram
    of element orders, after one closure check on b. SwAut of any other
    signature of the class is conjugate to it by a switching."""
    b, zbits, syndromes = chord_mask(g, z), tuple(bits(z)), g.syndromes
    lifts = []
    for p, pulled in _automorphism_edge_maps(g):
        image = moved = 0
        for t in zbits:
            image ^= syndromes[pulled[t]]
        if image == z:
            for t in zbits:
                moved |= 1 << pulled[t]
            lifts.append((forest_preimage(g, b ^ moved), p, _pull_tables(p)))
    _check_closure({p: (x, p) for x, p, _ in lifts})
    return tuple(lifts), Counter(perm_order(p) for _, p, _ in lifts)


@lru_cache(maxsize=8)
def _lifts(s: SignedGraph) -> tuple[tuple[SwitchingPermutation, ...], Counter]:
    """(lifts, histogram): each automorphism p of the underlying graph that
    lifts, as the pair (X, p) with X the switching part of its lift, vertex
    0 unswitched, and X = 0 when p preserves the signs; and SwAut's
    histogram of element orders, its switching class's. The lifts are
    carried from the chord representative b of the class: with Y the
    switching that takes b to the mask, X is X_b xor Y xor the pullback of
    Y through p, canonicalised. The lift is unique only on a connected
    graph, and the scan is capped at MAX_SEARCH_VERTICES vertices, so
    anything else is refused first. ``aut_signed``, ``swaut`` and
    ``orbit_counts`` read it."""
    g, mask = s.graph, s.mask
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for switching scan")
    if not g.is_connected():
        raise ValueError("switching automorphisms need a connected graph")
    z = syndrome(g, mask)
    y = forest_preimage(g, mask ^ chord_mask(g, z))
    full, h = (1 << g.vertex_count) - 1, (g.vertex_count + 1) // 2
    low, high = y & (1 << h) - 1, y >> h
    lifts, histogram = _switching_class(g, z)
    out = []
    for x, p, (lo, hi) in lifts:
        x ^= y ^ lo[low] ^ hi[high]
        out.append(_pair((x ^ full if x & 1 else x, p)))
    return tuple(out), histogram


def aut_signed(s: SignedGraph) -> SwitchingGroup:
    """Sign-preserving automorphisms: the stabilizer of the sign mask
    inside the automorphism group of the underlying graph."""
    return SwitchingGroup(e for e in _lifts(s)[0] if not e[0])


def swaut(s: SignedGraph) -> SwitchingGroup:
    """Switching automorphism group: the stabilizer of the switching class
    of s inside the automorphism group of the underlying graph. Each
    automorphism that lifts contributes its lift with vertex 0
    unswitched; the order histogram, its class's, comes with the lifts."""
    return SwitchingGroup(*_lifts(s))


def orbit_counts(s: SignedGraph) -> tuple[int, int]:
    """(isomorphic copies, switching-equivalence classes in the orbit), by
    orbit-stabilizer: the order of Aut of the underlying graph divided by
    the number of automorphisms that fix the sign mask, and by the number
    that lift, closure-checked once per switching class."""
    lifts, aut = _lifts(s)[0], len(_automorphism_edge_maps(s.graph))
    fixed = sum(1 for x, _ in lifts if x == 0)
    return aut // fixed, aut // len(lifts)


# ---------------------------------------------------------------------------
# Coset representative systems
# ---------------------------------------------------------------------------

class CosetError(ValueError):
    pass


def coset_system(group: SwitchingGroup, subgroup: SwitchingGroup
                 ) -> tuple[tuple[SwitchingPermutation, ...], bool]:
    """(representatives, closed under conjugation): left-coset
    representatives of the subgroup (trivial switching parts) inside a
    switching automorphism group, and whether the subgroup's conjugations
    carry the system onto itself.

    All elements of one left coset share the same switching class, so cosets
    are keyed by canonical switching mask. One exact representative is
    chosen per coset with switching set of size at most n/2, tie-broken to
    the least mask and permutation.
    A conjugation-closed system is preferred when the default choice is not
    closed; closure is reported, never assumed.
    """
    if not subgroup.is_subgroup(group):
        raise CosetError("not a subgroup")
    if any(x for x, _ in subgroup.elements):
        raise CosetError("subgroup must have trivial switching parts")

    n = len(subgroup.elements[0][1])
    cosets: dict[int, list[SwitchingPermutation]] = {}
    for e in group.elements:
        cosets.setdefault(e[0], []).append(e)
    one = identity_perm(n)
    conjugations = [_conjugation(p) for _, p in subgroup.elements if p != one]

    reps = _default_reps(cosets, n)
    closed = _is_conjugation_closed(reps, conjugations)
    if not closed and (alternative := _closed_reps(cosets, conjugations, n)):
        reps = alternative
        closed = _is_conjugation_closed(reps, conjugations)
    return tuple(reps), closed


@lru_cache(maxsize=512)
def _conjugation(alpha: tuple[int, ...]):
    """Conjugation by the permutation alpha on (switching mask,
    permutation) pairs: the mask is moved by alpha, the switching set
    relabelled, and the permutation becomes alpha^-1 p alpha. alpha is
    inverted once."""
    ai = inverse(alpha)
    lo, hi = _pull_tables(ai)
    h = (len(alpha) + 1) // 2
    low = (1 << h) - 1

    def conjugate(x: int, p: tuple[int, ...]):
        return lo[x & low] ^ hi[x >> h], compose(compose(ai, p), alpha)
    return conjugate


def _default_reps(cosets, n: int) -> list[SwitchingPermutation]:
    """The least pair of each coset, in mask order, or its complement when
    that switches fewer vertices, or as many with the smaller mask."""
    reps, full = [], (1 << n) - 1
    for mask in sorted(cosets):
        x, p = elem = min(cosets[mask])
        size = 2 * x.bit_count()
        take_comp = size > n or (size == n and x ^ full < x)
        reps.append(_pair((x ^ full, p)) if take_comp else elem)
    return reps


def _is_conjugation_closed(reps, conjugations) -> bool:
    """Each rep conjugated by each subgroup element but the identity is a
    rep."""
    pairs = set(reps)
    return all(c(x, p) in pairs for x, p in reps for c in conjugations)


def _closed_reps(cosets, conjugations, n: int):
    """Try to pick one exact representative per coset so the whole system is
    closed under conjugation by the subgroup; None when impossible.

    Conjugation permutes cosets, so work orbit by orbit: try every exact
    candidate for a seed coset and propagate it around the orbit, rejecting
    candidates whose propagation is inconsistent.
    """
    full = (1 << n) - 1
    todo = set(cosets)
    chosen: dict[int, tuple[int, tuple[int, ...]]] = {}
    while todo:
        seed = min(todo)
        orbits = (_conjugates(seed, (x, p), conjugations, full)
                  for _, p in cosets[seed] for x in (seed, seed ^ full))
        orbit = next(filter(None, orbits), None)
        if orbit is None:
            return None
        chosen.update(orbit)
        todo -= orbit.keys()
    return [_pair(chosen[mask]) for mask in sorted(chosen)]


def _conjugates(seed: int, cand, conjugations, full: int):
    """The conjugates of cand, a candidate for the coset seed, keyed by
    coset (canonical mask), or None when two in one coset differ."""
    assign = {seed: cand}
    for c in conjugations:
        img = c(*cand)
        if assign.setdefault(img[0] ^ full if img[0] & 1 else img[0], img) != img:
            return None
    return assign
