"""Permutations, switching permutations with semidirect-product arithmetic,
automorphism and switching-automorphism groups of signed graphs, coset
representative systems, and isomorphism-type identification of small groups.

Conventions. Permutations are image tuples over vertex ids and compose left
to right: compose(p, q) applies p first. A switching permutation pairs an
exact vertex subset (as a bitmask) with a permutation and acts on signatures
by switching first, permuting second. Two switching permutations that differ
by complementing the switching set act identically on a connected graph;
group elements are stored with the canonical lift (vertex 0 unswitched).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError,
                     automorphism_images, cut_mask, cut_preimage)
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


def _pullback(mask: int, index_map: tuple[int, ...]) -> int:
    """Bit i of the result is bit index_map[i] of mask. Through an edge
    permutation this moves a sign mask, through a vertex permutation a
    vertex mask."""
    return sum(1 << i for i, j in enumerate(index_map) if mask >> j & 1)


# Base permutations act on {1..5}; stored as image tuples of length 5 with
# entry i-1 giving the image of i.

def parse_cycles(text: str, degree: int = 5) -> tuple[int, ...]:
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
    images = []
    for i, j in labeling.pair_of:
        images.append(labeling.vertex(base[i - 1], base[j - 1]))
    return tuple(images)


# ---------------------------------------------------------------------------
# Switching permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchingPermutation:
    """An exact switching set (vertex bitmask) paired with a vertex
    permutation, acting switch-first."""

    switch_mask: int
    perm: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.perm)


def sp_identity(n: int) -> SwitchingPermutation:
    return SwitchingPermutation(0, identity_perm(n))


def sp_multiply(a: SwitchingPermutation, b: SwitchingPermutation) -> SwitchingPermutation:
    """Semidirect product: the switching set of b is pulled back through the
    permutation of a, then combined by symmetric difference."""
    if len(a.perm) != len(b.perm):
        raise ValueError("size mismatch")
    return SwitchingPermutation(a.switch_mask ^ _pullback(b.switch_mask, a.perm),
                                compose(a.perm, b.perm))


def sp_inverse(a: SwitchingPermutation) -> SwitchingPermutation:
    inv = inverse(a.perm)
    return SwitchingPermutation(_pullback(a.switch_mask, inv), inv)


def sp_conjugate(a: SwitchingPermutation, alpha: tuple[int, ...]) -> SwitchingPermutation:
    """Conjugate by a plain permutation: the switching set is relabeled by
    alpha and the permutation part becomes alpha^-1 * a.perm * alpha."""
    ai = inverse(alpha)
    return SwitchingPermutation(_pullback(a.switch_mask, ai),
                                compose(compose(ai, a.perm), alpha))


def sp_negate(a: SwitchingPermutation) -> SwitchingPermutation:
    """Complement the switching set; same action on a connected graph."""
    full = (1 << a.n) - 1
    return SwitchingPermutation(a.switch_mask ^ full, a.perm)


def sp_canonical(a: SwitchingPermutation) -> SwitchingPermutation:
    """Kernel-canonical lift on a connected graph: vertex 0 unswitched."""
    return sp_negate(a) if a.switch_mask & 1 else a


def sp_act(a: SwitchingPermutation, s: SignedGraph) -> SignedGraph:
    """Switch by the switching set, then relabel by the permutation: edge
    i takes the sign of the edge that the inverse permutation sends it to."""
    g = s.graph
    switched = s.mask ^ cut_mask(g, a.switch_mask)
    return SignedGraph(g, _pullback(switched,
                                    edge_permutation(g, inverse(a.perm))))


def edge_permutation(g: Graph, perm: tuple[int, ...]) -> tuple[int, ...]:
    """Index map sending each edge to its image edge."""
    return tuple(g.index_of(perm[u], perm[v]) for u, v in g.edges)


# ---------------------------------------------------------------------------
# Finite groups with explicit Cayley tables
# ---------------------------------------------------------------------------

class GroupAxiomError(ValueError):
    """Raised when a purported group fails closure/identity/inverse checks."""


class FiniteGroup:
    """Explicit element list with a verified multiplication table."""

    def __init__(self, elements, mul):
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise GroupAxiomError("repeated elements")
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.table = self._cayley_table(mul)
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()
        self._check_associativity()

    def _cayley_table(self, mul) -> list[list[int]]:
        """Row a, column b: the index of mul(a, b), which must be listed."""
        table = []
        for a in self.elements:
            row = []
            for b in self.elements:
                c = mul(a, b)
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

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.table[x][i]
            k += 1
        return k

    @cached_property
    def order_histogram(self) -> dict[int, int]:
        hist = {}
        for i in range(self.order):
            o = self.element_order(i)
            hist[o] = hist.get(o, 0) + 1
        return hist

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(n) for j in range(i + 1, n))

    def is_subgroup(self, other: "FiniteGroup") -> bool:
        """Whether this group's elements form a subgroup of other."""
        if not all(e in other.index for e in self.elements):
            return False
        for a in self.elements:
            for b in self.elements:
                c = other.elements[other.table[other.index[a]][other.index[b]]]
                if c not in self.index:
                    return False
        return True

    @classmethod
    def generate(cls, generators, mul, identity) -> "FiniteGroup":
        """Closure of the generators under mul."""
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in generators:
                    c = mul(a, g)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        return cls(sorted(seen, key=repr), mul)


_CATALOG = {
    (1, True, ((1, 1),)): "1",
    (2, True, ((1, 1), (2, 1))): "Z2",
    (4, True, ((1, 1), (2, 1), (4, 2))): "Z4",
    (4, True, ((1, 1), (2, 3))): "V4",
    (6, False, ((1, 1), (2, 3), (3, 2))): "S3",
    (8, False, ((1, 1), (2, 5), (4, 2))): "D4",
    (8, False, ((1, 1), (2, 1), (4, 6))): "Q8",
    (24, False, ((1, 1), (2, 9), (3, 8), (4, 6))): "S4",
    (60, False, ((1, 1), (2, 15), (3, 20), (5, 24))): "A5",
    (120, False, ((1, 1), (2, 25), (3, 20), (4, 30), (5, 24), (6, 20))): "S5",
}


def identify_group(g: FiniteGroup) -> str:
    """Label ("S5", "1", ..., "other") by order, abelianness, and
    element-order histogram; the combination separates every pair in the
    catalog."""
    if g.order > 120:
        return "other"
    key = (g.order, g.is_abelian(),
           tuple(sorted(g.order_histogram.items())))
    return _CATALOG.get(key, "other")


# ---------------------------------------------------------------------------
# Automorphism groups of signed graphs
# ---------------------------------------------------------------------------

class SwitchingGroup(FiniteGroup):
    """Switching permutations stored as canonical lifts, sorted by switching
    mask and permutation. On a connected graph a lift is fixed by its
    permutation, so a Cayley cell composes two permutations and looks the
    product up in ``by_perm``; its switching part must then equal x_a xor
    the pullback of x_b through p_a, canonicalised, or the list is not
    closed."""

    def __init__(self, elements):
        elements = sorted(elements, key=lambda e: (e.switch_mask, e.perm))
        self.by_perm = {e.perm: i for i, e in enumerate(elements)}
        if len(self.by_perm) != len(elements):
            raise GroupAxiomError("two elements share a permutation")
        super().__init__(elements, None)

    def _cayley_table(self, mul) -> list[list[int]]:
        elements, by_perm = self.elements, self.by_perm
        perms = [e.perm for e in elements]
        xs = [e.switch_mask for e in elements]
        full = (1 << elements[0].n) - 1 if elements else 0
        switch_parts = set(xs)
        table = []
        for a in elements:
            p, x = a.perm, a.switch_mask
            # the switching part of a * b for each switching part y of b
            want = {}
            for y in switch_parts:
                z = x ^ _pullback(y, p)
                want[y] = z ^ full if z & 1 else z
            # itemgetter(*p)(q) is compose(p, q) in one call, for len(p) > 1
            after_p = itemgetter(*p) if len(p) > 1 else lambda q: compose(p, q)
            row = [by_perm.get(q) for q in map(after_p, perms)]
            if None in row or \
                    list(map(xs.__getitem__, row)) != list(map(want.__getitem__, xs)):
                j = next(j for j, k in enumerate(row)
                         if k is None or xs[k] != want[xs[j]])
                raise GroupAxiomError(f"not closed: {a} * {elements[j]}")
            table.append(row)
        return table


def graph_automorphisms(g: Graph) -> SwitchingGroup:
    """All graph automorphisms, as switching permutations with empty
    switching part."""
    return SwitchingGroup(SwitchingPermutation(0, p) for p in automorphism_images(g))


@lru_cache(maxsize=8)
def _automorphism_edge_maps(g: Graph):
    """Each automorphism of g with its edge permutation, built once per
    graph."""
    return tuple((p, edge_permutation(g, p)) for p in automorphism_images(g))


def _switching_scan_guard(g: Graph) -> None:
    """Switching automorphisms are computed on connected graphs of at most
    MAX_SEARCH_VERTICES vertices, where the lift with vertex 0 unswitched
    is unique."""
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for switching scan")
    if not g.is_connected():
        raise ValueError("switching automorphisms need a connected graph")


def _mask_changes(s: SignedGraph):
    """Each automorphism p of the underlying graph with mask xor the
    pullback of mask through p: zero when p preserves the signs, a cut when
    p lifts to a switching automorphism."""
    mask = s.mask
    for p, ep in _automorphism_edge_maps(s.graph):
        yield p, mask ^ _pullback(mask, ep)


def aut_signed(s: SignedGraph) -> SwitchingGroup:
    """Sign-preserving automorphisms: the stabilizer of the sign mask
    inside the automorphism group of the underlying graph."""
    return SwitchingGroup(SwitchingPermutation(0, p)
                          for p, d in _mask_changes(s) if d == 0)


def swaut(s: SignedGraph) -> SwitchingGroup:
    """Switching automorphism group: the stabilizer of the switching class
    of s inside the automorphism group of the underlying graph.

    An automorphism p lifts when switching some X and then relabeling by p
    fixes the sign mask, that is when mask xor its pullback through p is
    the cut of X. The lift leaves vertex 0 unswitched.
    """
    _switching_scan_guard(s.graph)
    found = []
    for p, d in _mask_changes(s):
        x = cut_preimage(s.graph, d)
        if x is not None:
            found.append(SwitchingPermutation(x, p))
    return SwitchingGroup(found)


def orbit_counts(s: SignedGraph) -> tuple[int, int]:
    """(isomorphic copies, switching-equivalence classes in the orbit), by
    orbit-stabilizer: the order of Aut of the underlying graph divided by
    the number of automorphisms that fix the sign mask, and by the number
    whose change to the mask is a cut. No group is built."""
    _switching_scan_guard(s.graph)
    fixed = lifted = 0
    for _, d in _mask_changes(s):
        fixed += d == 0
        lifted += cut_preimage(s.graph, d) is not None
    full = len(automorphism_images(s.graph))
    return full // fixed, full // lifted


def lift_permutation(s: SignedGraph, xi: tuple[int, ...]):
    """The unique switching automorphism of s whose permutation part is xi,
    or None when xi is not in the projection: when it is not an
    automorphism of the underlying graph or has no lift."""
    g = s.graph
    _switching_scan_guard(g)
    xi = tuple(xi)
    if sorted(xi) != list(range(g.vertex_count)) or \
            not all(g.has_edge(xi[u], xi[v]) for u, v in g.edges):
        return None
    x = cut_preimage(g, s.mask ^ _pullback(s.mask, edge_permutation(g, xi)))
    return None if x is None else SwitchingPermutation(x, xi)


# ---------------------------------------------------------------------------
# Coset representative systems
# ---------------------------------------------------------------------------

class CosetError(ValueError):
    pass


@dataclass
class CosetSystem:
    group: FiniteGroup
    subgroup: FiniteGroup
    representatives: list[SwitchingPermutation]  # exact switching sets
    closed_under_conjugation: bool

    def rep_for_mask(self, canonical_mask: int) -> int:
        for i, r in enumerate(self.representatives):
            if sp_canonical(r).switch_mask == canonical_mask:
                return i
        raise CosetError(f"no representative for switching class {canonical_mask:#x}")

    def decompose(self, x: SwitchingPermutation):
        """Write x (exact) as sign * representative * tau with tau in the
        subgroup; returns (sign, rep index, tau)."""
        k = self.rep_for_mask(sp_canonical(x).switch_mask)
        t = sp_multiply(sp_inverse(self.representatives[k]), x)
        full = (1 << x.n) - 1
        if t.switch_mask == 0:
            sign = 1
        elif t.switch_mask == full:
            sign, t = -1, SwitchingPermutation(0, t.perm)
        else:
            raise CosetError("element not in representative * subgroup")
        if t not in self.subgroup.index:
            raise CosetError("residual permutation outside the subgroup")
        return sign, k, t


def coset_system(group: FiniteGroup, subgroup: FiniteGroup) -> CosetSystem:
    """Left-coset representatives of the subgroup (trivial switching parts)
    inside a switching automorphism group.

    All elements of one left coset share the same switching class, so cosets
    are keyed by canonical switching mask. One exact representative is
    chosen per coset with switching set of size at most n/2, tie-broken to
    the least mask and permutation.
    A conjugation-closed system is preferred when the default choice is not
    closed; closure is reported, never assumed.
    """
    if not subgroup.is_subgroup(group):
        raise CosetError("not a subgroup")
    if any(e.switch_mask for e in subgroup.elements):
        raise CosetError("subgroup must have trivial switching parts")

    n = subgroup.elements[0].n
    cosets: dict[int, list[SwitchingPermutation]] = {}
    for e in group.elements:
        cosets.setdefault(e.switch_mask, []).append(e)

    reps = _default_reps(cosets, n)
    if not _is_conjugation_closed(reps, subgroup):
        closed = _closed_reps(cosets, subgroup)
        if closed is not None:
            reps = closed
    return CosetSystem(group, subgroup, reps,
                       _is_conjugation_closed(reps, subgroup))


def _default_reps(cosets, n: int) -> list[SwitchingPermutation]:
    reps = []
    half = n / 2
    for mask in sorted(cosets):
        elem = min(cosets[mask], key=lambda e: e.perm)
        exact = elem
        comp = sp_negate(elem)
        size = elem.switch_mask.bit_count()
        if size > half or (size == half and comp.switch_mask < elem.switch_mask):
            exact = comp
        reps.append(exact)
    return reps


def _is_conjugation_closed(reps, subgroup: FiniteGroup) -> bool:
    rep_set = set(reps)
    return all(sp_conjugate(r, a.perm) in rep_set
               for r in reps for a in subgroup.elements)


def _closed_reps(cosets, subgroup: FiniteGroup):
    """Try to pick one exact representative per coset so the whole system is
    closed under conjugation by the subgroup; None when impossible.

    Conjugation permutes cosets, so work orbit by orbit: try every exact
    candidate for a seed coset and propagate it around the orbit, rejecting
    candidates whose propagation is inconsistent.
    """
    alphas = [a.perm for a in subgroup.elements]
    todo = set(cosets)
    chosen: dict[int, SwitchingPermutation] = {}
    while todo:
        seed = min(todo)
        candidates = []
        for e in cosets[seed]:
            candidates.extend([e, sp_negate(e)])
        ok = None
        for cand in candidates:
            assign: dict[int, SwitchingPermutation] = {}
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


def general_product(system: CosetSystem,
                    x: tuple[int, SwitchingPermutation],
                    y: tuple[int, SwitchingPermutation]):
    """Product of x = rep_i * alpha and y = rep_j * beta computed through the
    coset representatives: returns (sign, rep index, nu, alpha*beta) with nu
    in the subgroup, and cross-checks against direct multiplication.

    Requires a conjugation-closed representative system.
    """
    if not system.closed_under_conjugation:
        raise CosetError("representative system is not conjugation-closed")
    i, alpha = x
    j, beta = y
    rx, ry = system.representatives[i], system.representatives[j]
    if alpha not in system.subgroup.index or beta not in system.subgroup.index:
        raise CosetError("cofactors must lie in the subgroup")

    # Raw switching set of the product: X xor the pullback of Y through
    # (gamma_X alpha).
    ga = compose(rx.perm, alpha.perm)
    u_raw = rx.switch_mask ^ _pullback(ry.switch_mask, ga)
    k = system.rep_for_mask(sp_canonical(SwitchingPermutation(u_raw, ga)).switch_mask)
    ru = system.representatives[k]
    sign = 1 if u_raw == ru.switch_mask else -1

    # nu = gamma_U^-1 * gamma_X * (gamma_Y conjugated by alpha^-1)
    gy_conj = compose(compose(alpha.perm, ry.perm), inverse(alpha.perm))
    nu_perm = compose(compose(inverse(ru.perm), rx.perm), gy_conj)
    nu = SwitchingPermutation(0, nu_perm)
    if nu not in system.subgroup.index:
        raise CosetError("nu fell outside the subgroup")
    ab = SwitchingPermutation(0, compose(alpha.perm, beta.perm))

    direct = sp_multiply(sp_multiply(rx, alpha), sp_multiply(ry, beta))
    recombined = sp_multiply(sp_multiply(ru, nu), ab)
    if sign < 0:
        recombined = sp_negate(recombined)
    if recombined != direct:
        raise CosetError("decomposition disagrees with direct product")
    return sign, k, nu, ab
