"""Permutations, switching permutations with semidirect-product arithmetic,
automorphism and switching-automorphism groups of signed graphs, coset
representative systems, and isomorphism-type identification of small groups.

An automorphism lifts to a switching automorphism exactly when it fixes
the cycle-space syndrome of the sign mask, so the scan tests that first.
Groups of switching automorphisms are checked by closure under generators
and read as permutation groups; ``FiniteGroup``, with a Cayley table and
Light's associativity test, is the reference the tests compare them with.

Conventions. Permutations are image tuples over vertex ids and compose left
to right: compose(p, q) applies p first. A switching permutation pairs an
exact vertex subset (as a bitmask) with a permutation and acts on signatures
by switching first, permuting second. Two switching permutations that differ
by complementing the switching set act identically on a connected graph;
group elements are stored with the canonical lift (vertex 0 unswitched).
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .graphs import (Graph, MAX_SEARCH_VERTICES, SearchSizeError, _Record,
                     automorphism_images, bits, cut_mask, forest_preimage,
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


def _pullback(mask: int, index_map: tuple[int, ...]) -> int:
    """Bit i of the result is bit index_map[i] of mask. Through an edge
    permutation this moves a sign mask, through a vertex permutation a
    vertex mask."""
    out = 0
    for i, j in enumerate(index_map):
        if mask >> j & 1:
            out |= 1 << i
    return out


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
    return tuple(labeling.vertex(base[i - 1], base[j - 1])
                 for i, j in labeling.pair_of)


# ---------------------------------------------------------------------------
# Switching permutations
# ---------------------------------------------------------------------------

class SwitchingPermutation(_Record):
    """An exact switching set (vertex bitmask) paired with a vertex
    permutation, acting switch-first."""

    _fields = ("switch_mask", "perm")

    def __init__(self, switch_mask: int, perm: tuple[int, ...]):
        self.__dict__.update(switch_mask=switch_mask, perm=perm)

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
        self._check(mul)

    def _check(self, mul) -> None:
        """Build the Cayley table and check the group axioms on it."""
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
    permutation, so the group is isomorphic to its group of permutations:
    element orders and commutativity are read from permutations, and no
    Cayley table is built."""

    def __init__(self, elements):
        elements = sorted(elements, key=lambda e: (e.switch_mask, e.perm))
        self.by_perm = {e.perm: e for e in elements}
        if len(self.by_perm) != len(elements):
            raise GroupAxiomError("two elements share a permutation")
        super().__init__(elements, None)

    def _check(self, mul) -> None:
        """Closure under greedy generators, |S|·|T| products in place of
        |S|^2 Cayley cells: each element not yet reached becomes a
        generator, and each reached element is multiplied once by each
        generator. Each product, canonicalised, must be listed; with the
        identity listed, the list is then the group the generators
        generate."""
        by_perm = self.by_perm
        one = sp_identity(self.elements[0].n if self.elements else 0)
        if by_perm.get(one.perm) != one:
            raise GroupAxiomError("no identity element")
        full = (1 << one.n) - 1
        reached, gens = {one.perm: one}, []
        for candidate in self.elements:
            if candidate.perm in reached:
                continue
            gens.append(candidate)
            work = [(a, (candidate,)) for a in reached.values()]
            while work:
                a, ts = work.pop()
                for t in ts:  # sp_multiply and sp_canonical, inlined
                    q = compose(a.perm, t.perm)
                    z = a.switch_mask ^ _pullback(t.switch_mask, a.perm)
                    c = by_perm.get(q)
                    if c is None or c.switch_mask != (z ^ full if z & 1 else z):
                        raise GroupAxiomError(f"not closed: {a} * {t}")
                    if q not in reached:
                        reached[q] = c
                        work.append((c, tuple(gens)))
        self.generators = tuple(gens)

    def element_order(self, i: int) -> int:
        return perm_order(self.elements[i].perm)

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise."""
        return all(compose(a.perm, b.perm) == compose(b.perm, a.perm)
                   for a, b in itertools.combinations(self.generators, 2))

    def is_subgroup(self, other: "SwitchingGroup") -> bool:
        """Whether every element lies in other; both are checked groups
        under one product, so containment is enough."""
        return all(e in other.index for e in self.elements)


@lru_cache(maxsize=8)
def _automorphism_edge_maps(g: Graph):
    """Each automorphism p of g, built once per graph, with its pullback
    of sign masks, the OR of pull[j] over the set bits j, and its action on
    syndromes: cols[t] is the syndrome of the pullback of the t-th chord."""
    maps = ((p, edge_permutation(g, inverse(p))) for p in automorphism_images(g))
    return tuple((p, tuple(1 << i for i in inv),
                  tuple(g.syndromes[inv[e]] for e in g.chords))
                 for p, inv in maps)


def _switching_scan_guard(g: Graph) -> None:
    """Switching automorphisms are computed on connected graphs of at most
    MAX_SEARCH_VERTICES vertices, where the lift with vertex 0 unswitched
    is unique."""
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise SearchSizeError("graph too large for switching scan")
    if not g.is_connected():
        raise ValueError("switching automorphisms need a connected graph")


@lru_cache(maxsize=8)
def _lifts(s: SignedGraph) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each automorphism p of the underlying graph that lifts, with the
    switching part X of its lift. p lifts when it fixes the syndrome of the
    mask (mask xor its pullback is a cut); only then is X, least vertex of
    each component out, read off the forest, and X = 0 when p preserves the
    signs. ``aut_signed``, ``swaut`` and ``orbit_counts`` read it."""
    g, mask = s.graph, s.mask
    z = syndrome(g, mask)
    zbits, mbits = tuple(bits(z)), tuple(bits(mask))
    out = []
    for p, pull, cols in _automorphism_edge_maps(g):
        image = 0
        for t in zbits:
            image ^= cols[t]
        if image == z:
            moved = 0
            for j in mbits:
                moved |= pull[j]
            out.append((p, forest_preimage(g, mask ^ moved)))
    return tuple(out)


def aut_signed(s: SignedGraph) -> SwitchingGroup:
    """Sign-preserving automorphisms: the stabilizer of the sign mask
    inside the automorphism group of the underlying graph."""
    return SwitchingGroup(SwitchingPermutation(0, p)
                          for p, x in _lifts(s) if x == 0)


def swaut(s: SignedGraph) -> SwitchingGroup:
    """Switching automorphism group: the stabilizer of the switching class
    of s inside the automorphism group of the underlying graph. Each
    automorphism that lifts contributes its lift with vertex 0
    unswitched."""
    _switching_scan_guard(s.graph)
    return SwitchingGroup(SwitchingPermutation(x, p) for p, x in _lifts(s))


def orbit_counts(s: SignedGraph) -> tuple[int, int]:
    """(isomorphic copies, switching-equivalence classes in the orbit), by
    orbit-stabilizer: the order of Aut of the underlying graph divided by
    the number of automorphisms that fix the sign mask, and by the number
    that lift. No group is built."""
    _switching_scan_guard(s.graph)
    lifts, aut = _lifts(s), len(_automorphism_edge_maps(s.graph))
    fixed = sum(1 for _, x in lifts if x == 0)
    return aut // fixed, aut // len(lifts)


# ---------------------------------------------------------------------------
# Coset representative systems
# ---------------------------------------------------------------------------

class CosetError(ValueError):
    pass


class CosetSystem(_Record):
    """Coset representatives, with exact switching sets, of a subgroup."""

    _fields = ("group", "subgroup", "representatives",
               "closed_under_conjugation")

    def __init__(self, group: FiniteGroup, subgroup: FiniteGroup,
                 representatives: tuple[SwitchingPermutation, ...],
                 closed_under_conjugation: bool):
        self.__dict__.update(group=group, subgroup=subgroup,
                             representatives=representatives,
                             closed_under_conjugation=closed_under_conjugation)

    def rep_for_mask(self, canonical_mask: int) -> int:
        for i, r in enumerate(self.representatives):
            if sp_canonical(r).switch_mask == canonical_mask:
                return i
        raise CosetError(f"no representative for switching class {canonical_mask:#x}")


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
    closed = _is_conjugation_closed(reps, subgroup)
    if not closed:
        alternative = _closed_reps(cosets, subgroup)
        if alternative is not None:
            reps = alternative
            closed = _is_conjugation_closed(reps, subgroup)
    return CosetSystem(group, subgroup, tuple(reps), closed)


def _default_reps(cosets, n: int) -> list[SwitchingPermutation]:
    reps = []
    half = n / 2
    for mask in sorted(cosets):
        elem = min(cosets[mask], key=lambda e: e.perm)
        comp = sp_negate(elem)
        size = elem.switch_mask.bit_count()
        take_comp = size > half or (size == half and comp.switch_mask < elem.switch_mask)
        reps.append(comp if take_comp else elem)
    return reps


def _is_conjugation_closed(reps, subgroup: FiniteGroup) -> bool:
    """``sp_conjugate`` of each rep by each subgroup element is a rep."""
    rep_set = set(reps)
    alphas = [(a.perm, inverse(a.perm)) for a in subgroup.elements]
    return all(SwitchingPermutation(_pullback(r.switch_mask, ai),
                                    compose(compose(ai, r.perm), a))
               in rep_set for r in reps for a, ai in alphas)


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
        candidates = [c for e in cosets[seed] for c in (e, sp_negate(e))]
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
