import functools
import itertools
import random

import pytest

from signedpetersen.expected import (AUT_LABELS, AUT_ORDERS, CLASS_NAMES,
                                     COPIES, SWAUT_LABELS, SWAUT_ORDERS,
                                     SWITCHING_CLASSES)
from signedpetersen.graphs import Graph, automorphism_images, cut, petersen
from signedpetersen.groups import (CosetError, FiniteGroup, GroupAxiomError,
                                   SwitchingGroup, SwitchingPermutation,
                                   aut_signed, compose, coset_system,
                                   edge_permutation, format_cycles,
                                   general_product, graph_automorphisms,
                                   identify_group, identity_perm,
                                   induced_permutation, inverse,
                                   lift_permutation, orbit_counts,
                                   parse_cycles, sp_act, sp_canonical,
                                   sp_conjugate, sp_identity,
                                   sp_inverse, sp_multiply, sp_negate, swaut)
from signedpetersen.signed import SignedGraph, negate, switch


# --------------------------------------------------------------------------
# permutation plumbing
# --------------------------------------------------------------------------

def test_cycle_notation_round_trip():
    assert parse_cycles("()") == (1, 2, 3, 4, 5)
    assert parse_cycles("") == (1, 2, 3, 4, 5)
    assert parse_cycles("(12)(45)") == (2, 1, 3, 5, 4)
    assert parse_cycles("(145)") == (4, 2, 3, 5, 1)
    for text in ("()", "(12)(45)", "(145)", "(12345)", "(13)(24)"):
        assert parse_cycles(format_cycles(parse_cycles(text))) == parse_cycles(text)
    assert format_cycles((1, 2, 3, 4, 5)) == "()"


def test_compose_convention():
    # left-to-right: compose(p, q) applies p first (0-based image tuples)
    p0 = tuple(x - 1 for x in parse_cycles("(12)"))
    q0 = tuple(x - 1 for x in parse_cycles("(23)"))
    r = compose(p0, q0)
    # 1 -> 2 under p, 2 -> 3 under q, so r sends 0 to 2
    assert r[0] == 2
    assert compose(p0, inverse(p0)) == identity_perm(5)


def test_induced_permutation(pg):
    g, lab = pg
    base = parse_cycles("(12345)")
    perm = induced_permutation(lab, base)
    # v_{12} must map to v_{23}
    assert perm[lab.vertex(1, 2)] == lab.vertex(2, 3)
    # induced permutations are graph automorphisms
    for u, v in g.edges:
        assert g.has_edge(perm[u], perm[v])
    # induction is a homomorphism
    a, b = parse_cycles("(12)"), parse_cycles("(345)")
    pa = tuple(x - 1 for x in a)
    pb = tuple(x - 1 for x in b)
    ab0 = compose(pa, pb)
    ab = tuple(x + 1 for x in ab0)
    assert induced_permutation(lab, ab) == compose(
        induced_permutation(lab, a), induced_permutation(lab, b))


# --------------------------------------------------------------------------
# switching permutation algebra
# --------------------------------------------------------------------------

def rand_sp(rng, n=10):
    perm = list(range(n))
    rng.shuffle(perm)
    return SwitchingPermutation(rng.randrange(1 << n), tuple(perm))


def test_sp_group_axioms_random():
    rng = random.Random(5)
    e = sp_identity(10)
    for _ in range(50):
        a, b, c = rand_sp(rng), rand_sp(rng), rand_sp(rng)
        assert sp_multiply(sp_multiply(a, b), c) == sp_multiply(a, sp_multiply(b, c))
        assert sp_multiply(a, e) == a and sp_multiply(e, a) == a
        assert sp_multiply(a, sp_inverse(a)) == e
        assert sp_multiply(sp_inverse(a), a) == e


def test_sp_action_is_right_action(pg):
    g, _ = pg
    rng = random.Random(13)
    auts = graph_automorphisms(g)
    for _ in range(20):
        s = SignedGraph(g, rng.randrange(1 << 15))
        a = SwitchingPermutation(rng.randrange(1 << 10),
                                 rng.choice(auts.elements).perm)
        b = SwitchingPermutation(rng.randrange(1 << 10),
                                 rng.choice(auts.elements).perm)
        assert sp_act(b, sp_act(a, s)) == sp_act(sp_multiply(a, b), s)
    # negation acts trivially: switching everything changes nothing
    s = SignedGraph(g, 0x1A2B)
    a = SwitchingPermutation(0x3F, identity_perm(10))
    assert sp_act(sp_negate(a), s) == sp_act(a, s)


def test_sp_conjugate(pg):
    g, _ = pg
    rng = random.Random(17)
    auts = [e.perm for e in graph_automorphisms(g).elements]
    for _ in range(20):
        a = rand_sp(rng)
        alpha = rng.choice(auts)
        lhs = sp_conjugate(a, alpha)
        sp_alpha = SwitchingPermutation(0, alpha)
        rhs = sp_multiply(sp_multiply(sp_inverse(sp_alpha), a), sp_alpha)
        assert lhs == rhs


def test_edge_permutation(pg):
    g, _ = pg
    perm = graph_automorphisms(g).elements[5].perm
    ep = edge_permutation(g, perm)
    for i, (u, v) in enumerate(g.edges):
        x, y = sorted((perm[u], perm[v]))
        assert g.edges[ep[i]] == (x, y)


# --------------------------------------------------------------------------
# finite groups and identification
# --------------------------------------------------------------------------

def perm_group(*gens, degree):
    """Permutation group on 0..degree-1 from image-tuple generators."""
    return FiniteGroup.generate([tuple(g) for g in gens], compose,
                                identity_perm(degree))


def test_group_axiom_enforcement():
    # a non-closed element list is rejected
    with pytest.raises((GroupAxiomError, KeyError)):
        FiniteGroup([(0, 1, 2), (1, 2, 0)], compose)


def test_non_associative_tables_are_rejected():
    # A self-inverse loop of order 5: identity 0, every row a permutation,
    # but (1*1)*2 = 2 while 1*(1*2) = 4.
    loop = ["01234", "10342", "24013", "32401", "43120"]
    with pytest.raises(GroupAxiomError):
        FiniteGroup(range(5), lambda a, b: int(loop[a][b]))
    # Z_120 with the intercalate on rows and columns 1 and 61 swapped: still
    # a Latin square with identity 0, wrong in 4 of 14,400 cells, so a
    # check of sampled triples can miss it.
    z = [[(a + b) % 120 for b in range(120)] for a in range(120)]
    for a in (1, 61):
        for b in (1, 61):
            z[a][b] = (z[a][b] + 60) % 120
    with pytest.raises(GroupAxiomError):
        FiniteGroup(range(120), lambda a, b: z[a][b])
    # the unswapped table is the cyclic group
    FiniteGroup(range(120), lambda a, b: (a + b) % 120)


def test_identify_group_reference_constructions():
    assert identify_group(perm_group((0,), degree=1)) == "1"
    assert identify_group(perm_group((1, 0), degree=2)) == "Z2"
    assert identify_group(perm_group((1, 2, 3, 0), degree=4)) == "Z4"
    assert identify_group(
        perm_group((1, 0, 2, 3), (0, 1, 3, 2), degree=4)) == "V4"
    assert identify_group(perm_group((1, 0, 2), (0, 2, 1), degree=3)) == "S3"
    # D4: rotation + reflection of a square
    assert identify_group(
        perm_group((1, 2, 3, 0), (1, 0, 3, 2), degree=4)) == "D4"
    assert identify_group(
        perm_group((1, 0, 2, 3), (1, 2, 3, 0), degree=4)) == "S4"
    a5 = perm_group((1, 2, 0, 3, 4), (1, 2, 3, 4, 0), degree=5)
    assert a5.order == 60 and identify_group(a5) == "A5"
    s5 = perm_group((1, 0, 2, 3, 4), (1, 2, 3, 4, 0), degree=5)
    assert s5.order == 120 and identify_group(s5) == "S5"
    # Q8 from quaternion unit multiplication; separated from D4 by having a
    # single involution
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}

    def qmul(x, y):
        sign = (-1) ** (x.startswith("-") + y.startswith("-"))
        bx, by = x.lstrip("-"), y.lstrip("-")
        if bx == "1":
            out = by
        elif by == "1":
            out = bx
        elif bx == by:
            out = "-1"
        else:
            out = base[(bx, by)]
        if out.startswith("-"):
            sign, out = -sign, out[1:]
        return out if sign > 0 else "-" + out

    q8 = FiniteGroup(units, qmul)
    assert identify_group(q8) == "Q8"
    d4 = perm_group((1, 2, 3, 0), (1, 0, 3, 2), degree=4)
    assert q8.order == d4.order == 8
    assert q8.order_histogram != d4.order_histogram


def test_graph_automorphism_groups(pg):
    g, _ = pg
    assert identify_group(graph_automorphisms(g)) == "S5"
    c5 = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
    assert graph_automorphisms(c5).order == 10
    assert graph_automorphisms(Graph(1, ())).order == 1


# --------------------------------------------------------------------------
# automorphisms and switching automorphisms of the six signatures
# --------------------------------------------------------------------------

def test_aut_and_swaut_tables(reps, aut6, sw6):
    for i, (a, w) in enumerate(zip(aut6, sw6)):
        assert a.order == AUT_ORDERS[i], CLASS_NAMES[i]
        assert identify_group(a) == AUT_LABELS[i], CLASS_NAMES[i]
        assert w.order == SWAUT_ORDERS[i], CLASS_NAMES[i]
        assert identify_group(w) == SWAUT_LABELS[i], CLASS_NAMES[i]
        assert a.is_subgroup(w)


def test_orbit_counts(reps):
    for i, s in enumerate(reps):
        copies, classes = orbit_counts(s)
        assert copies == COPIES[i], CLASS_NAMES[i]
        assert classes == SWITCHING_CLASSES[i], CLASS_NAMES[i]


def test_projection_injectivity(sw6):
    for w in sw6:
        perms = [e.perm for e in w.elements]
        assert len(perms) == len(set(perms))


def test_negation_and_switching_invariance(reps, sw6):
    rng = random.Random(29)
    for s, w in list(zip(reps, sw6))[:3] + list(zip(reps, sw6))[4:]:
        assert set(swaut(negate(s)).elements) == set(w.elements)
        z = sum(1 << v for v in rng.sample(range(10), 3))
        w2 = swaut(switch(s, z))
        assert w2.order == w.order
        assert {e.perm for e in w2.elements} == {e.perm for e in w.elements}


def test_cut_balance_of_switch_parts(reps, sw6):
    # in SwAut of a minimal signature, every switching part cuts equally
    # many positive and negative edges
    for s, w in zip(reps, sw6):
        g = s.graph
        for e in w.elements:
            xs = {v for v in range(10) if e.switch_mask >> v & 1}
            for x in (xs, set(range(10)) - xs):
                neg = sum(1 for i in cut(g, x) if s.mask >> i & 1)
                pos = len(cut(g, x)) - neg
                assert pos == neg


def test_swaut_elements_fix_signature(reps, sw6):
    for s, w in zip(reps, sw6):
        for e in w.elements:
            assert sp_act(e, s) == s


@functools.lru_cache(maxsize=1)
def _scan_tables(g):
    """Cut mask of every switching set without vertex 0, from the cut
    definition; each graph automorphism with its edge permutation split into
    two byte tables, so that permuting a mask costs two lookups."""
    n, m = g.vertex_count, len(g.edges)
    cut_masks = []
    for sub in range(1 << (n - 1)):
        x = sub << 1
        verts = {v for v in range(n) if x >> v & 1}
        cut_masks.append((x, sum(1 << i for i in cut(g, verts))))
    tables = []
    for p in automorphism_images(g):
        ep = edge_permutation(g, p)
        lo = [sum(1 << ep[i] for i in range(min(8, m)) if b >> i & 1)
              for b in range(256)]
        hi = [sum(1 << ep[i] for i in range(8, m) if b >> (i - 8) & 1)
              for b in range(1 << max(m - 8, 0))]
        tables.append((p, lo, hi))
    return cut_masks, tables


def exhaustive_swaut(s):
    """Reference SwAut: every pair (switching set X without vertex 0, graph
    automorphism p) whose action fixes the sign mask, scanned in full; on
    the Petersen graph that is 512 x 120 pairs."""
    cut_masks, tables = _scan_tables(s.graph)
    found = set()
    for x, c in cut_masks:
        switched = s.mask ^ c
        low, high = switched & 0xFF, switched >> 8
        for p, lo, hi in tables:
            if lo[low] | hi[high] == s.mask:
                found.add(SwitchingPermutation(x, p))
    return found


def checked_signatures(g, reps):
    """The six representatives, their negations and 30 seeded random
    signatures."""
    rng = random.Random(31)
    return (list(reps) + [negate(s) for s in reps] +
            [SignedGraph(g, rng.randrange(1 << 15)) for _ in range(30)])


def test_swaut_matches_exhaustive_scan(pg, reps, sw6):
    g, _ = pg
    signatures = list(zip(reps, sw6))
    signatures += [(s, swaut(s)) for s in checked_signatures(g, reps)[6:]]
    perms = automorphism_images(g)
    for s, w in signatures:
        assert set(w.elements) == exhaustive_swaut(s), s.mask
        by_perm = {e.perm: e for e in w.elements}
        for p in perms:
            assert lift_permutation(s, p) == by_perm.get(p)


def oracle_group(elements):
    """Reference Cayley table: each cell is the canonical lift of the
    semidirect product of two elements, looked up among the elements. The
    product is written out here: the switching set of b pulled back
    through the permutation of a, XOR that of a."""
    def product(a, b):
        x = a.switch_mask
        for w, v in enumerate(a.perm):
            if b.switch_mask >> v & 1:
                x ^= 1 << w
        if x & 1:
            x ^= (1 << len(a.perm)) - 1
        return SwitchingPermutation(x, compose(a.perm, b.perm))

    return FiniteGroup(sorted(elements, key=lambda e: (e.switch_mask, e.perm)),
                       product)


def test_cayley_tables_match_oracle(pg, reps):
    g, _ = pg
    for s in checked_signatures(g, reps):
        aut, w = aut_signed(s), swaut(s)
        for group in (aut, w):
            oracle = oracle_group(group.elements)
            assert oracle.elements == group.elements, s.mask
            assert oracle.table == group.table, s.mask
        # orbit-stabilizer counts against the orders of the built groups
        assert orbit_counts(s) == (120 // aut.order, 120 // w.order), s.mask


def test_switching_group_rejects_bad_elements(sw6):
    elements = sw6[4].elements
    # a wrong switching part: the permutations still close up, the
    # switching parts of the products do not
    e = elements[-1]
    wrong = SwitchingPermutation(e.switch_mask ^ 0b110, e.perm)
    with pytest.raises(GroupAxiomError):
        SwitchingGroup(elements[:-1] + [wrong])
    # one element missing: not closed
    with pytest.raises(GroupAxiomError):
        SwitchingGroup(elements[:-1])
    # two elements with one permutation
    with pytest.raises(GroupAxiomError):
        SwitchingGroup(elements + [wrong])


def test_lift_permutation(pg, reps):
    g, lab = pg
    s32, s33 = reps[4], reps[5]
    # P3,2 projects onto the even permutations only
    present = absent = 0
    for base in itertools.permutations(range(1, 6)):
        e = lift_permutation(s32, induced_permutation(lab, base))
        if e is None:
            absent += 1
        else:
            present += 1
    assert (present, absent) == (60, 60)
    # P3,3 projects onto everything; lifts match the neighborhood formula
    for base in itertools.permutations(range(1, 6)):
        xi = induced_permutation(lab, base)
        e = lift_permutation(s33, xi)
        assert e is not None and e.perm == xi
        if base[4] == 5:
            assert e.switch_mask == 0
        else:
            j = base.index(5) + 1
            v = lab.vertex(j, 5)
            x = sum(1 << u for u in g.closed_neighborhood(v))
            want = sp_canonical(SwitchingPermutation(x, xi))
            assert e == want
    # swapping two adjacent vertices is not an automorphism
    u, v = g.edges[0]
    swapped = list(range(10))
    swapped[u], swapped[v] = v, u
    for s in reps:
        assert lift_permutation(s, tuple(swapped)) is None


# --------------------------------------------------------------------------
# coset representative systems
# --------------------------------------------------------------------------

def test_coset_systems(aut6, sw6):
    sizes = (1, 1, 2, 1, 10, 5)
    for i, (a, w) in enumerate(zip(aut6, sw6)):
        system = coset_system(w, a)
        assert len(system.representatives) == sizes[i], CLASS_NAMES[i]
        assert system.closed_under_conjugation
        # distinct canonical switching classes
        canon = [sp_canonical(r).switch_mask for r in system.representatives]
        assert len(canon) == len(set(canon))
        # disjoint union of left cosets covers the group
        seen = set()
        for r in system.representatives:
            for t in a.elements:
                seen.add(sp_canonical(sp_multiply(r, t)))
        assert seen == set(w.elements)
        # decompose round trip over the whole group
        for e in w.elements:
            sign, k, tau = system.decompose(e)
            back = sp_multiply(system.representatives[k], tau)
            if sign < 0:
                back = sp_negate(back)
            assert sp_canonical(back) == e


def test_coset_system_errors(aut6, sw6):
    w32 = sw6[4]
    a32 = aut6[4]
    a1 = aut6[1]
    with pytest.raises(CosetError):
        coset_system(w32, a1)  # not a subgroup
    with pytest.raises(CosetError):
        coset_system(w32, w32)  # nontrivial switching parts
    system = coset_system(w32, a32)
    with pytest.raises(CosetError):
        system.rep_for_mask(0x155)


def test_general_product_all_pairs(aut6, sw6):
    for a, w in ((aut6[4], sw6[4]), (aut6[5], sw6[5])):
        system = coset_system(w, a)
        n = len(system.representatives)
        for i in range(n):
            for alpha in a.elements:
                for j in range(n):
                    for beta in a.elements:
                        # general_product raises if the structured result
                        # disagrees with direct multiplication
                        sign, k, nu, ab = general_product(
                            system, (i, alpha), (j, beta))
                        assert sign in (1, -1)
                        assert 0 <= k < n
                        assert nu in a.index and ab in a.index


def test_no_order10_complement_in_swaut_p32(aut6, sw6):
    """Exhaustive search: no order-10 subgroup meets the signature's
    automorphism group trivially, so no representative system of SwAut of
    the 3-negative-edge matching signature forms a subgroup."""
    w = sw6[4]
    aut_set = {w.index[e] for e in aut6[4].elements}
    by_order = {5: [], 2: []}
    for i in range(w.order):
        o = w.element_order(i)
        if o in by_order:
            by_order[o].append(i)
    subgroups = set()
    for a in by_order[5]:
        for b in by_order[2]:
            # closure of <a, b> as element indices over the verified table
            h = {w.identity}
            frontier = [w.identity]
            while frontier:
                frontier = [w.table[x][y] for x in frontier for y in (a, b)
                            if w.table[x][y] not in h]
                h.update(frontier)
            if len(h) == 10:
                subgroups.add(frozenset(h))
    assert len(subgroups) == 6
    for h in subgroups:
        assert len(h & aut_set) > 1
