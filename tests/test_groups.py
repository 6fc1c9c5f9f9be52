import functools
import itertools
import math
import operator
import random
from collections import Counter

import pytest

from signedpetersen.census import build_table, standard_mask
from signedpetersen.expected import (AUT_LABELS, AUT_ORDERS, CLASS_NAMES,
                                     COPIES, SWAUT_LABELS, SWAUT_ORDERS,
                                     SWITCHING_CLASSES)
from signedpetersen.graphs import (PETERSEN_PAIRS, Graph, SearchSizeError,
                                   automorphism_images, bits, chord_mask,
                                   cut_space, syndrome)
from signedpetersen.groups import (_CATALOG, CosetError, GroupAxiomError,
                                   SwitchingGroup, SwitchingPermutation,
                                   _automorphism_edge_maps, _default_reps,
                                   aut_signed, compose, coset_system,
                                   format_cycles, identify_group, identity_perm,
                                   inverse, orbit_counts, swaut)
from signedpetersen.signed import (SignedGraph, _class_invariants, negate,
                                   switch)

from oracles import (CayleyGroup, adjacency, closed_neighborhood, cut,
                     cut_preimage, edge_permutation,
                     general_product, graph_automorphisms,
                     induced_permutation, is_conjugation_closed,
                     parse_cycles, pullback,
                     reference_coset_system, rep_for_mask, scan_lifts, sp_act,
                     sp_canonical, sp_conjugate, sp_identity, sp_inverse,
                     sp_multiply, sp_negate, syndrome_lifts)


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
    g = pg[0]
    base = parse_cycles("(12345)")
    perm = induced_permutation(base)
    # v_{12} must map to v_{23}, and v_{45} to v_{15}: the image pair sorted
    assert perm[PETERSEN_PAIRS.index((1, 2))] == PETERSEN_PAIRS.index((2, 3))
    assert perm[PETERSEN_PAIRS.index((4, 5))] == PETERSEN_PAIRS.index((1, 5))
    # induced permutations are graph automorphisms
    for u, v in g.edges:
        assert perm[v] in adjacency(g)[perm[u]]
    # induction is a homomorphism
    a, b = parse_cycles("(12)"), parse_cycles("(345)")
    pa = tuple(x - 1 for x in a)
    pb = tuple(x - 1 for x in b)
    ab0 = compose(pa, pb)
    ab = tuple(x + 1 for x in ab0)
    assert induced_permutation(ab) == compose(
        induced_permutation(a), induced_permutation(b))


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


def test_chord_images_match_the_edge_permutation(pg):
    # pulled[t] is the edge that an automorphism carries onto the t-th
    # chord: the oracle's edge map of the inverse permutation, read at the
    # chords, for every automorphism of P, K4, K3,3, the 3-cube, the
    # pentagram and seeded connected graphs
    from test_graphs import cube, k33, pentagram, seeded_graphs
    k4 = Graph.from_edges(4, itertools.combinations(range(4), 2))
    seeded = [g for g in seeded_graphs(53, [4 + i % 5 for i in range(40)])
              if g.is_connected()]
    assert len(seeded) >= 20
    for g in (pg[0], k4, k33(), cube(), pentagram(), *seeded):
        maps = _automorphism_edge_maps(g)
        assert [p for p, _ in maps] == list(automorphism_images(g))
        for p, pulled in maps:
            image = edge_permutation(g, inverse(p))
            assert pulled == tuple(image[e] for e in g.chords), (g, p)


# --------------------------------------------------------------------------
# finite groups and identification
# --------------------------------------------------------------------------

def perm_group(*gens, degree):
    """Permutation group on 0..degree-1 from image-tuple generators: their
    closure under composition, with its Cayley table."""
    seen = {identity_perm(degree)}
    frontier = list(seen)
    while frontier:
        frontier = [c for a in frontier for c in
                    (compose(a, tuple(g)) for g in gens) if c not in seen]
        seen.update(frontier)
    return CayleyGroup(sorted(seen), compose)


def test_group_axiom_enforcement():
    # a non-closed element list is rejected
    with pytest.raises((GroupAxiomError, KeyError)):
        CayleyGroup([(0, 1, 2), (1, 2, 0)], compose)


def test_non_associative_tables_are_rejected():
    # A self-inverse loop of order 5: identity 0, every row a permutation,
    # but (1*1)*2 = 2 while 1*(1*2) = 4.
    loop = ["01234", "10342", "24013", "32401", "43120"]
    with pytest.raises(GroupAxiomError):
        CayleyGroup(range(5), lambda a, b: int(loop[a][b]))
    # Z_120 with the intercalate on rows and columns 1 and 61 swapped: still
    # a Latin square with identity 0, wrong in 4 of 14,400 cells, so a
    # check of sampled triples can miss it.
    z = [[(a + b) % 120 for b in range(120)] for a in range(120)]
    for a in (1, 61):
        for b in (1, 61):
            z[a][b] = (z[a][b] + 60) % 120
    with pytest.raises(GroupAxiomError):
        CayleyGroup(range(120), lambda a, b: z[a][b])
    # the unswapped table is the cyclic group
    CayleyGroup(range(120), lambda a, b: (a + b) % 120)


def quaternion_group():
    """Q8 from quaternion unit multiplication, on its Cayley table."""
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

    return CayleyGroup(units, qmul)


def reference_groups():
    """One group of each catalog label, built from generators or a
    multiplication rule and checked on its Cayley table."""
    return {
        "1": perm_group((0,), degree=1),
        "Z2": perm_group((1, 0), degree=2),
        "Z4": perm_group((1, 2, 3, 0), degree=4),
        "V4": perm_group((1, 0, 2, 3), (0, 1, 3, 2), degree=4),
        "S3": perm_group((1, 0, 2), (0, 2, 1), degree=3),
        # D4: rotation + reflection of a square
        "D4": perm_group((1, 2, 3, 0), (1, 0, 3, 2), degree=4),
        "Q8": quaternion_group(),
        "S4": perm_group((1, 0, 2, 3), (1, 2, 3, 0), degree=4),
        "A5": perm_group((1, 2, 0, 3, 4), (1, 2, 3, 4, 0), degree=5),
        "S5": perm_group((1, 0, 2, 3, 4), (1, 2, 3, 4, 0), degree=5),
    }


def test_identify_group_reference_constructions():
    groups = reference_groups()
    assert [g.order for g in groups.values()] == \
        [1, 2, 4, 4, 6, 8, 8, 24, 60, 120]
    for label, g in groups.items():
        assert identify_group(g) == label
    # Q8 is separated from D4 by having a single involution
    assert groups["Q8"].order_histogram != groups["D4"].order_histogram


def cyclic_factorizations(n, least=2):
    """Each way to write n as a product of factors of at least least, in
    increasing order: Z_{n1} x ... x Z_{nk} runs over every abelian group
    of order n, some more than once."""
    if n == 1:
        yield ()
    for f in range(least, n + 1):
        if n % f == 0:
            for rest in cyclic_factorizations(n // f, f):
                yield (f, *rest)


def abelian_histogram(factors):
    """Element-order histogram of Z_{n1} x ... x Z_{nk}: an element's order
    is the lcm of its coordinates' orders n_i / gcd(a_i, n_i)."""
    return Counter(
        functools.reduce(math.lcm, (n // math.gcd(a, n)
                                    for a, n in zip(coords, factors)), 1)
        for coords in itertools.product(*map(range, factors)))


def test_catalog_histograms_settle_commutativity():
    # identify_group keys on order and element-order histogram alone; that
    # names commutativity too, since no abelian group shares the histogram
    # of a non-abelian catalog entry
    groups = reference_groups()
    abelian = 0
    for (order, hist), label in _CATALOG.items():
        g = groups[label]
        assert (g.order, tuple(sorted(g.order_histogram.items()))) == \
            (order, hist)
        hists = {tuple(sorted(abelian_histogram(f).items()))
                 for f in cyclic_factorizations(order)}
        assert (hist in hists) == g.is_abelian(), label
        abelian += g.is_abelian()
    assert abelian == 4  # 1, Z2, Z4 and V4
    # every abelian group of order 8, none of them D4 or Q8
    assert {tuple(sorted(abelian_histogram(f).items()))
            for f in cyclic_factorizations(8)} == {
        ((1, 1), (2, 1), (4, 2), (8, 4)), ((1, 1), (2, 3), (4, 4)),
        ((1, 1), (2, 7))}


def test_identify_group_names_no_group_above_order_120(monkeypatch):
    # the elementary abelian group of order 128 is "other" before its
    # element orders are read
    big = CayleyGroup(range(128), operator.xor)
    monkeypatch.setattr(big, "element_order", None)
    assert identify_group(big) == "other"


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


def test_burnside_counts_the_six_classes(pg):
    # Aut(P) acts on the 64 cycle-space syndromes through each
    # automorphism's chord images: z goes to the xor of the syndromes of
    # the edges carried onto its chords. The fixed points sum to
    # 6 * |Aut P|, and the orbit sizes are the census row "switching
    # classes". Each orbit carries one class name, the six orbits six
    # names, and the syndrome of each standard representative lies in the
    # orbit of its name
    g, _ = pg
    maps = _automorphism_edge_maps(g)

    def act(pulled, z):
        image = 0
        for t in bits(z):
            image ^= g.syndromes[pulled[t]]
        return image

    syndromes = range(1 << len(g.chords))
    assert len(syndromes) == 64 and len(maps) == 120
    fixed = sum(act(pulled, z) == z for _, pulled in maps for z in syndromes)
    assert (fixed, fixed // len(maps)) == (720, 6)
    orbits = {frozenset(act(pulled, z) for _, pulled in maps)
              for z in syndromes}
    sizes = sorted(map(len, orbits))
    assert sizes == [1, 1, 2, 15, 15, 30]
    assert sizes == sorted(dict(build_table("census").rows)
                           ["switching classes"])
    named = {}
    for orbit in orbits:
        names = {_class_invariants(z)[0] for z in orbit}
        assert len(names) == 1, sorted(orbit)
        named[names.pop()] = orbit
    assert sorted(named) == sorted(CLASS_NAMES)
    for t in CLASS_NAMES:
        assert syndrome(g, standard_mask(t)) in named[t], t


def test_switching_scans_refuse_what_they_cannot_scan():
    # a disconnected graph has no unique lift with vertex 0 unswitched, and
    # 17 vertices exceed the search cap: all three refuse before any scan
    triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                     (3, 5)])
    path17 = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    for scan in (aut_signed, swaut, orbit_counts):
        with pytest.raises(ValueError, match="need a connected graph"):
            scan(SignedGraph(triangles, 1))
        with pytest.raises(SearchSizeError):
            scan(SignedGraph(path17, 0))


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


def lift_permutation(s, xi):
    """The switching automorphism of s with permutation part xi, vertex 0
    unswitched, or None when xi is not an automorphism of the underlying
    graph or does not lift: switching X and relabelling by xi fixes the
    signs exactly when the edges whose sign xi changes form the cut of X."""
    g = s.graph
    xi = tuple(xi)
    if sorted(xi) != list(range(g.vertex_count)) or \
            not all(xi[v] in adjacency(g)[xi[u]] for u, v in g.edges):
        return None
    ep = edge_permutation(g, xi)
    changed = sum(1 << i for i in range(len(g.edges))
                  if (s.mask >> i ^ s.mask >> ep[i]) & 1)
    x = cut_preimage(g, changed)
    return None if x is None else SwitchingPermutation(x, xi)


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


def sampled_signatures(pg, reps):
    """Three masks of each of the 64 switching classes, and the six
    standard masks with their relabelled twins."""
    from signedpetersen.census import _switching_orbits
    g = pg[0]
    rng = random.Random(17)
    relabel = SwitchingPermutation(
        0, induced_permutation(parse_cycles("(132)(45)")))
    signatures = [SignedGraph(g, m) for orbit in _switching_orbits()
                  for m in [orbit[0]] + rng.sample(orbit[1:], 2)]
    assert len(signatures) == 3 * 64
    return signatures + list(reps) + [sp_act(relabel, s) for s in reps]


def test_lifts_match_the_pullback_scan(pg, reps):
    # against cut_preimage of the mask xor its pullback through each
    # automorphism; two triangles and an edge have no unique lift with
    # vertex 0 unswitched, so each of their signatures is refused
    from signedpetersen import groups
    for s in sampled_signatures(pg, reps):
        assert groups._lifts(s)[0] == scan_lifts(s), s.mask
    g = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (6, 7)])
    for m in range(1 << 7):
        with pytest.raises(ValueError, match="need a connected graph"):
            groups._lifts(SignedGraph(g, m))


def test_lifts_are_carried_from_the_chord_representative(pg):
    # on all 2^15 masks, the lifts carried from the class's chord
    # representative b equal the scan of the mask itself, and so does the
    # formula written out: with Y the switching from b to the mask,
    # X_m(p) = X_b(p) xor Y xor the pullback of Y through p, vertex 0
    # unswitched
    from signedpetersen import groups
    g, _ = pg
    full = (1 << 10) - 1
    for z in range(64):
        b = chord_mask(g, z)
        at_b = {p: x for x, p in syndrome_lifts(SignedGraph(g, b))}
        for y, c in cut_space(g):
            s = SignedGraph(g, b ^ c)
            lifts = syndrome_lifts(s)
            assert groups._lifts(s)[0] == lifts, s.mask
            for x, p in lifts:
                carried = at_b[p] ^ y ^ pullback(y, p)
                assert (carried ^ full if carried & 1 else carried) == x


def test_coset_systems_match_the_element_reference(pg, reps):
    # the coset system of the groups carried from each class, against the
    # element-by-element reference on groups built from the scan of the
    # mask itself; a quarter of these masks need the closed choice, and
    # some have none
    fallback = unclosed = 0
    for s in sampled_signatures(pg, reps):
        lifts = syndrome_lifts(s)
        aut = SwitchingGroup(SwitchingPermutation(0, p)
                             for x, p in lifts if x == 0)
        w = SwitchingGroup(SwitchingPermutation(x, p) for x, p in lifts)
        got_aut, got_w = aut_signed(s), swaut(s)
        assert (got_aut.elements, got_w.elements) == (aut.elements, w.elements)
        assert [identify_group(h) for h in (got_aut, got_w)] == \
            [identify_group(h) for h in (aut, w)], s.mask
        want = reference_coset_system(w, aut)
        assert coset_system(got_w, got_aut) == want, s.mask
        cosets = {}
        for e in w.elements:
            cosets.setdefault(e.switch_mask, []).append(e)
        fallback += not is_conjugation_closed(_default_reps(cosets, 10), aut)
        unclosed += not want[1]
    assert fallback > unclosed > 0


def test_coset_representatives_switch_at_most_half_the_vertices():
    # each default representative is the coset's least permutation with
    # the smaller of its two switching sets; at exactly half the vertices,
    # the smaller mask. Switching parts on the Petersen graph have even
    # size, so the tie is taken here on K4 and the hexagon.
    k4 = Graph.from_edges(4, itertools.combinations(range(4), 2))
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    for g in (k4, c6):
        n, full, ties = g.vertex_count, (1 << g.vertex_count) - 1, 0
        for m in range(1 << len(g.edges)):
            cosets = {}
            for e in swaut(SignedGraph(g, m)).elements:
                cosets.setdefault(e.switch_mask, []).append(e)
            for mask, r in zip(sorted(cosets), _default_reps(cosets, n)):
                assert r.perm == min(e.perm for e in cosets[mask])
                assert r.switch_mask in (mask, mask ^ full)
                size = 2 * r.switch_mask.bit_count()
                assert size < n or size == n and \
                    r.switch_mask < r.switch_mask ^ full, (m, r)
                ties += size == n
        assert ties > 0


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

    return CayleyGroup(sorted(elements, key=lambda e: (e.switch_mask, e.perm)),
                       product)


def test_cayley_tables_match_oracle(pg, reps):
    # the groups checked by closure under generators and read from their
    # permutations agree with the Cayley-table oracle in everything the
    # label uses
    g, _ = pg
    for s in checked_signatures(g, reps):
        aut, w = aut_signed(s), swaut(s)
        for group in (aut, w):
            oracle = oracle_group(group.elements)
            assert oracle.elements == group.elements, s.mask
            assert (group.order, group.order_histogram,
                    identify_group(group)) == \
                (oracle.order, oracle.order_histogram,
                 identify_group(oracle)), s.mask
        assert aut.is_subgroup(w)
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
    # the identity missing, or nothing listed
    assert elements[0] == sp_identity(10)
    for bad in (elements[1:], []):
        with pytest.raises(GroupAxiomError, match="identity"):
            SwitchingGroup(bad)


def test_orbit_counts_refuse_a_class_scan_that_is_not_a_group(monkeypatch,
                                                              reps):
    # T5 builds no group, but its lifts come from the class scan, which
    # checks them by closure: one corrupted forest preimage in the scan of
    # +P (the third read; the first is the mask's own switching, the
    # second the identity's lift) makes orbit_counts refuse
    from signedpetersen import groups
    forest_preimage, calls = groups.forest_preimage, []

    def corrupted(g, d):
        calls.append(d)
        x = forest_preimage(g, d)
        return x ^ 0b10 if len(calls) == 3 else x

    monkeypatch.setattr(groups, "forest_preimage", corrupted)
    caches = (groups._switching_class, groups._lifts)
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(GroupAxiomError, match="not closed"):
            orbit_counts(reps[0])
        assert len(calls) == 1 + AUT_ORDERS[0]
    finally:
        for cache in caches:
            cache.cache_clear()


def test_switching_group_accepts_exactly_the_subgroups(sw6):
    # every subset of SwAut of P1 (D4, 256 subsets): closure under greedy
    # generators accepts it exactly when the Cayley-table oracle does
    elements = sw6[1].elements
    accepted = 0
    for chosen in range(1 << len(elements)):
        subset = [e for i, e in enumerate(elements) if chosen >> i & 1]
        try:
            oracle_group(subset)
            want = True
        except GroupAxiomError:
            want = False
        try:
            SwitchingGroup(subset)
            got = True
        except GroupAxiomError:
            got = False
        assert got == want, subset
        accepted += got
    assert accepted == 10  # the subgroups of D4


def test_lift_permutation(pg, reps):
    g = pg[0]
    s32, s33 = reps[4], reps[5]
    # P3,2 projects onto the even permutations only
    present = absent = 0
    for base in itertools.permutations(range(1, 6)):
        e = lift_permutation(s32, induced_permutation(base))
        if e is None:
            absent += 1
        else:
            present += 1
    assert (present, absent) == (60, 60)
    # P3,3 projects onto everything; lifts match the neighborhood formula
    for base in itertools.permutations(range(1, 6)):
        xi = induced_permutation(base)
        e = lift_permutation(s33, xi)
        assert e is not None and e.perm == xi
        if base[4] == 5:
            assert e.switch_mask == 0
        else:
            j = base.index(5) + 1
            v = PETERSEN_PAIRS.index((j, 5))
            x = sum(1 << u for u in closed_neighborhood(g, v))
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

def decompose(reps, subgroup, x):
    """Write x (exact) as sign * representative * tau with tau in the
    subgroup: (sign, representative index, tau)."""
    k = rep_for_mask(reps, sp_canonical(x).switch_mask)
    t = sp_multiply(sp_inverse(reps[k]), x)
    if t.switch_mask == 0:
        sign = 1
    elif t.switch_mask == (1 << len(x.perm)) - 1:
        sign, t = -1, SwitchingPermutation(0, t.perm)
    else:
        raise CosetError("element not in representative * subgroup")
    if t not in subgroup.elements:
        raise CosetError("residual permutation outside the subgroup")
    return sign, k, t


def test_coset_systems(aut6, sw6):
    sizes = (1, 1, 2, 1, 10, 5)
    for i, (a, w) in enumerate(zip(aut6, sw6)):
        reps, closed = coset_system(w, a)
        assert len(reps) == sizes[i], CLASS_NAMES[i]
        assert closed
        # distinct canonical switching classes
        canon = [sp_canonical(r).switch_mask for r in reps]
        assert len(canon) == len(set(canon))
        # disjoint union of left cosets covers the group
        seen = set()
        for r in reps:
            for t in a.elements:
                seen.add(sp_canonical(sp_multiply(r, t)))
        assert seen == set(w.elements)
        # decompose round trip over the whole group
        for e in w.elements:
            sign, k, tau = decompose(reps, a, e)
            back = sp_multiply(reps[k], tau)
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
    reps, _ = coset_system(w32, a32)
    with pytest.raises(CosetError):
        rep_for_mask(reps, 0x155)


def test_subgroup_test_compares_whole_pairs(reps):
    # switching vertex 0 keeps the switching class, so every permutation
    # of Aut(s) lifts into SwAut of the switched signature; but there a
    # permutation that moves vertex 0 lifts with a nonempty switching set,
    # so Aut(s), whose lifts switch nothing, is not a subgroup of it
    for i, s in enumerate(reps):
        aut, w = aut_signed(s), swaut(switch(s, 0b1))
        assert all(e.perm in w.by_perm for e in aut.elements), CLASS_NAMES[i]
        assert not aut.is_subgroup(w), CLASS_NAMES[i]
        with pytest.raises(CosetError, match="not a subgroup"):
            coset_system(w, aut)


def test_general_product_all_pairs(aut6, sw6):
    for a, w in ((aut6[4], sw6[4]), (aut6[5], sw6[5])):
        system = coset_system(w, a)
        n = len(system[0])
        for i in range(n):
            for alpha in a.elements:
                for j in range(n):
                    for beta in a.elements:
                        # general_product raises if the structured result
                        # disagrees with direct multiplication
                        sign, k, nu, ab = general_product(
                            system, a, (i, alpha), (j, beta))
                        assert sign in (1, -1)
                        assert 0 <= k < n
                        assert nu in a.elements and ab in a.elements


def test_no_order10_complement_in_swaut_p32(aut6, sw6):
    """Exhaustive search: no order-10 subgroup meets the signature's
    automorphism group trivially, so no representative system of SwAut of
    the 3-negative-edge matching signature forms a subgroup."""
    w = oracle_group(sw6[4].elements)
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
