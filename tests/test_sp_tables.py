"""Multiplication tables of the two large switching automorphism groups,
checked cell by cell against direct products of explicitly constructed
elements."""

import itertools

from signedpetersen.expected import (P32_CELLS, P32_CORRECTED_CELLS,
                                     P32_PUBLISHED_VARIANTS, P32_STABILIZER,
                                     P32_U_PERM, P32_W_PERM, P32_W_SET,
                                     P32_Z_SET, U_KEYS, W_KEYS)
from signedpetersen.graphs import petersen
from signedpetersen.groups import (SwitchingPermutation, aut_signed,
                                   induced_permutation, parse_cycles,
                                   sp_act, sp_conjugate, sp_from_set,
                                   sp_identity, sp_multiply, sp_negate)


def build_p32_reps():
    """The ten coset representatives: identity, the three conjugates of the
    2-switch element u, and the six conjugates of the 4-switch element w."""
    g, lab = petersen()

    def vset(pairs):
        return [lab.vertex(int(p[0]), int(p[1])) for p in pairs]

    u = sp_from_set(vset(P32_W_SET), induced_permutation(lab, parse_cycles(P32_U_PERM)))
    w = sp_from_set(vset(P32_Z_SET), induced_permutation(lab, parse_cycles(P32_W_PERM)))
    stab = {c: induced_permutation(lab, parse_cycles(c)) for c in P32_STABILIZER}

    reps = {"e": sp_identity(10), "u": u, "w": w}
    for c in P32_STABILIZER[1:]:
        reps[f"u^{c}"] = sp_conjugate(u, stab[c])
        reps[f"w^{c}"] = sp_conjugate(w, stab[c])
    return reps, stab


def p32_signature():
    g, lab = petersen()
    mask = 0
    for i, j, k, l in ((1, 4, 2, 5), (3, 4, 1, 5), (2, 4, 3, 5)):
        mask |= 1 << g.index_of(*sorted((lab.vertex(i, j), lab.vertex(k, l))))
    from signedpetersen.signed import SignedGraph
    return SignedGraph(g, mask)


def test_representatives_fix_the_signature():
    reps, _ = build_p32_reps()
    s = p32_signature()
    # thirteen names, ten distinct elements (u-conjugate aliases repeat)
    assert len(set(reps.values())) == 10
    for r in reps.values():
        assert sp_act(r, s) == s


def test_u_conjugate_aliases():
    """Conjugating u by the three involutions in the stabilizer repeats the
    three u-representatives rather than producing new ones."""
    reps, stab = build_p32_reps()
    u = reps["u"]
    assert sp_conjugate(u, stab["(12)(45)"]) == u
    assert sp_conjugate(u, stab["(13)(45)"]) == reps["u^(123)"]
    assert sp_conjugate(u, stab["(23)(45)"]) == reps["u^(321)"]


def test_all_81_product_cells():
    reps, stab = build_p32_reps()
    for (rk, ck), (sign, wkey, nu) in P32_CELLS.items():
        prod = sp_multiply(reps[rk], reps[ck])
        target = sp_multiply(reps[wkey], SwitchingPermutation(0, stab[nu]))
        if sign < 0:
            target = sp_negate(target)
        assert prod == target, (rk, ck)


def test_published_variant_cells_are_inconsistent():
    """Twelve table cells circulate in a variant form that contradicts the
    group's own multiplication; the embedded table stores the recomputed
    values and keeps the variants for reference."""
    reps, stab = build_p32_reps()
    assert set(P32_PUBLISHED_VARIANTS) == set(P32_CORRECTED_CELLS)
    for key, variant in P32_PUBLISHED_VARIANTS.items():
        assert variant != P32_CELLS[key]
        sign, wkey, nu = variant
        rk, ck = key
        target = sp_multiply(reps[wkey], SwitchingPermutation(0, stab[nu]))
        if sign < 0:
            target = sp_negate(target)
        assert sp_multiply(reps[rk], reps[ck]) != target, key


def test_worked_products():
    reps, stab = build_p32_reps()
    w = reps["w"]
    # w * w = w^(23)(45) with trivial residue
    assert sp_multiply(w, w) == reps["w^(23)(45)"]
    # w * w^(321) = -u^(321) (13)(45)
    lhs = sp_multiply(w, reps["w^(321)"])
    rhs = sp_negate(sp_multiply(reps["u^(321)"],
                                SwitchingPermutation(0, stab["(13)(45)"])))
    assert lhs == rhs
    # w^(321) * w^(123) = -u^(123) (23)(45)
    lhs = sp_multiply(reps["w^(321)"], reps["w^(123)"])
    rhs = sp_negate(sp_multiply(reps["u^(123)"],
                                SwitchingPermutation(0, stab["(23)(45)"])))
    assert lhs == rhs
    # conjugation distributes over products (the identity behind deriving
    # transformed rows from the w row)
    conj = stab["(321)"]
    assert sp_conjugate(sp_multiply(w, reps["w^(123)"]), conj) == \
        sp_multiply(sp_conjugate(w, conj), sp_conjugate(reps["w^(123)"], conj))


def test_p33_multiplication_rules(reps):
    """The five-coset group multiplies by closed-form rules; check every
    instance against direct products."""
    g, lab = petersen()
    s33 = reps[5]
    aut = aut_signed(s33)

    def rep(i):
        if i == 0:
            return sp_identity(10)
        v = lab.vertex(i, 5)
        return sp_from_set(g.closed_neighborhood(v),
                           induced_permutation(lab, parse_cycles(f"({i}5)")))

    r = {i: rep(i) for i in range(5)}
    base_of = {}
    for p in itertools.permutations(range(1, 6)):
        base_of[induced_permutation(lab, p)] = p

    switch_of_v = {i: sp_from_set(g.closed_neighborhood(lab.vertex(i, 5)),
                                  tuple(range(10))).switch_mask
                   for i in range(1, 5)}

    for i in range(5):
        for a in aut.elements:
            ab_base = base_of[a.perm]
            ainv = tuple(ab_base.index(x + 1) + 1 for x in range(5))
            for j in range(5):
                for b in aut.elements:
                    lhs = sp_multiply(sp_multiply(r[i], a),
                                      sp_multiply(r[j], b))
                    ab = sp_multiply(a, b)
                    if i == 0 and j == 0:
                        rhs = ab
                    elif i == 0:
                        rhs = sp_multiply(r[ainv[j - 1]], ab)
                    elif j == 0:
                        rhs = sp_multiply(r[i], ab)
                    elif j == ab_base[i - 1]:
                        rhs = ab
                    else:
                        jp = ainv[j - 1]
                        tri = induced_permutation(
                            lab, parse_cycles(f"({i}{jp}5)"))
                        rhs = sp_negate(sp_multiply(
                            SwitchingPermutation(switch_of_v[jp], tri), ab))
                    assert lhs == rhs, (i, base_of[a.perm], j, base_of[b.perm])
