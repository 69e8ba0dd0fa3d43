from fractions import Fraction

from freedecomp import (
    build_core,
    canonicalize,
    complete_graph,
    invert,
    kurosh_decompose,
    lambda_components,
    membership,
    multiply,
    spanning_data,
)
from freedecomp.freeprod import EMPTY, parse_word

from conftest import z2z3_point_stabilizer
from naive_enum import (
    Fingerprint,
    brute_force_double_cosets,
    decomposition_fingerprint,
    rank_formula,
    subgroup_conjugacy_key,
)


def w(sys, text):
    return parse_word(sys, "G", text)


def complete_canon(sys, gens, bound=200):
    return canonicalize(complete_graph(sys, build_core(sys, gens), bound))


def test_spanning_single_vertex(sys_b):
    g = build_core(sys_b, [w(sys_b, "0:1"), w(sys_b, "1:1")])
    data = spanning_data(sys_b, g)
    assert data.global_tree == ()
    assert data.transversal == (EMPTY,)


def test_spanning_sys_a(sys_a, sys_a_gens):
    g = complete_canon(sys_a, sys_a_gens)
    data = spanning_data(sys_a, g)
    assert data.global_tree == ((0, 1, 1, 1),)  # the connecting edge, labeled 1:1
    assert data.transversal == (EMPTY, ((1, 1),))


def test_spanning_sys_b(sys_b, sys_b_gens):
    g = complete_canon(sys_b, sys_b_gens)
    data = spanning_data(sys_b, g)
    assert data.transversal[0] == EMPTY
    assert set(data.transversal) == {EMPTY, ((1, 1),), ((1, 2),)}
    assert len(data.global_tree) == 2


def test_spanning_structure_properties(corpus):
    from freedecomp.covgraph import trace

    for inst in corpus[:30]:
        data = spanning_data(inst.system, inst.graph)
        for v, word in enumerate(data.transversal):
            assert trace(inst.graph, word, 0) == v
        for comp in data.components:
            assert len(comp.tree) == len(comp.vertices) - 1
            reached = {comp.root}
            for u, lam, g, v in comp.tree:
                assert u in reached
                reached.add(v)
            assert reached == set(comp.vertices)
        assert len(data.global_tree) == inst.graph.vertex_count - 1


def test_kurosh_whole_group(sys_b):
    g = build_core(sys_b, [w(sys_b, "0:1"), w(sys_b, "1:1")])
    kd = kurosh_decompose(sys_b, g)
    assert len(kd.pieces) == 2
    for piece, order in zip(kd.pieces, (2, 3)):
        assert piece.rep == EMPTY
        assert len(piece.stabilizer) == order
    assert kd.free_rank == 0


def test_kurosh_sys_a(sys_a, sys_a_gens):
    g = complete_canon(sys_a, sys_a_gens)
    kd = kurosh_decompose(sys_a, g)
    assert [(p.lam, p.rep) for p in kd.pieces] == [(0, EMPTY), (0, ((1, 1),))]
    assert kd.pieces[0].vertex_group_gens == (w(sys_a, "0:1"),)
    assert kd.pieces[1].vertex_group_gens == (w(sys_a, "1:1 0:1 1:1"),)
    assert kd.free_rank == 0 and kd.free_basis == ()


def test_kurosh_sys_b(sys_b, sys_b_gens):
    g = complete_canon(sys_b, sys_b_gens)
    kd = kurosh_decompose(sys_b, g)
    assert [(p.lam, p.rep) for p in kd.pieces] == [
        (0, EMPTY),
        (0, ((1, 2),)),
        (0, ((1, 1),)),
    ]
    groups = [p.vertex_group_gens for p in kd.pieces]
    assert groups[0] == (w(sys_b, "0:1"),)
    assert groups[1] == (w(sys_b, "1:1 0:1 1:2"),)
    assert groups[2] == (w(sys_b, "1:2 0:1 1:1"),)
    assert kd.free_rank == 0


def test_sys_b_euler_characteristic(sys_b, sys_b_gens):
    # index 3, three order-2 pieces, rank 0
    g = complete_canon(sys_b, sys_b_gens)
    kd = kurosh_decompose(sys_b, g)
    chi_g = Fraction(1, 2) + Fraction(1, 3) - 1
    chi_h = sum(Fraction(1, len(p.stabilizer)) for p in kd.pieces)
    chi_h += 1 - len(kd.pieces) - kd.free_rank
    assert chi_h == g.vertex_count * chi_g == Fraction(-1, 2)


def test_kurosh_at_index_1200():
    # two fixed points of a and three of b: pieces Z2, Z2, Z3, Z3, Z3, and
    # chi(H) = 1200 * chi(G) = -200 leaves free rank 198
    ps = z2z3_point_stabilizer(1200, fixed=(2, 3))
    g = complete_canon(ps.system, ps.gens, 10_000)
    kd = kurosh_decompose(ps.system, g)
    assert g.vertex_count == ps.index == 1200
    assert sorted((p.lam, len(p.stabilizer)) for p in kd.pieces) == list(ps.pieces)
    assert kd.free_rank == len(kd.free_basis) == ps.free_rank == 198
    chi_h = sum(Fraction(1, len(p.stabilizer)) - 1 for p in kd.pieces) + 1 - kd.free_rank
    assert chi_h == 1200 * (Fraction(1, 2) + Fraction(1, 3) - 1)


def test_free_rank_formula(corpus):
    for inst in corpus[:40]:
        kd = kurosh_decompose(inst.system, inst.graph)
        assert kd.free_rank == len(kd.free_basis) == rank_formula(inst.system, inst.graph)


def test_emitted_words_are_members(corpus):
    for inst in corpus[:40]:
        kd = kurosh_decompose(inst.system, inst.graph)
        for piece in kd.pieces:
            for word in piece.vertex_group_gens:
                assert membership(inst.system, inst.graph, word)
        for word in kd.free_basis:
            assert membership(inst.system, inst.graph, word)


def test_vertex_group_exhaustive(corpus):
    # conjugating a factor element by the representative lands in the
    # subgroup exactly for stabilizer elements
    for inst in corpus[:25]:
        sys = inst.system
        kd = kurosh_decompose(sys, inst.graph)
        for piece in kd.pieces:
            group = sys.factors_g[piece.lam]
            xinv = invert(sys, "G", piece.rep)
            for g in range(1, group.order):
                word = multiply(sys, "G", multiply(sys, "G", xinv, ((piece.lam, g),)), piece.rep)
                assert membership(sys, inst.graph, word) == (g in piece.stabilizer)


def test_double_coset_separation(corpus):
    from freedecomp.covgraph import trace

    for inst in corpus[:25]:
        sys = inst.system
        kd = kurosh_decompose(sys, inst.graph)
        by_lam = {}
        for piece in kd.pieces:
            by_lam.setdefault(piece.lam, []).append(piece)
        for lam, pieces in sorted(by_lam.items()):
            orbits = brute_force_double_cosets(sys, inst.graph, lam)
            vertex_orbit = {v: i for i, orbit in enumerate(orbits) for v in orbit}
            ids = [vertex_orbit[trace(inst.graph, invert(sys, "G", p.rep), 0)] for p in pieces]
            assert len(set(ids)) == len(ids)


def test_base_component_has_trivial_rep(corpus):
    for inst in corpus[:40]:
        sys = inst.system
        kd = kurosh_decompose(sys, inst.graph)
        for lam in range(sys.num_factors):
            group = sys.factors_g[lam]
            base_stab = any(
                inst.graph.action[0].get((lam, g)) == 0 for g in range(1, group.order)
            )
            lam_reps = [p.rep for p in kd.pieces if p.lam == lam]
            assert base_stab == (EMPTY in lam_reps)


def components_fingerprint(sys, graph):
    """The fingerprint read off the lam-components: one (factor, stabilizer
    class) pair per component with a nontrivial stabilizer, and the free
    rank (k - 1) n - C + 1 for k factors, index n and C components, the
    count the verifier's C7 compares with the free basis."""
    classes = []
    count = 0
    for lam in range(sys.num_factors):
        comps = lambda_components(sys, graph, lam)
        count += len(comps)
        classes.extend(
            (lam, subgroup_conjugacy_key(sys.factors_g[lam], comp.stabilizer))
            for comp in comps
            if len(comp.stabilizer) > 1
        )
    rank = (sys.num_factors - 1) * graph.vertex_count - count + 1
    return Fingerprint(piece_classes=tuple(sorted(classes)), free_rank=rank)


def test_invariants_examples(sys_a, sys_a_gens, sys_b, sys_b_gens):
    ga = complete_canon(sys_a, sys_a_gens)
    inv_a = decomposition_fingerprint(sys_a, ga)
    assert components_fingerprint(sys_a, ga) == inv_a
    assert len(inv_a.piece_classes) == 2
    assert inv_a.piece_classes[0] == inv_a.piece_classes[1]
    assert inv_a.free_rank == 0
    gb = complete_canon(sys_b, sys_b_gens)
    inv_b = decomposition_fingerprint(sys_b, gb)
    assert components_fingerprint(sys_b, gb) == inv_b
    assert len(inv_b.piece_classes) == 3
    assert len(set(inv_b.piece_classes)) == 1


def test_graph_fingerprint_matches_decomposition_oracle(corpus):
    # the fingerprint read off the components equals the one counted from
    # the pieces and Schreier basis of kurosh_decompose, and on the scaling
    # family also the structure its action fixes
    for inst in corpus:
        assert components_fingerprint(inst.system, inst.graph) == decomposition_fingerprint(inst.system, inst.graph)
    for n, seed in ((3, 1), (4, 2), (7, 1), (12, 3), (60, 1), (300, 2), (1200, 1)):
        ps = z2z3_point_stabilizer(n, seed)
        graph = complete_canon(ps.system, ps.gens, bound=n)
        inv = decomposition_fingerprint(ps.system, graph)
        assert components_fingerprint(ps.system, graph) == inv, (n, seed)
        orders = sorted((lam, len(key)) for lam, key in inv.piece_classes)
        assert tuple(orders) == ps.pieces and inv.free_rank == ps.free_rank, (n, seed)
