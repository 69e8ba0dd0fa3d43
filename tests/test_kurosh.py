import hashlib
import random
from fractions import Fraction

from freedecomp import (
    build_core,
    canonicalize,
    complete_graph,
    cyclic,
    format_word,
    invert,
    kurosh_decompose,
    lambda_components,
    make_system,
    membership,
    multiply,
)
from freedecomp.covgraph import CoreGraph
from freedecomp.freeprod import EMPTY, parse_word

from conftest import Z2, s5z2_point_stabilizer, z2z3_point_stabilizer
from naive_enum import (
    Fingerprint,
    brute_force_double_cosets,
    decomposition_fingerprint,
    object_lambda_components,
    rank_formula,
    spanning_data,
    spanning_kurosh_decompose,
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


def test_scaling_family_generators_at_index_1200():
    # the fixture must keep the first occurrence of each Schreier generator,
    # in order, as deduplicating by a list lookup does; the digests pin that
    # list
    for kwargs, count, digest in (
        ({}, 438, "67a39e51ab61101cee70d4e552b9d188ba2183ac0b3664aa05b3b8ba92421f97"),
        ({"seed": 2, "fixed": (2, 3)}, 436, "fe68a344ec499df3344869aceba51149b0ec6304eec17b4b5bfca350af74aaba"),
    ):
        gens = z2z3_point_stabilizer(1200, **kwargs).gens
        assert len(gens) == len(set(gens)) == count
        assert hashlib.sha256("|".join(map(format_word, gens)).encode()).hexdigest() == digest


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


def renumbered(graph: CoreGraph, rnd: random.Random) -> CoreGraph:
    """The graph with its vertices other than the base renumbered at
    random and each vertex's entries in random order."""
    perm = [0] + rnd.sample(range(1, graph.vertex_count), graph.vertex_count - 1)
    action = [{}] * graph.vertex_count
    for v, entries in enumerate(graph.action):
        items = [(key, perm[w]) for key, w in entries.items()]
        rnd.shuffle(items)
        action[perm[v]] = dict(items)
    return CoreGraph(vertex_count=graph.vertex_count, action=tuple(action), complete=graph.complete)


def oracle_systems(corpus):
    """(system, graph) pairs for the oracle tests: the test corpus's
    complete graphs and cores, also renumbered, the scaling family, and
    S5*Z2 systems."""
    rnd = random.Random(7)
    for inst in corpus:
        core = build_core(inst.system, inst.gens)
        for graph in (inst.graph, core, renumbered(inst.graph, rnd), renumbered(core, rnd)):
            yield inst.system, graph
    for n in (12, 60, 300, 1200):
        ps = z2z3_point_stabilizer(n)
        yield ps.system, complete_graph(ps.system, build_core(ps.system, ps.gens), n)
    for seed in range(1, 7):
        system, gens = s5z2_point_stabilizer(seed)
        core = build_core(system, gens)
        yield system, core
        yield system, complete_graph(system, core, 5)


def test_kurosh_matches_spanning_oracle(corpus):
    # the forest read-off gives the pieces and free basis, in order, of the
    # neighbour-list global tree with its canonical-edge set
    for system, graph in oracle_systems(corpus):
        assert kurosh_decompose(system, graph) == spanning_kurosh_decompose(system, graph)


def test_kurosh_climbs_to_a_tree_parent_by_its_tree_label():
    # Z4's component {1, 2} has stabilizer {0, 2}, so both 1 and 3 lead
    # from 2 back to its tree parent 1 = 2*3; the walk enters the component
    # at 2 and must leave it by the tree edge's label 3
    system = make_system([cyclic(4), Z2], [cyclic(4), Z2], [[0, 1, 2, 3], [0, 1]])
    action = (
        {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 1): 2},
        {(0, 1): 2, (0, 2): 1, (0, 3): 2, (1, 1): 1},
        {(0, 1): 1, (0, 2): 2, (0, 3): 1, (1, 1): 0},
    )
    graph = CoreGraph(vertex_count=3, action=action, complete=True)
    kd = kurosh_decompose(system, graph)
    assert kd == spanning_kurosh_decompose(system, graph)
    assert [p.rep for p in kd.pieces] == [EMPTY, w(system, "0:1 1:1"), w(system, "0:1 1:1")]


def test_lambda_components_match_object_walk(corpus):
    # every field, including the tree edges' order and the label of each vertex
    for system, graph in oracle_systems(corpus):
        for lam in range(system.num_factors):
            assert lambda_components(system, graph, lam) == object_lambda_components(system, graph, lam)


def test_s5z2_systems_have_the_constructed_index():
    for seed in range(1, 7):
        system, gens = s5z2_point_stabilizer(seed)
        graph = complete_graph(system, build_core(system, gens), 5)
        assert graph.vertex_count == 5
        kd = kurosh_decompose(system, graph)
        # S5's point stabiliser S4 and the involution's fixed point; chi(H) = 5 chi(G)
        assert sorted((p.lam, len(p.stabilizer)) for p in kd.pieces) == [(0, 24), (1, 2)]
        chi_h = sum(Fraction(1, len(p.stabilizer)) - 1 for p in kd.pieces) + 1 - kd.free_rank
        assert chi_h == 5 * (Fraction(1, 120) + Fraction(1, 2) - 1)
