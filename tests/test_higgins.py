import re

import pytest

from freedecomp import (
    build_core,
    canonical_encoding,
    canonicalize,
    complete_graph,
    membership,
    subgroup_closure,
    theta_word,
)
from freedecomp import higgins
from freedecomp.higgins import TreeBoundExceeded, build_theta_tree, higgins_decompose
from freedecomp.covgraph import CoreGraph, trace
from freedecomp.freeprod import EMPTY, invert, make_system, multiply, parse_word

from conftest import Z2, dihedral_point_stabilizer, s5z2_point_stabilizer, six_shape_family, z2z3_point_stabilizer
from naive_enum import all_edge_higgins_decompose, bounded_theta_tree


def w(sys, text):
    return parse_word(sys, "G", text)


def complete_canon(sys, gens, bound=200):
    return canonicalize(complete_graph(sys, build_core(sys, gens), bound))


def test_whole_group_identity_theta(sys_b):
    gens = [w(sys_b, "0:1"), w(sys_b, "1:1")]
    g = complete_canon(sys_b, gens)
    tree = build_theta_tree(sys_b, g)
    assert tree.transversal == (EMPTY,)
    hd = higgins_decompose(sys_b, g, tree)
    # one canonical generator per undirected loop edge
    assert hd.factors[0].gens == (w(sys_b, "0:1"),)
    assert hd.factors[1].gens == (w(sys_b, "1:1"),)
    assert subgroup_closure(sys_b.factors_g[1], {1}) == frozenset({0, 1, 2})


def test_sys_a_tree_uses_kernel_edge(sys_a, sys_a_gens):
    g = complete_canon(sys_a, sys_a_gens)
    tree = build_theta_tree(sys_a, g)
    assert tree.transversal == (EMPTY, ((1, 1),))
    assert theta_word(sys_a, tree.transversal[1]) == EMPTY


def test_sys_a_decomposition(sys_a, sys_a_gens):
    g = complete_canon(sys_a, sys_a_gens)
    hd = higgins_decompose(sys_a, g, build_theta_tree(sys_a, g))
    assert set(hd.factors[0].gens) == {w(sys_a, "0:1"), w(sys_a, "1:1 0:1 1:1")}
    assert hd.factors[1].gens == ()


def test_phase2_transversal(sys_phase2, sys_phase2_gens):
    # index 3; vertex 2 is only reachable image-trivially through a mixed word
    g = complete_canon(sys_phase2, sys_phase2_gens)
    tree = build_theta_tree(sys_phase2, g)
    assert tree.transversal[0] == EMPTY
    assert tree.transversal[1] == w(sys_phase2, "1:1")
    assert tree.transversal[2] == w(sys_phase2, "0:1 1:1 0:1")
    for word in tree.transversal:
        assert theta_word(sys_phase2, word) == EMPTY


def test_phase2_decomposition(sys_phase2, sys_phase2_gens):
    g = complete_canon(sys_phase2, sys_phase2_gens)
    hd = higgins_decompose(sys_phase2, g, build_theta_tree(sys_phase2, g))
    assert hd.factors[0].gens == (w(sys_phase2, "0:1"),)
    assert hd.factors[1].gens == (w(sys_phase2, "0:1 1:1 0:1 1:1 0:1 1:1 0:1"),)


def test_tree_bound_exceeded_when_image_proper(monkeypatch):
    # H = <a, bab> misses b's image in B = Z2 * Z2, which is infinite, so
    # only the state budget stops the search for the coset Hb
    sys = make_system([Z2, Z2], [Z2, Z2], [[0, 1], [0, 1]])
    gens = [w(sys, "0:1"), w(sys, "1:1 0:1 1:1")]
    g = complete_canon(sys, gens)
    monkeypatch.setattr(higgins, "_STATE_BUDGET", 200)
    with pytest.raises(TreeBoundExceeded, match=r"word: 1, first 1 \(state budget 200 reached\)"):
        build_theta_tree(sys, g)


def test_state_budget_is_named_when_it_stops_the_search(sys_phase2, sys_phase2_gens, monkeypatch):
    # index 3 needs the state search; a budget of one state stops it at once
    g = complete_canon(sys_phase2, sys_phase2_gens)
    monkeypatch.setattr(higgins, "_STATE_BUDGET", 1)
    with pytest.raises(TreeBoundExceeded, match="state budget 1 reached"):
        build_theta_tree(sys_phase2, g)


def test_search_runs_on_a_core(sys_a):
    # H = <ababa> has infinite index; its core leaves b undefined at the
    # base, so the state search skips that edge and still finds words
    core = build_core(sys_a, [w(sys_a, "0:1 1:1 0:1 1:1 0:1")])
    assert not core.complete and (1, 1) not in core.action[0]
    tree = build_theta_tree(sys_a, core)
    assert tree.transversal == ((), w(sys_a, "0:1 1:1 0:1 1:1"), w(sys_a, "0:1 1:1 0:1"))
    for v, word in enumerate(tree.transversal):
        assert theta_word(sys_a, word) == EMPTY and trace(core, word) == v


def test_transversal_words_are_image_trivial_and_readable(corpus):
    from freedecomp.conjecture import check_h_theta_surjective, ThetaNotSurjectiveOntoB
    from freedecomp.covgraph import trace

    for inst in corpus[:30]:
        try:
            check_h_theta_surjective(inst.system, inst.gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        tree = build_theta_tree(inst.system, inst.graph)
        for v, word in enumerate(tree.transversal):
            assert theta_word(inst.system, word) == EMPTY
            assert trace(inst.graph, word, 0) == v


def test_factor_images_generate_targets(corpus):
    from freedecomp.conjecture import check_h_theta_surjective, ThetaNotSurjectiveOntoB

    for inst in corpus[:30]:
        sys = inst.system
        try:
            check_h_theta_surjective(sys, inst.gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        hd = higgins_decompose(sys, inst.graph, build_theta_tree(sys, inst.graph))
        for fd in hd.factors:
            group_b = sys.factors_b[fd.lam]
            elems = set()
            for word in fd.gens:
                img = theta_word(sys, word)
                assert all(l == fd.lam for l, _ in img)
                e = 0
                for _, x in img:
                    e = group_b.mul[e][x]
                elems.add(e)
            assert subgroup_closure(group_b, elems) == frozenset(range(group_b.order))


def test_inclusion_of_conjugated_stabilizers(corpus):
    # every element of the intersection at a component representative lies in
    # the subgroup generated by that factor's Schreier elements
    from freedecomp.conjecture import check_h_theta_surjective, ThetaNotSurjectiveOntoB
    from freedecomp import lambda_components

    for inst in corpus[:20]:
        sys = inst.system
        try:
            check_h_theta_surjective(sys, inst.gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        tree = build_theta_tree(sys, inst.graph)
        hd = higgins_decompose(sys, inst.graph, tree)
        for fd in hd.factors:
            if not fd.gens:
                continue
            core = build_core(sys, fd.gens)
            for comp in lambda_components(sys, inst.graph, fd.lam):
                p_root = tree.transversal[comp.root]
                for s in sorted(comp.stabilizer):
                    if s == 0:
                        continue
                    word = multiply(
                        sys,
                        "G",
                        multiply(sys, "G", p_root, ((fd.lam, s),)),
                        invert(sys, "G", p_root),
                    )
                    assert membership(sys, core, word)


def test_tree_determinism(sys_phase2, sys_phase2_gens):
    g = complete_canon(sys_phase2, sys_phase2_gens)
    t1 = build_theta_tree(sys_phase2, g, order_seed=0)
    t2 = build_theta_tree(sys_phase2, g, order_seed=0)
    assert t1 == t2
    t3 = build_theta_tree(sys_phase2, g, order_seed=3)
    for word in t3.transversal:
        assert theta_word(sys_phase2, word) == EMPTY


def split_oracle_cases(corpus):
    """(system, graph, tree) triples: the test corpus's surjective systems
    with the transversals of order_seed 0-2, the scaling family with a
    fixed point of Z2, and S5*Z2 point stabilisers."""
    from freedecomp.conjecture import check_h_theta_surjective, ThetaNotSurjectiveOntoB

    for inst in corpus:
        try:
            check_h_theta_surjective(inst.system, inst.gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        for order_seed in range(3):
            try:
                yield inst.system, inst.graph, build_theta_tree(inst.system, inst.graph, order_seed=order_seed)
            except TreeBoundExceeded:
                continue
    for n in (12, 60, 300):
        # a fixed point of Z2 puts a conjugate of its generator, of image
        # 1 in B = Z2, into H, so H maps onto B
        ps = z2z3_point_stabilizer(n, fixed=(2, 0))
        graph = complete_graph(ps.system, build_core(ps.system, ps.gens), n)
        yield ps.system, graph, build_theta_tree(ps.system, graph)
    for seed in range(1, 7):
        system, gens = s5z2_point_stabilizer(seed)
        graph = complete_graph(system, build_core(system, gens), 5)
        yield system, graph, build_theta_tree(system, graph)


def test_forest_split_matches_all_edge_oracle(corpus):
    # the tree edges and root loops give some of the all-edge Schreier words,
    # and those generate the same H_lam, so its core is the same graph
    cases = fewer = 0
    for system, graph, tree in split_oracle_cases(corpus):
        cases += 1
        forest = higgins_decompose(system, graph, tree)
        oracle = all_edge_higgins_decompose(system, graph, tree)
        for fd, od in zip(forest.factors, oracle.factors, strict=True):
            assert fd.lam == od.lam
            assert set(fd.gens) <= set(od.gens)
            assert bool(fd.gens) == bool(od.gens)
            if fd.gens:
                assert canonical_encoding(build_core(system, fd.gens)) == canonical_encoding(build_core(system, od.gens))
            fewer += len(fd.gens) < len(od.gens)
    assert cases > 300 and fewer > 0


def depth_oracle_cases(corpus, growth):
    """(system, graph, order_seed) triples: the test corpus's surjective
    systems with order_seed 0-2, the scaling family with a fixed point of
    Z2, S5*Z2 point stabilisers, the dihedral stabilisers whose farthest
    coset the depth-capped search still reaches, and the growth family."""
    from freedecomp.conjecture import check_h_theta_surjective, ThetaNotSurjectiveOntoB

    for inst in corpus:
        try:
            check_h_theta_surjective(inst.system, inst.gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        for order_seed in range(3):
            yield inst.system, inst.graph, order_seed
    for n in (12, 60, 300, 1200):
        ps = z2z3_point_stabilizer(n, fixed=(2, 0))
        yield ps.system, complete_graph(ps.system, build_core(ps.system, ps.gens), n), 0
    for seed in range(1, 7):
        system, gens = s5z2_point_stabilizer(seed)
        yield system, complete_graph(system, build_core(system, gens), 5), 0
    for n in range(2, 67):
        system, gens = dihedral_point_stabilizer(n)
        yield system, complete_graph(system, build_core(system, gens), n), 0
    for _, system, gens in growth:
        yield system, build_core(system, gens), 0  # finite index: the core is complete


def test_search_matches_depth_capped_oracle(corpus, growth, monkeypatch):
    # breadth-first arrivals give the same words in the same order, so
    # wherever the depth-capped search finds a transversal, stopping once
    # every coset has a word finds the same one.  The oracle searches on
    # until its state budget; where B grows exponentially, 20 000 states
    # keep it quick and still reach every coset here.
    found = 0
    for system, graph, order_seed in depth_oracle_cases(corpus, growth):
        with monkeypatch.context() as patched:
            patched.setattr(higgins, "_STATE_BUDGET", 20_000)
            try:
                expected = bounded_theta_tree(system, graph, order_seed=order_seed)
            except TreeBoundExceeded:
                continue
        assert build_theta_tree(system, graph, order_seed=order_seed) == expected
        found += 1
    assert found > 500 + len(growth)


def test_search_is_complete_once_h_maps_onto_b(corpus, partial_family, growth):
    # for a coset Hu and h in H with theta(h) = theta(u)^-1, the normal
    # form of h u traces to Hu in the folded, saturated core with trivial
    # image, so every edge order gives every vertex a word
    from freedecomp.conjecture import check_h_theta_surjective, ThetaNotSurjectiveOntoB

    cases = [(inst.system, inst.gens) for inst in corpus]
    cases += [(system, gens) for _, system, gens in six_shape_family(seed=31, per_shape=4, max_index=16)]
    cases += [(ps.system, ps.gens) for ps in partial_family]
    cases += [(system, gens) for _, system, gens in growth]
    searched = 0
    for system, gens in cases:
        try:
            check_h_theta_surjective(system, gens)
        except ThetaNotSurjectiveOntoB:
            continue
        core = build_core(system, gens)
        for order_seed in range(8):
            tree = build_theta_tree(system, core, order_seed=order_seed)
            for v, word in enumerate(tree.transversal):
                assert theta_word(system, word) == EMPTY and trace(core, word) == v
        searched += 1
    assert searched > 300


def test_bound_message_names_a_count_and_the_first_vertex(monkeypatch):
    # the double cover of an index-60 coset graph that records the parity
    # of a, the one letter with nontrivial image in B = Z2: a vertex of the
    # odd sheet has no image-trivial word, and the finitely many states
    # run out
    ps = z2z3_point_stabilizer(60, fixed=(2, 0))
    base = complete_graph(ps.system, build_core(ps.system, ps.gens), 60)
    n = base.vertex_count
    rows = tuple(
        {(lam, g): u + n * ((v >= n) ^ (lam == 0)) for (lam, g), u in base.action[v % n].items()}
        for v in range(2 * n)
    )
    cover = CoreGraph(vertex_count=2 * n, action=rows, complete=True)
    monkeypatch.setattr(higgins, "_STATE_BUDGET", 4 * n + 1)  # more than the states, 2 per vertex
    with pytest.raises(TreeBoundExceeded) as dry:
        build_theta_tree(ps.system, cover)
    assert str(dry.value) == "vertices without an image-trivial word: 60, first 60 (states ran out: H does not map onto B)"
    monkeypatch.setattr(higgins, "_STATE_BUDGET", 50)
    with pytest.raises(TreeBoundExceeded) as stopped:
        build_theta_tree(ps.system, cover)
    count, first = re.fullmatch(
        r"vertices without an image-trivial word: (\d+), first (\d+) \(state budget 50 reached\)", str(stopped.value)
    ).groups()
    assert n < int(count) < 2 * n and 0 < int(first) < n


def test_dihedral_search_reaches_past_the_old_depth_cap():
    # the farthest coset of the index-n dihedral stabiliser is n - 2 edges
    # from the covered vertices, beyond a depth cap of 64 from n = 67 on
    for n in (66, 67, 100, 140):
        system, gens = dihedral_point_stabilizer(n)
        graph = complete_graph(system, build_core(system, gens), n)
        if n == 66:
            bounded_theta_tree(system, graph)
        else:
            with pytest.raises(TreeBoundExceeded):
                bounded_theta_tree(system, graph)
        tree = build_theta_tree(system, graph)
        for v, word in enumerate(tree.transversal):
            assert theta_word(system, word) == EMPTY
            assert trace(graph, word, 0) == v
