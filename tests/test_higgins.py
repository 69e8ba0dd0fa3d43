import pytest

from freedecomp import (
    GraphNotComplete,
    TreeBoundExceeded,
    build_core,
    build_theta_tree,
    canonical_encoding,
    canonicalize,
    complete_graph,
    higgins_decompose,
    membership,
    subgroup_closure,
    theta_word,
)
from freedecomp import higgins
from freedecomp.covgraph import trace
from freedecomp.freeprod import EMPTY, invert, make_system, multiply, parse_word

from conftest import Z2, dihedral_point_stabilizer, s5z2_point_stabilizer, z2z3_point_stabilizer
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


def test_tree_bound_exceeded_when_image_proper():
    sys = make_system([Z2, Z2], [Z2, Z2], [[0, 1], [0, 1]])
    gens = [w(sys, "0:1"), w(sys, "1:1 0:1 1:1")]
    g = complete_canon(sys, gens)
    with pytest.raises(TreeBoundExceeded):
        build_theta_tree(sys, g)


def test_state_budget_is_named_when_it_stops_the_search(sys_phase2, sys_phase2_gens, monkeypatch):
    # index 3 needs the state search; a budget of one state stops it at once
    g = complete_canon(sys_phase2, sys_phase2_gens)
    with pytest.raises(TreeBoundExceeded) as exhausted:
        build_theta_tree(sys_phase2, g, word_bound=0)
    assert "state budget" not in str(exhausted.value)  # the search ran dry first
    monkeypatch.setattr(higgins, "_STATE_BUDGET", 1)
    with pytest.raises(TreeBoundExceeded, match="state budget 1 reached"):
        build_theta_tree(sys_phase2, g)


def test_requires_complete_graph(sys_a):
    core = build_core(sys_a, [w(sys_a, "0:1")])
    with pytest.raises(GraphNotComplete):
        build_theta_tree(sys_a, core)


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


def test_tree_word_bound_zero(sys_phase2, sys_phase2_gens):
    # with no image budget, only kernel-edge paths remain; vertex 2 of the
    # index-3 example then has no image-trivial word
    g = complete_canon(sys_phase2, sys_phase2_gens)
    with pytest.raises(TreeBoundExceeded):
        build_theta_tree(sys_phase2, g, word_bound=0)


def test_retry_loop_raises_after_exhaustion(sys_phase2, sys_phase2_gens, monkeypatch):
    from freedecomp.conjecture import Bounds, conjecture_decompose

    monkeypatch.setattr(Bounds, "tree_word_bound", 0)
    with pytest.raises(TreeBoundExceeded, match="all 8 transversal retries rejected"):
        conjecture_decompose(sys_phase2, sys_phase2_gens, Bounds(max_cosets=100))


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


def depth_oracle_cases(corpus):
    """(system, graph, order_seed) triples: the test corpus's surjective
    systems with order_seed 0-2, the scaling family with a fixed point of
    Z2, S5*Z2 point stabilisers, and the dihedral stabilisers whose
    farthest coset the depth-capped search still reaches."""
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


def test_search_matches_depth_capped_oracle(corpus):
    # breadth-first arrivals give the same words in the same order, so
    # wherever the depth-capped search finds a transversal, stopping once
    # every coset has a word finds the same one
    found = 0
    for system, graph, order_seed in depth_oracle_cases(corpus):
        try:
            expected = bounded_theta_tree(system, graph, order_seed=order_seed)
        except TreeBoundExceeded:
            continue
        assert build_theta_tree(system, graph, order_seed=order_seed) == expected
        found += 1
    assert found > 500


def test_stage3_pairing_matches_depth_capped_oracle(corpus, monkeypatch):
    # a small state budget stops stage 2 with cosets left, so stage 3 pairs
    # them with base loops; ``invert`` is called only by that pairing
    paired = 0
    real_invert = higgins.invert

    def counting_invert(*args):
        nonlocal paired
        paired += 1
        return real_invert(*args)

    monkeypatch.setattr(higgins, "invert", counting_invert)
    cases = list(depth_oracle_cases(corpus))
    for budget in (5, 20):
        monkeypatch.setattr(higgins, "_STATE_BUDGET", budget)
        for system, graph, order_seed in cases:
            try:
                expected = bounded_theta_tree(system, graph, order_seed=order_seed)
            except TreeBoundExceeded:
                with pytest.raises(TreeBoundExceeded):
                    build_theta_tree(system, graph, order_seed=order_seed)
                continue
            tree = build_theta_tree(system, graph, order_seed=order_seed)
            assert tree == expected
            for v, word in enumerate(tree.transversal):
                assert theta_word(system, word) == EMPTY
                assert trace(graph, word, 0) == v
    assert paired > 0


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
