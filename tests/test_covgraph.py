import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from freedecomp import (
    GraphNotComplete,
    IndexBoundExceeded,
    build_core,
    canonical_encoding,
    canonicalize,
    complete_graph,
    lambda_components,
    membership,
    to_dot,
)
from freedecomp import covgraph
from freedecomp.covgraph import trace
from freedecomp.fingroup import sym
from freedecomp.freeprod import EMPTY, format_word, invert, make_system, multiply, normalize, parse_word

from conftest import S3, Z2, Z4, enumerate_ball, z2z3_point_stabilizer


def w(sys, text):
    return parse_word(sys, "G", text)


def test_empty_gens_single_vertex(sys_a):
    g = build_core(sys_a, [])
    assert g.vertex_count == 1 and g.action[0] == {}
    assert not g.complete


def test_sys_a_core_shape(sys_a, sys_a_gens):
    g = build_core(sys_a, sys_a_gens)
    assert g.vertex_count == 2
    assert g.action[0][(0, 1)] == 0 and g.action[1][(0, 1)] == 1  # loops at both cosets
    assert g.action[0][(1, 1)] == 1 and g.action[1][(1, 1)] == 0
    assert g.complete


def test_whole_group_core(sys_b):
    gens = [w(sys_b, "0:1"), w(sys_b, "1:1")]
    g = build_core(sys_b, gens)
    assert g.vertex_count == 1
    assert set(g.action[0]) == {(0, 1), (1, 1), (1, 2)}
    assert g.complete
    for lam, order in ((0, 2), (1, 3)):
        comps = lambda_components(sys_b, g, lam)
        assert len(comps) == 1
        assert comps[0].stabilizer == frozenset(range(order))


def test_complete_sys_b(sys_b, sys_b_gens):
    g = complete_graph(sys_b, build_core(sys_b, sys_b_gens), 100)
    assert g.vertex_count == 3


def test_complete_already_complete(sys_a, sys_a_gens):
    core = build_core(sys_a, sys_a_gens)
    g = complete_graph(sys_a, core, 100)
    assert g.vertex_count == 2


def test_membership_examples(sys_a, sys_a_gens):
    g = complete_graph(sys_a, build_core(sys_a, sys_a_gens), 100)
    assert membership(sys_a, g, EMPTY)
    assert membership(sys_a, g, w(sys_a, "1:1 0:1 1:1"))
    assert not membership(sys_a, g, w(sys_a, "1:1"))


def test_membership_whole_group(sys_b):
    g = build_core(sys_b, [w(sys_b, "0:1"), w(sys_b, "1:1")])
    for word in enumerate_ball(sys_b, 4):
        assert membership(sys_b, g, word)


def test_lambda_components_sys_a(sys_a, sys_a_gens):
    g = complete_graph(sys_a, build_core(sys_a, sys_a_gens), 100)
    comps0 = lambda_components(sys_a, g, 0)
    assert [c.vertices for c in comps0] == [(0,), (1,)]
    assert all(c.stabilizer == frozenset({0, 1}) for c in comps0)
    comps1 = lambda_components(sys_a, g, 1)
    assert len(comps1) == 1 and comps1[0].stabilizer == frozenset({0})


def test_lambda_components_sys_b(sys_b, sys_b_gens):
    g = complete_graph(sys_b, build_core(sys_b, sys_b_gens), 100)
    comps1 = lambda_components(sys_b, g, 1)
    assert len(comps1) == 1
    assert comps1[0].vertices == (0, 1, 2)
    assert comps1[0].stabilizer == frozenset({0})
    assert comps1[0].root == 0


def test_encoding_single_vertex(sys_a):
    assert canonical_encoding(build_core(sys_a, [])) == b"1|"


def test_encoding_generator_order_invariance(sys_a, sys_a_gens):
    a, bab = sys_a_gens
    e1 = canonical_encoding(build_core(sys_a, [a, bab]))
    e2 = canonical_encoding(build_core(sys_a, [bab, a]))
    assert e1 == e2


def test_encoding_redundant_generator_invariance(sys_a, sys_a_gens):
    from freedecomp import multiply

    a, bab = sys_a_gens
    redundant = multiply(sys_a, "G", a, bab)
    e1 = canonical_encoding(build_core(sys_a, [a, bab]))
    e2 = canonical_encoding(build_core(sys_a, [a, bab, redundant]))
    assert e1 == e2


def test_encoding_distinguishes(sys_a):
    ga = build_core(sys_a, [w(sys_a, "0:1")])
    gb = build_core(sys_a, [w(sys_a, "1:1")])
    assert canonical_encoding(ga) != canonical_encoding(gb)


def test_to_dot(sys_a, sys_a_gens):
    g = canonicalize(complete_graph(sys_a, build_core(sys_a, sys_a_gens), 100))
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == 4  # two loops plus the connecting edge both ways
    assert "doublecircle" in dot
    assert dot == to_dot(g)
    single = to_dot(build_core(sys_a, []))
    assert single.count("->") == 0 and single.count("circle") == 1


def test_index_bound_exceeded(sys_a):
    with pytest.raises(IndexBoundExceeded):
        complete_graph(sys_a, build_core(sys_a, []), 50)


def test_complete_succeeds_at_exact_index_bound(corpus):
    for inst in corpus[:20]:
        idx = inst.graph.vertex_count
        g = complete_graph(inst.system, build_core(inst.system, inst.gens), idx)
        assert g.vertex_count == idx


def test_complete_bound_reports_requested_value(sys_a, sys_a_gens):
    with pytest.raises(IndexBoundExceeded) as exc:
        complete_graph(sys_a, build_core(sys_a, sys_a_gens), 1)
    assert exc.value.max_cosets == 1


def test_folded_invariant(corpus):
    for inst in corpus[:30]:
        groups = inst.system.factors_g
        for v in range(inst.graph.vertex_count):
            for (lam, g), target in inst.graph.action[v].items():
                ginv = groups[lam].inv[g]
                assert inst.graph.action[target][(lam, ginv)] == v


def test_saturation_soundness(corpus):
    # within every component the edges are exactly the induced coset moves
    for inst in corpus[:30]:
        sys = inst.system
        graph = inst.graph
        for lam in range(sys.num_factors):
            group = sys.factors_g[lam]
            for comp in lambda_components(sys, graph, lam):
                stab = comp.stabilizer
                label = comp.coset_label
                for u in comp.vertices:
                    for v in comp.vertices:
                        expected = {
                            group.mul[group.mul[group.inv[label[u]]][s]][label[v]]
                            for s in stab
                        } - {0}
                        actual = {
                            g
                            for g in range(1, group.order)
                            if graph.action[u].get((lam, g)) == v
                        }
                        assert actual == expected


def test_generator_membership(corpus):
    from freedecomp import invert, multiply

    for inst in corpus[:30]:
        for g in inst.gens:
            assert membership(inst.system, inst.graph, g)
            assert membership(inst.system, inst.graph, invert(inst.system, "G", g))
        if len(inst.gens) >= 2:
            prod = multiply(inst.system, "G", inst.gens[0], inst.gens[1])
            assert membership(inst.system, inst.graph, prod)


@st.composite
def random_gen_sets(draw):
    from freedecomp.freeprod import make_system, normalize
    from conftest import S3, TRIV, Z2, Z3, Z4, sign_map_s3

    systems = [
        make_system([Z2, Z3], [Z2, Z3], [[0, 1], [0, 1, 2]]),
        make_system([Z2, Z2], [Z2, TRIV], [[0, 1], [0, 0]]),
        make_system([Z4, Z3], [Z2, TRIV], [[0, 1, 0, 1], [0, 0, 0]]),
        make_system([S3, Z2], [Z2, Z2], [sign_map_s3(), [0, 1]]),
    ]
    sys = draw(st.sampled_from(systems))
    n_gens = draw(st.integers(0, 3))
    gens = []
    for _ in range(n_gens):
        raw = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 5)), min_size=1, max_size=5))
        raw = [(lam, 1 + (e % (sys.factors_g[lam].order - 1))) for lam, e in raw]
        word = normalize(sys, "G", raw)
        if word:
            gens.append(word)
    return sys, gens


@given(sg=random_gen_sets())
@settings(max_examples=60, deadline=None)
def test_build_core_invariants_random(sg):
    sys, gens = sg
    graph = build_core(sys, gens)
    # every generator reads as a loop at the base vertex
    for g in gens:
        assert membership(sys, graph, g)
    # folded: inverse edges are present and consistent
    for v in range(graph.vertex_count):
        for (lam, e), target in graph.action[v].items():
            assert graph.action[target][(lam, sys.factors_g[lam].inv[e])] == v
    # saturated: each component realizes exactly its induced coset moves
    for lam in range(sys.num_factors):
        group = sys.factors_g[lam]
        for comp in lambda_components(sys, graph, lam):
            for u in comp.vertices:
                for v in comp.vertices:
                    expected = {
                        group.mul[group.mul[group.inv[comp.coset_label[u]]][s]][comp.coset_label[v]]
                        for s in comp.stabilizer
                    } - {0}
                    actual = {e for e in range(1, group.order) if graph.action[u].get((lam, e)) == v}
                    assert actual == expected


def test_trace_partial(sys_a, sys_a_gens):
    core = build_core(sys_a, [sys_a_gens[0]])  # just the loop at base
    assert trace(core, w(sys_a, "1:1")) is None


def test_agrees_with_naive_enumeration(corpus, sys_a, sys_a_gens):
    # cross-check against the relator-scanning enumeration, which shares no
    # code with the fold/saturate builder
    from naive_enum import NaiveCosetTable

    tc = NaiveCosetTable(sys_a, sys_a_gens, max_cosets=16)
    assert tc.size == 2
    for inst in corpus[:80]:
        tc = NaiveCosetTable(inst.system, inst.gens, max_cosets=80)
        assert tc.size == inst.graph.vertex_count
        for word in enumerate_ball(inst.system, 4):
            assert tc.membership(word) == membership(inst.system, inst.graph, word)


def test_graph_edges_canonical(sys_b, sys_b_gens):
    from naive_enum import graph_edges

    g = canonicalize(complete_graph(sys_b, build_core(sys_b, sys_b_gens), 100))
    edges = graph_edges(sys_b, g)
    assert len(edges) == len(set(edges))
    for u, lam, gelem, v in edges:
        assert u <= v
        assert g.action[u][(lam, gelem)] == v


def _core_and_completion(sys, gens, max_cosets):
    core = build_core(sys, gens)
    return core, complete_graph(sys, core, max_cosets)


def test_heap_jobs_match_linear_scan(corpus, monkeypatch):
    # the heap must pick every saturation job the linear scan would, so
    # both give equal graphs, uncanonicalized, from build_core and completion
    from naive_enum import LinearScanBuilder

    jobs = []
    saturate = covgraph._Builder._saturate

    def logged(self, lam, v):
        jobs.append((lam, v))
        saturate(self, lam, v)

    monkeypatch.setattr(covgraph._Builder, "_saturate", logged)
    family = [z2z3_point_stabilizer(n) for n in (12, 60, 120, 180, 240, 300)]
    systems = [(inst.system, inst.gens, 60) for inst in corpus]
    systems += [(ps.system, ps.gens, ps.index) for ps in family]
    for sys, gens, max_cosets in systems:
        jobs.clear()
        graphs = _core_and_completion(sys, gens, max_cosets)
        heap_jobs = list(jobs)
        jobs.clear()
        with monkeypatch.context() as scan:
            scan.setattr(covgraph, "_Builder", LinearScanBuilder)
            expected = _core_and_completion(sys, gens, max_cosets)
        assert graphs == expected
        assert heap_jobs == jobs
    assert family[-1].index == 300 and graphs[1].vertex_count == 300


def test_index_agrees_with_sympy():
    # sympy's coset enumeration over <a, b | a^2, b^3> shares no code with
    # the fold/saturate builder
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, a, b = free_group("a, b")
    group = FpGroup(free, [a**2, b**3])
    letters = {(0, 1): a, (1, 1): b, (1, 2): b**2}
    for n in (60, 300):
        ps = z2z3_point_stabilizer(n)
        subgroup = []
        for word in ps.gens:
            element = free.identity
            for syl in word:
                element *= letters[syl]
            subgroup.append(element)
        table = group.coset_enumeration(subgroup)
        table.compress()
        graph = complete_graph(ps.system, build_core(ps.system, ps.gens), 10_000)
        assert graph.vertex_count == len(table.table) == n


def test_completion_that_stays_partial_raises(sys_a, sys_a_gens, monkeypatch):
    # an incomplete result is an error that survives python -O, not an assert
    to_graph = covgraph._Builder.to_graph
    monkeypatch.setattr(
        covgraph._Builder, "to_graph", lambda self: dataclasses.replace(to_graph(self), complete=False)
    )
    with pytest.raises(GraphNotComplete, match="undefined action"):
        complete_graph(sys_a, build_core(sys_a, sys_a_gens), 100)


def test_saturation_adds_only_missing_edges(corpus, monkeypatch):
    # each add_edge call that _saturate makes fills an empty slot
    calls = []
    saturate, add_edge = covgraph._Builder._saturate, covgraph._Builder.add_edge

    def saturating(self, lam, v):
        self.saturating = True
        saturate(self, lam, v)
        self.saturating = False

    def logged(self, u, lam, g, v):
        changed = add_edge(self, u, lam, g, v)
        if getattr(self, "saturating", False):
            calls.append(changed)
        return changed

    monkeypatch.setattr(covgraph._Builder, "_saturate", saturating)
    monkeypatch.setattr(covgraph._Builder, "add_edge", logged)
    systems = [(inst.system, inst.gens, 60) for inst in corpus]
    systems += [(ps.system, ps.gens, ps.index) for ps in map(z2z3_point_stabilizer, (12, 60, 120, 180, 240, 300))]
    for sys, gens, max_cosets in systems:
        complete_graph(sys, build_core(sys, gens), max_cosets)
    assert calls and all(calls)


def test_component_trees_span_with_coset_labels(corpus):
    graphs = [(inst.system, inst.graph) for inst in corpus]
    ps = z2z3_point_stabilizer(300)
    graphs.append((ps.system, complete_graph(ps.system, build_core(ps.system, ps.gens), ps.index)))
    for sys, graph in graphs:
        for lam in range(sys.num_factors):
            mul = sys.factors_g[lam].mul
            comps = lambda_components(sys, graph, lam)
            assert [c.root for c in comps] == sorted(min(c.vertices) for c in comps)
            for comp in comps:
                assert len(comp.tree) == len(comp.vertices) - 1
                reached = {comp.root}
                for u, l2, g, v in comp.tree:
                    assert l2 == lam and u in reached and v not in reached
                    assert graph.action[u][(lam, g)] == v
                    assert comp.coset_label[v] == mul[comp.coset_label[u]][g]
                    reached.add(v)
                assert reached == set(comp.vertices) == set(comp.coset_label)


def _wedge_core_and_completion(sys, gens, max_cosets):
    from naive_enum import WedgeBuilder

    with pytest.MonkeyPatch.context() as wedge:
        wedge.setattr(covgraph, "_Builder", WedgeBuilder)
        return _core_and_completion(sys, gens, max_cosets)


def _encodings(graphs):
    return [canonical_encoding(g) for g in graphs]


def test_scan_matches_wedge_seeding(corpus):
    # the two-ended scan only anticipates folds of the wedge of generator
    # cycles, so both seedings give the same core and completion up to
    # vertex numbering; the raw graphs may differ
    systems = [(inst.system, inst.gens, 60) for inst in corpus]
    systems += [(ps.system, ps.gens, ps.index) for ps in map(z2z3_point_stabilizer, (12, 60, 300, 1200, 4800))]
    for sys, gens, max_cosets in systems:
        scanned = _core_and_completion(sys, gens, max_cosets)
        assert _encodings(scanned) == _encodings(_wedge_core_and_completion(sys, gens, max_cosets))
    assert scanned[1].vertex_count == 4800


def _loops_at_base(graph, words):
    return [w for w in words if trace(graph, w) == 0]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_scan_edge_cases_match_wedge(corpus, data):
    # each list extends a subgroup H by words whose scan reads far along
    # earlier generators: repeats, inverses, rotations, conjugates,
    # products, single syllables, the empty word, and a prefix of one
    # generator joined to a suffix of another directly or across one
    # syllable.  All of them lie in H, found on H's full coset graph, so
    # H and its graph stay as they are, except for one optional word that
    # enlarges H.
    if data.draw(st.booleans()):
        ps = z2z3_point_stabilizer(data.draw(st.sampled_from((12, 24, 60))))
        sys, base, full = ps.system, ps.gens, complete_graph(ps.system, build_core(ps.system, ps.gens), ps.index)
    else:
        inst = data.draw(st.sampled_from([inst for inst in corpus if inst.gens and inst.graph.vertex_count > 1]))
        sys, base, full = inst.system, inst.gens, inst.graph
    groups = sys.factors_g
    syllables = [(lam, g) for lam, group in enumerate(groups) for g in range(1, group.order)]

    def gen():
        return data.draw(st.sampled_from(base))

    def joined(*parts):
        return normalize(sys, "G", [syl for part in parts for syl in part])

    def pick(words):
        return data.draw(st.sampled_from(words)) if words else EMPTY

    product = multiply(sys, "G", gen(), gen())
    conj = gen()
    head, tail = gen(), gen()
    cuts = [(k, m) for k in range(len(head) + 1) for m in range(len(tail) + 1)]
    meets = [joined(head[:k], tail[len(tail) - m :]) for k, m in cuts]
    gaps = [joined(head[:k], [syl], tail[len(tail) - m :]) for k, m in cuts for syl in syllables]
    extra = [
        gen(),
        invert(sys, "G", gen()),
        product,
        pick(_loops_at_base(full, [joined(w[c:], w[:c]) for w in (gen(), product) for c in range(1, len(w))])),
        joined(conj, gen(), invert(sys, "G", conj)),
        EMPTY,
        pick(_loops_at_base(full, meets)),
        pick(_loops_at_base(full, gaps)),
    ]
    for involution in (True, False):
        singles = [(syl,) for syl in syllables if (groups[syl[0]].inv[syl[1]] == syl[1]) == involution]
        extra.append(pick(_loops_at_base(full, singles)))
    if data.draw(st.booleans()):
        extra.append(pick(meets + gaps + [(syl,) for syl in syllables]))
    gens = list(base) + data.draw(st.permutations(extra))
    scanned = _core_and_completion(sys, gens, 60)
    wedged = _wedge_core_and_completion(sys, gens, 60)
    assert _encodings(scanned) == _encodings(wedged)
    for word in gens:
        assert membership(sys, scanned[0], word) and membership(sys, wedged[0], word)


def test_scan_creates_few_vertices_and_no_op_edges(monkeypatch):
    # the scan creates vertices only for the part of each generator no
    # earlier one defines, so folding has almost nothing left to re-add:
    # count new vertices, and the add_edge calls of _process_pending that
    # change nothing against all add_edge calls
    counts = {"vertices": 0, "edges": 0, "no_op": 0}
    new_vertex, add_edge, process = (
        covgraph._Builder.new_vertex,
        covgraph._Builder.add_edge,
        covgraph._Builder._process_pending,
    )

    def counted_vertex(self):
        counts["vertices"] += 1
        return new_vertex(self)

    def processing(self):
        self.processing = True
        process(self)
        self.processing = False

    def logged(self, u, lam, g, v):
        changed = add_edge(self, u, lam, g, v)
        counts["edges"] += 1
        counts["no_op"] += getattr(self, "processing", False) and not changed
        return changed

    monkeypatch.setattr(covgraph._Builder, "new_vertex", counted_vertex)
    monkeypatch.setattr(covgraph._Builder, "_process_pending", processing)
    monkeypatch.setattr(covgraph._Builder, "add_edge", logged)
    for n in (1200, 4800):
        ps = z2z3_point_stabilizer(n)
        counts.update(vertices=0, edges=0, no_op=0)
        assert build_core(ps.system, ps.gens).vertex_count == n
        assert counts["vertices"] < 1.1 * n
        assert counts["no_op"] < 0.01 * counts["edges"]


def _family(sizes=(12, 60, 300, 1200)):
    return [(ps.system, ps.gens, ps.index) for ps in map(z2z3_point_stabilizer, sizes)]


def test_graphs_come_out_canonical(corpus):
    # every graph build_core and complete_graph return is numbered as
    # canonicalize numbers it, so canonicalizing it changes nothing
    systems = [(inst.system, inst.gens, 60) for inst in corpus] + _family()
    incomplete = 0
    for sys, gens, max_cosets in systems:
        core, full = _core_and_completion(sys, gens, max_cosets)
        incomplete += not core.complete
        assert canonicalize(core) == core
        assert canonicalize(full) == full
        assert canonical_encoding(full) == canonical_encoding(canonicalize(full))
    assert incomplete >= 10


def test_rows_list_entries_in_key_order(corpus):
    # CoreGraph's invariant, read without sorting by kurosh_decompose,
    # canonical_encoding and to_dot: every row lists its entries in
    # (lam, g) order, also when canonicalize gets rows in another order
    systems = [(inst.system, inst.gens, 60) for inst in corpus] + _family()
    rnd = random.Random(3)
    for sys, gens, max_cosets in systems:
        core, full = _core_and_completion(sys, gens, max_cosets)
        shuffled = []
        for row in full.action:
            items = list(row.items())
            rnd.shuffle(items)
            shuffled.append(dict(items))
        scrambled = dataclasses.replace(full, action=tuple(shuffled))
        for graph in (core, full, canonicalize(core), canonicalize(scrambled)):
            for row in graph.action:
                assert list(row) == sorted(row)


def test_complete_core_is_returned_as_is(corpus, monkeypatch):
    # completion hands a complete core, or a finished graph, back without
    # copying it into a builder, after the coset bound check
    cores = [(inst.system, build_core(inst.system, inst.gens)) for inst in corpus]
    cores += [(sys, build_core(sys, gens)) for sys, gens, _ in _family((60, 300))]
    cores = [(sys, core) for sys, core in cores if core.complete]
    assert len(cores) >= 150
    cores += [(inst.system, inst.graph) for inst in corpus[:60]]
    calls = []
    to_graph = covgraph._Builder.to_graph
    monkeypatch.setattr(covgraph._Builder, "to_graph", lambda self: calls.append(1) or to_graph(self))
    for sys, core in cores:
        assert complete_graph(sys, core, core.vertex_count) is core
        if core.vertex_count > 1:
            with pytest.raises(IndexBoundExceeded, match=f"coset bound {core.vertex_count - 1} exceeded"):
                complete_graph(sys, core, core.vertex_count - 1)
    assert calls == []


def test_kurosh_command_reads_a_complete_core_once(tmp_path, monkeypatch):
    # the point stabilizer's Schreier generators give a complete core, so
    # the command materialises one graph: no completion copy, no relabelling
    import json

    from freedecomp import cli

    ps = z2z3_point_stabilizer(60)
    assert build_core(ps.system, ps.gens).complete
    path = tmp_path / "system.json"
    path.write_text(
        json.dumps(
            {
                "factors_G": ["cyclic 2", "cyclic 3"],
                "factors_B": ["cyclic 2", "cyclic 1"],
                "theta": [[0, 1], [0, 0, 0]],
                "subgroup": [format_word(w) for w in ps.gens],
            }
        ),
        encoding="utf-8",
    )
    calls = []
    to_graph = covgraph._Builder.to_graph
    monkeypatch.setattr(covgraph._Builder, "to_graph", lambda self: calls.append(1) or to_graph(self))
    assert cli.main(["kurosh", str(path), "-o", str(tmp_path / "k.json")]) == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "k.json").read_text())["free_rank"] == ps.free_rank


def _one_vertex_stabilizer_systems():
    """Systems X * Z2 for X = S3, S4, S5, Z4 whose generators put loops
    labelled s and t at a vertex with no other X-edge: a one-vertex
    component whose stabilizer <s, t> saturation must fill with loops."""
    out = []
    for group in (S3, sym(4), sym(5), Z4):
        sys = make_system([group, Z2], [group, Z2], [list(range(group.order)), [0, 1]])
        elems = sorted({1, 2, 3, group.order - 1})
        for s in elems:
            for t in elems:
                if s <= t:
                    out.append((sys, [((0, s),), ((0, t),)], 8))
                    out.append((sys, [((1, 1), (0, s), (1, 1)), ((1, 1), (0, t), (1, 1))], 8))
                    out.append((sys, [((0, t), (1, 1), (0, s), (1, 1), (0, group.inv[t]))], 8))
    return out


def _outcome(sys, gens, max_cosets):
    core = build_core(sys, gens)
    try:
        full = complete_graph(sys, core, max_cosets)
    except IndexBoundExceeded:
        return canonical_encoding(core), "bound"
    return canonical_encoding(core), canonical_encoding(full)


def test_one_walk_saturation_matches_two_passes(corpus, monkeypatch):
    # _saturate labels a component and collects its stabilizer generators
    # in one walk; the two-pass original in naive_enum must give the same
    # cores and completions.  The X * Z2 systems make saturation fill a
    # one-vertex component with a nontrivial stabilizer, counted here.
    from naive_enum import TwoPassSaturateBuilder

    filled = set()
    saturate = covgraph._Builder._saturate

    def watched(self, lam, v):
        def loops():
            return sum(self.find(w) == v for (l2, _), w in self.adj[v].items() if l2 == lam)

        before = loops()
        saturate(self, lam, v)
        alone = all(self.find(w) == v for (l2, _), w in self.adj[v].items() if l2 == lam)
        if alone and 0 < before < loops():
            filled.add(self.groups[lam].order)

    systems = [(inst.system, inst.gens, 60) for inst in corpus] + _family()
    systems += _one_vertex_stabilizer_systems()
    for sys, gens, max_cosets in systems:
        with monkeypatch.context() as m:
            m.setattr(covgraph._Builder, "_saturate", watched)
            got = _outcome(sys, gens, max_cosets)
        with monkeypatch.context() as m:
            m.setattr(covgraph, "_Builder", TwoPassSaturateBuilder)
            assert got == _outcome(sys, gens, max_cosets)
    assert {6, 24, 120, 4} <= filled
