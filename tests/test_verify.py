import dataclasses

import pytest

from freedecomp import (
    GraphNotComplete,
    ThetaNotSurjectiveOntoB,
    build_core,
    canonicalize,
    complete_graph,
    conjecture_decompose,
    make_system,
    membership,
    multiply,
    verify_certificate,
)
from freedecomp import covgraph
from freedecomp.conjecture import Bounds, check_h_theta_surjective, decompose_and_check
from freedecomp.covgraph import lambda_components
from freedecomp.freeprod import EMPTY, parse_word, theta_word
from freedecomp.verify import MalformedCertificate, check_certificate

from conftest import TRIV, Z2, enumerate_ball, z2z3_point_stabilizer
from naive_enum import (
    brute_force_double_cosets,
    brute_force_members,
    brute_force_membership,
    exhaustive_intersection,
)


def w(sys, text):
    return parse_word(sys, "G", text)


def complete_canon(sys, gens, bound=200):
    return canonicalize(complete_graph(sys, build_core(sys, gens), bound))


@pytest.fixture(scope="module")
def sys_a_cert(sys_a, sys_a_gens):
    return conjecture_decompose(sys_a, sys_a_gens)


def test_sys_a_certificate_passes(sys_a, sys_a_gens, sys_a_cert):
    report = verify_certificate(sys_a, sys_a_gens, sys_a_cert)
    assert report.verdict
    assert all(c.status == "pass" for c in report.checks)
    assert [c.name.split()[0] for c in report.checks] == ["C1", "C2", "C3", "C4", "C5", "C7"]


def test_tampered_rep_fails(sys_a, sys_a_gens, sys_a_cert):
    fc0 = sys_a_cert.factors[0]
    bad_fc0 = dataclasses.replace(fc0, reps=(fc0.reps[0], w(sys_a, "1:1 0:1")))
    bad = dataclasses.replace(sys_a_cert, factors=(bad_fc0, sys_a_cert.factors[1]))
    report = verify_certificate(sys_a, sys_a_gens, bad)
    assert not report.verdict
    failed = {c.name.split()[0] for c in report.checks if c.status == "fail"}
    assert "C1" in failed or "C3" in failed


def test_dropped_vertex_group_element_fails(sys_a, sys_a_gens, sys_a_cert):
    fc0 = sys_a_cert.factors[0]
    bad_fc0 = dataclasses.replace(fc0, vertex_groups=(fc0.vertex_groups[0], ()))
    bad = dataclasses.replace(sys_a_cert, factors=(bad_fc0, sys_a_cert.factors[1]))
    report = verify_certificate(sys_a, sys_a_gens, bad)
    assert not report.verdict
    failed = {c.name.split()[0] for c in report.checks if c.status == "fail"}
    assert "C3" in failed
    assert report.checks[-1].details == "needs C3, C4 and C5"


def test_wrong_system_rejected(sys_a, sys_a_gens, sys_b, sys_a_cert):
    with pytest.raises(MalformedCertificate):
        verify_certificate(sys_b, sys_a_gens, sys_a_cert)


def test_inconsistent_lengths_rejected(sys_a, sys_a_gens, sys_a_cert):
    fc0 = sys_a_cert.factors[0]
    bad_fc0 = dataclasses.replace(fc0, g_corrections=(EMPTY,))
    bad = dataclasses.replace(sys_a_cert, factors=(bad_fc0, sys_a_cert.factors[1]))
    with pytest.raises(MalformedCertificate):
        verify_certificate(sys_a, sys_a_gens, bad)


def test_double_cosets_whole_group(sys_b):
    g = complete_canon(sys_b, [w(sys_b, "0:1"), w(sys_b, "1:1")])
    for lam in (0, 1):
        assert brute_force_double_cosets(sys_b, g, lam) == [(0,)]


def test_double_cosets_sys_a(sys_a, sys_a_gens):
    g = complete_canon(sys_a, sys_a_gens)
    assert brute_force_double_cosets(sys_a, g, 0) == [(0,), (1,)]
    assert brute_force_double_cosets(sys_a, g, 1) == [(0, 1)]


def test_double_cosets_sys_b(sys_b, sys_b_gens):
    g = complete_canon(sys_b, sys_b_gens)
    assert brute_force_double_cosets(sys_b, g, 0) == [(0,), (1,), (2,)]
    assert brute_force_double_cosets(sys_b, g, 1) == [(0, 1, 2)]


def test_double_cosets_need_complete(sys_a):
    with pytest.raises(GraphNotComplete):
        brute_force_double_cosets(sys_a, build_core(sys_a, []), 0)


def test_components_and_vertex_groups_match_the_exhaustive_oracles(corpus):
    # C4 reads the double cosets off lambda_components, and C3 reads each
    # vertex group off the stabilizer of the representative's vertex; both
    # must agree with the walks they replaced
    cases = [(inst.system, inst.gens) for inst in corpus]
    cases += [(ps.system, ps.gens) for ps in map(z2z3_point_stabilizer, (12, 60, 300))]
    seen = 0
    for sys, gens in cases:
        try:
            check_h_theta_surjective(sys, gens, 300)
        except ThetaNotSurjectiveOntoB:
            continue
        cert, report, graph = decompose_and_check(sys, gens, Bounds(max_cosets=300))
        assert report.checks[2].name.startswith("C3 ") and report.checks[2].status == "pass"
        for fc in cert.factors:
            comps = lambda_components(sys, graph, fc.lam)
            assert [comp.vertices for comp in comps] == brute_force_double_cosets(sys, graph, fc.lam)
            for x, vg in zip(fc.reps, fc.vertex_groups):
                assert set(vg) == exhaustive_intersection(sys, graph, fc.lam, x)
                seen += 1
    assert seen >= 200


def test_check_certificate_needs_the_complete_graph(sys_a, sys_a_cert):
    with pytest.raises(GraphNotComplete):
        check_certificate(sys_a, build_core(sys_a, []), sys_a_cert)


def test_brute_force_membership(sys_a, sys_a_gens):
    assert brute_force_membership(sys_a, sys_a_gens, EMPTY, 1)
    assert brute_force_membership(sys_a, sys_a_gens, w(sys_a, "1:1 0:1 1:1"), 3)
    assert not brute_force_membership(sys_a, sys_a_gens, w(sys_a, "1:1"), 6)


def test_brute_force_agrees_with_graph(sys_b, sys_b_gens):
    graph = complete_canon(sys_b, sys_b_gens)
    members, ok = brute_force_members(sys_b, sys_b_gens, 8)
    assert ok
    short = {word for word in members if len(word) <= 5}
    for word in enumerate_ball(sys_b, 5):
        graph_says = membership(sys_b, graph, word)
        if word in short:
            assert graph_says
        if graph_says:
            assert word in members


def test_certificate_json_roundtrip(sys_a, sys_a_gens, sys_a_cert):
    import json

    from freedecomp.cli import certificate_from_json, certificate_to_json

    data = json.loads(json.dumps(certificate_to_json(sys_a_cert)))
    assert certificate_from_json(sys_a, data) == sys_a_cert


def _tamper_cases(sys, cert):
    fc0, fc1 = cert.factors
    yield "rep image", dataclasses.replace(fc0, reps=(fc0.reps[0], w(sys, "1:1 0:1"))), fc1
    yield "correction identity", dataclasses.replace(fc0, g_corrections=(w(sys, "0:1"), fc0.g_corrections[1])), fc1
    yield "vertex group element dropped", dataclasses.replace(
        fc0, vertex_groups=((), fc0.vertex_groups[1])
    ), fc1
    yield "foreign vertex group element", dataclasses.replace(
        fc0, vertex_groups=(fc0.vertex_groups[0] + (w(sys, "1:1"),), fc0.vertex_groups[1])
    ), fc1
    yield "spurious free basis", dataclasses.replace(fc0, f_basis=(w(sys, "1:1"),)), fc1
    yield "duplicate representative", dataclasses.replace(
        fc0,
        reps=(fc0.reps[0], fc0.reps[0]),
        beta_primes=(fc0.beta_primes[0], fc0.beta_primes[0]),
        g_corrections=(fc0.g_corrections[0], fc0.g_corrections[0]),
        vertex_groups=(fc0.vertex_groups[0], fc0.vertex_groups[0]),
    ), fc1


def test_tamper_matrix(sys_a, sys_a_gens, sys_a_cert):
    # every corruption class must flip the verdict
    for label, bad_fc0, fc1 in _tamper_cases(sys_a, sys_a_cert):
        bad = dataclasses.replace(sys_a_cert, factors=(bad_fc0, fc1))
        report = verify_certificate(sys_a, sys_a_gens, bad)
        assert not report.verdict, f"tampering not detected: {label}"


def test_c7_only_tamper_matrix():
    # H = <ab> in Z2 * Z2 is infinite cyclic: no pieces and free rank 1.
    # Each tampering keeps C1-C5 passing, so only the exact C7 can catch it.
    sys = make_system([Z2, Z2], [Z2, TRIV], [[0, 1], [0, 0]])
    gens = [w(sys, "0:1 1:1")]
    cert = conjecture_decompose(sys, gens)
    fc0, fc1 = cert.factors
    (f,) = fc0.f_basis
    for label, extra in (("redundant", multiply(sys, "G", f, f)), ("duplicated", f), ("empty", EMPTY)):
        bad = dataclasses.replace(cert, factors=(dataclasses.replace(fc0, f_basis=(f, extra)), fc1))
        report = verify_certificate(sys, gens, bad)
        assert [c.status for c in report.checks] == ["pass"] * 5 + ["fail"], label
        assert report.checks[-1].details == "2 free-basis words for free rank 1", label


@pytest.mark.parametrize("n, seed", [(12, 3), (18, 1), (24, 1), (30, 2)])
def test_cross_factor_basis_move_fails_c2(n, seed):
    # Moving factor 0's free-basis words with nontrivial image into factor 1
    # keeps the pooled words, so C1, C3-C5 and C7 still pass; only C2, which ties
    # each factor's words to its own B_lam, sees that H_1 no longer maps
    # onto the trivial B_1.
    ps = z2z3_point_stabilizer(n, seed)
    cert = conjecture_decompose(ps.system, ps.gens)
    fc0, fc1 = cert.factors
    moved = tuple(f for f in fc0.f_basis if theta_word(ps.system, f) != EMPTY)
    assert moved
    forged = dataclasses.replace(
        cert,
        factors=(
            dataclasses.replace(fc0, f_basis=tuple(f for f in fc0.f_basis if f not in moved)),
            dataclasses.replace(fc1, f_basis=fc1.f_basis + moved),
        ),
    )
    assert verify_certificate(ps.system, ps.gens, cert).verdict
    report = verify_certificate(ps.system, ps.gens, forged)
    assert [c.status for c in report.checks] == ["pass", "fail"] + ["pass"] * 4
    assert "factor 1: generator image leaves B_1" in report.checks[1].details


@pytest.mark.parametrize("n, seed", [(3, 1), (4, 2), (7, 1)])
def test_c5_completes_within_the_subgroup_index(monkeypatch, n, seed):
    # A certificate missing one free-basis word, or one vertex group,
    # generates a subgroup of infinite index.  C5 completes it with the
    # coset bound set to H's index n, so the builder never holds more than
    # 2n + 8 vertices at once and creates fewer than twice that: the work
    # is bounded by H's index, not by the command's coset bound.
    ps = z2z3_point_stabilizer(n, seed)
    cert, _, graph = decompose_and_check(ps.system, ps.gens)
    forgeries = {}
    for fc in cert.factors:
        if fc.f_basis and "basis word dropped" not in forgeries:
            forgeries["basis word dropped"] = dataclasses.replace(fc, f_basis=fc.f_basis[1:])
        if fc.vertex_groups and "vertex group emptied" not in forgeries:
            forgeries["vertex group emptied"] = dataclasses.replace(fc, vertex_groups=((),) + fc.vertex_groups[1:])
    assert len(forgeries) == 2
    new_vertex = covgraph._Builder.new_vertex
    counts = {"created": 0, "peak": 0}

    def counting(self):
        counts["created"] += 1
        counts["peak"] = max(counts["peak"], self.live + 1)
        return new_vertex(self)

    monkeypatch.setattr(covgraph._Builder, "new_vertex", counting)
    for label, bad_fc in forgeries.items():
        factors = tuple(bad_fc if fc.lam == bad_fc.lam else fc for fc in cert.factors)
        counts.update(created=0, peak=0)
        report = check_certificate(ps.system, graph, dataclasses.replace(cert, factors=factors))
        c5 = report.checks[4]
        assert c5.name.startswith("C5 ") and c5.status == "fail", label
        assert c5.details == f"regenerated subgroup exceeds the subgroup's index {n}", label
        assert counts["peak"] <= 2 * n + 8 and counts["created"] < 2 * (2 * n + 8), (label, counts)


def _transversal_tamper_cases(corpus):
    """Valid certificates of the corpus and the scaling family."""
    cases = [(inst.system, inst.gens) for inst in corpus]
    cases += [(ps.system, ps.gens) for ps in map(z2z3_point_stabilizer, (3, 12, 60))]
    for sys, gens in cases:
        try:
            check_h_theta_surjective(sys, gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        cert, _, graph = decompose_and_check(sys, gens, Bounds(max_cosets=200))
        if graph.vertex_count > 1:
            yield sys, gens, cert


def test_transversal_word_must_lead_to_its_coset(corpus):
    # C1 ties word i of tree_transversal to coset i of H's canonical graph.
    # Squaring the first nonempty word keeps it image-trivial and in normal
    # form but sends it elsewhere; dropping the last word leaves a coset
    # without one.  Both fail C1 and nothing else.
    seen = 0
    for sys, gens, cert in _transversal_tamper_cases(corpus):
        words = list(cert.tree_transversal)
        i = next(i for i, t in enumerate(words) if t)
        squared = words[:i] + [multiply(sys, "G", words[i], words[i])] + words[i + 1 :]
        for label, forged in (("squared", squared), ("dropped", words[:-1])):
            report = verify_certificate(sys, gens, dataclasses.replace(cert, tree_transversal=tuple(forged)))
            assert [c.status for c in report.checks] == ["fail"] + ["pass"] * 5, label
        seen += 1
    assert seen >= 30


def test_transversal_word_must_be_in_normal_form(corpus):
    # the unreduced concatenation t t of a word that starts and ends in
    # one factor is rejected before any check runs
    seen = 0
    for sys, gens, cert in _transversal_tamper_cases(corpus):
        words = list(cert.tree_transversal)
        i = next((i for i, t in enumerate(words) if t and t[0][0] == t[-1][0]), None)
        if i is None:
            continue
        forged = words[:i] + [words[i] + words[i]] + words[i + 1 :]
        with pytest.raises(MalformedCertificate, match="transversal word .* is not in normal form"):
            verify_certificate(sys, gens, dataclasses.replace(cert, tree_transversal=tuple(forged)))
        seen += 1
    assert seen >= 20


def _tampered(sys, cert):
    """The benchmark's two tamperings: the first piece listed twice, and
    a factor's free basis gaining the product of its first and last words."""
    for i, fc in enumerate(cert.factors):
        if fc.reps:
            keys = ("beta_primes", "g_corrections", "reps", "vertex_groups")
            twice = dataclasses.replace(fc, **{k: getattr(fc, k) + getattr(fc, k)[:1] for k in keys})
            yield "piece", dataclasses.replace(cert, factors=cert.factors[:i] + (twice,) + cert.factors[i + 1 :])
            break
    for i, fc in enumerate(cert.factors):
        if fc.f_basis:
            extra = multiply(sys, "G", fc.f_basis[0], fc.f_basis[-1])
            more = dataclasses.replace(fc, f_basis=fc.f_basis + (extra,))
            yield "basis", dataclasses.replace(cert, factors=cert.factors[:i] + (more,) + cert.factors[i + 1 :])
            break


def test_exact_c7_rejects_benchmark_tamperings(corpus):
    # C7 passes exactly on the untampered certificate of every qualifying
    # corpus system, and fails on both of its tampered copies
    seen = {"valid": 0, "piece": 0, "basis": 0}
    for inst in corpus:
        try:
            check_h_theta_surjective(inst.system, inst.gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        cert = conjecture_decompose(inst.system, inst.gens, Bounds(max_cosets=200))
        for kind, candidate in [("valid", cert)] + list(_tampered(inst.system, cert)):
            c7 = verify_certificate(inst.system, inst.gens, candidate, max_cosets=200).checks[-1]
            assert (c7.status == "pass") == (kind == "valid"), (kind, c7.details)
            seen[kind] += 1
    assert seen["valid"] >= 170 and seen["piece"] and seen["basis"], seen
