import dataclasses

import pytest

from freedecomp import (
    GraphNotComplete,
    ThetaNotSurjectiveOntoB,
    brute_force_double_cosets,
    build_core,
    canonicalize,
    complete_graph,
    conjecture_decompose,
    make_system,
    membership,
    multiply,
    verify_certificate,
)
from freedecomp.conjecture import Bounds, check_h_theta_surjective
from freedecomp.freeprod import EMPTY, parse_word
from freedecomp.verify import MalformedCertificate

from conftest import TRIV, Z2, enumerate_ball
from naive_enum import brute_force_members, brute_force_membership, free_part_letters, freeness_search


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
    assert [c.name.split()[0] for c in report.checks] == [f"C{i}" for i in range(1, 8)]


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
    assert report.checks[6].details == "needs C3 and C5"


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
    yield "generators weakened", dataclasses.replace(fc0, h_lambda_gens=(w(sys, "0:1"),)), fc1
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


def test_freeness_search_finds_relation(sys_a):
    a = w(sys_a, "0:1")
    witness, exhaustive, _ = freeness_search(sys_a, [("p", [a]), ("q", [a])], 4)
    assert witness is not None and exhaustive


def test_freeness_search_clean_parts(sys_a):
    a = w(sys_a, "0:1")
    bab = w(sys_a, "1:1 0:1 1:1")
    witness, exhaustive, _ = freeness_search(sys_a, [("p", [a]), ("q", [bab])], 8)
    assert witness is None and exhaustive


def test_c7_only_tamper_matrix():
    # H = <ab> in Z2 * Z2 is infinite cyclic: no pieces and free rank 1.
    # Each tampering keeps C1-C6 passing, so only the exact C7 can catch it.
    sys = make_system([Z2, Z2], [Z2, TRIV], [[0, 1], [0, 0]])
    gens = [w(sys, "0:1 1:1")]
    cert = conjecture_decompose(sys, gens)
    fc0, fc1 = cert.factors
    (f,) = fc0.f_basis
    for label, extra in (("redundant", multiply(sys, "G", f, f)), ("duplicated", f), ("empty", EMPTY)):
        bad = dataclasses.replace(cert, factors=(dataclasses.replace(fc0, f_basis=(f, extra)), fc1))
        report = verify_certificate(sys, gens, bad)
        assert [c.status for c in report.checks] == ["pass"] * 6 + ["fail"], label
        assert report.checks[6].details == "2 free-basis words for free rank 1", label


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


def _bounded_witness(sys, cert, max_letters):
    """The relation the bounded search finds among the certificate's parts, if any."""
    parts = []
    for fc in cert.factors:
        for mu, vg in enumerate(fc.vertex_groups):
            parts.append((f"vg[{fc.lam},{mu}]", list(vg)))
        for j, word in enumerate(fc.f_basis):
            parts.append((f"fb[{fc.lam},{j}]", free_part_letters(sys, word)))
    if len(parts) < 2:
        return None
    return freeness_search(sys, parts, max_letters)[0]


def test_exact_c7_agrees_with_bounded_search(corpus):
    # cross-check of C7 against the bounded search it replaced, on every
    # qualifying corpus certificate and its tampered copies
    seen = {"valid": 0, "piece": 0, "basis": 0, "witness": 0}
    for inst in corpus:
        try:
            check_h_theta_surjective(inst.system, inst.gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        cert = conjecture_decompose(inst.system, inst.gens, Bounds(max_cosets=200))
        for kind, candidate in [("valid", cert)] + list(_tampered(inst.system, cert)):
            c7 = verify_certificate(inst.system, inst.gens, candidate, max_cosets=200).checks[6]
            witness = _bounded_witness(inst.system, candidate, 8)
            if witness is not None:
                seen["witness"] += 1
                assert c7.status == "fail", (kind, candidate)
            if c7.status == "pass":
                assert witness is None, (kind, candidate)
            assert (c7.status == "pass") == (kind == "valid"), (kind, c7.details)
            seen[kind] += 1
    assert seen["valid"] >= 170 and seen["piece"] and seen["basis"] and seen["witness"], seen
