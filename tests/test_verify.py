import dataclasses
import random

import pytest

from freedecomp import (
    CertificateRejected,
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
from freedecomp.conjecture import canonical_generators, check_h_theta_surjective, decompose_and_check
from freedecomp.covgraph import lambda_components, trace
from freedecomp.freeprod import EMPTY, invert, is_normal_form, normalize, parse_word, theta_word
from freedecomp.higgins import build_theta_tree
from freedecomp.verify import MalformedCertificate, _claimed_gens, check_certificate

from conftest import S3, TRIV, Z2, enumerate_ball, z2z3_point_stabilizer
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
    bad_fc0 = dataclasses.replace(fc0, vertex_groups=fc0.vertex_groups[:1])
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
    # must agree with the walks they replaced, which need the complete
    # graph, while the checks ran on H's core
    cases = [(inst.system, inst.gens) for inst in corpus]
    cases += [(ps.system, ps.gens) for ps in map(z2z3_point_stabilizer, (12, 60, 300))]
    seen = 0
    for sys, gens in cases:
        try:
            check_h_theta_surjective(sys, gens)
        except ThetaNotSurjectiveOntoB:
            continue
        cert, report, _ = decompose_and_check(sys, gens)
        assert report.checks[2].name.startswith("C3 ") and report.checks[2].status == "pass"
        full = complete_canon(sys, gens, 300)
        for fc in cert.factors:
            comps = lambda_components(sys, full, fc.lam)
            assert [comp.vertices for comp in comps] == brute_force_double_cosets(sys, full, fc.lam)
            for x, vg in zip(fc.reps, fc.vertex_groups):
                assert set(vg) == exhaustive_intersection(sys, full, fc.lam, x)
                seen += 1
    assert seen >= 200


def test_check_certificate_runs_on_the_core(corpus):
    # decompose checks on H's core, which it never completes; on the corpus
    # systems whose core is smaller than the complete graph the checks pass
    # there, and verify, which builds the same core, agrees
    smaller = 0
    for inst in corpus:
        try:
            cert, report, graph = decompose_and_check(inst.system, inst.gens)
        except (ThetaNotSurjectiveOntoB, CertificateRejected):
            continue
        assert graph == build_core(inst.system, canonical_generators(inst.gens))
        if graph.vertex_count < inst.graph.vertex_count:
            smaller += 1
            assert not graph.complete and report.verdict
            assert check_certificate(inst.system, graph, cert).verdict
            assert verify_certificate(inst.system, inst.gens, cert).verdict
    assert smaller == 20


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
    """(label, tampered factor 0, factor 1, whether the claim changed)."""
    fc0, fc1 = cert.factors
    yield "rep image", dataclasses.replace(fc0, reps=(fc0.reps[0], w(sys, "1:1 0:1"))), fc1, True
    yield "correction identity", dataclasses.replace(
        fc0, g_corrections=(w(sys, "0:1"), fc0.g_corrections[1])
    ), fc1, False
    yield "beta' replaced", dataclasses.replace(fc0, beta_primes=(w(sys, "1:1 0:1"), fc0.beta_primes[1])), fc1, False
    yield "vertex group element dropped", dataclasses.replace(
        fc0, vertex_groups=((), fc0.vertex_groups[1])
    ), fc1, True
    yield "foreign vertex group element", dataclasses.replace(
        fc0, vertex_groups=(fc0.vertex_groups[0] + (w(sys, "1:1"),), fc0.vertex_groups[1])
    ), fc1, True
    yield "spurious free basis", dataclasses.replace(fc0, f_basis=(w(sys, "1:1"),)), fc1, True
    yield "duplicate representative", dataclasses.replace(
        fc0,
        reps=(fc0.reps[0], fc0.reps[0]),
        beta_primes=(fc0.beta_primes[0], fc0.beta_primes[0]),
        g_corrections=(fc0.g_corrections[0], fc0.g_corrections[0]),
        vertex_groups=(fc0.vertex_groups[0], fc0.vertex_groups[0]),
    ), fc1, True


def test_tamper_matrix(sys_a, sys_a_gens, sys_a_cert):
    # every corruption of the claim must flip the verdict; the corrections
    # and beta' are provenance, which no check reads
    for label, bad_fc0, fc1, claim_changed in _tamper_cases(sys_a, sys_a_cert):
        bad = dataclasses.replace(sys_a_cert, factors=(bad_fc0, fc1))
        report = verify_certificate(sys_a, sys_a_gens, bad)
        assert report.verdict != claim_changed, f"{label}: verdict {report.verdict}"


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


def _nielsen_variant(sys, gens, rnd):
    """Another generating tuple of the same subgroup: six random Nielsen
    moves, a redundant product, a duplicate, then a shuffle."""
    gens = list(gens)
    for _ in range(6 if len(gens) > 1 else 0):
        i, j = rnd.sample(range(len(gens)), 2)
        u = gens[j] if rnd.random() < 0.5 else invert(sys, "G", gens[j])
        gens[i] = multiply(sys, "G", u, gens[i]) if rnd.random() < 0.5 else multiply(sys, "G", gens[i], u)
        if rnd.random() < 0.3:
            gens[i] = invert(sys, "G", gens[i])
    if gens:
        gens.append(multiply(sys, "G", rnd.choice(gens), invert(sys, "G", rnd.choice(gens))))
        gens.append(rnd.choice(gens))
    rnd.shuffle(gens)
    return gens


def test_core_depends_only_on_the_subgroup(corpus, growth, partial_family, eight_shapes):
    # the covgraph module docstring's invariance, which C5 and decompose
    # rest on: generating tuples of one subgroup build equal cores, the
    # claimed words of a certificate build H's core, and decompose writes
    # the same certificate from either tuple
    rnd = random.Random(20250810)
    cases = [(inst.system, inst.gens) for inst in corpus]
    cases += [(sub.system, sub.gens) for sub in partial_family]
    cases += [(system, gens) for _, system, gens in growth + eight_shapes[1]]
    cases += [(ps.system, ps.gens) for ps in map(z2z3_point_stabilizer, (12, 60, 300))]
    certified = 0
    for sys, gens in cases:
        graph = build_core(sys, gens)
        variants = [_nielsen_variant(sys, gens, rnd) for _ in range(2)]
        for variant in variants:
            assert build_core(sys, variant) == graph, (gens, variant)
        try:
            cert, _, _ = decompose_and_check(sys, gens)
        except (ThetaNotSurjectiveOntoB, CertificateRejected):
            continue
        certified += 1
        assert build_core(sys, [x for fc in cert.factors for x in _claimed_gens(fc)]) == graph
        assert decompose_and_check(sys, variants[0])[0] == cert
    assert certified == 503


@pytest.mark.parametrize("n, seed", [(3, 1), (4, 2), (7, 1)])
def test_c5_decides_by_core_equality(monkeypatch, n, seed):
    # A certificate missing one free-basis word, or one vertex group,
    # generates a subgroup K < H of infinite index: its words lie in H, but
    # K's core is not H's.  A word outside H is named as such.  Neither
    # completes a graph.
    ps = z2z3_point_stabilizer(n, seed)
    cert, _, graph = decompose_and_check(ps.system, ps.gens)
    forgeries = {}
    for fc in cert.factors:
        if fc.f_basis and "basis word dropped" not in forgeries:
            forgeries["basis word dropped"] = dataclasses.replace(fc, f_basis=fc.f_basis[1:])
        if fc.vertex_groups and "vertex group emptied" not in forgeries:
            forgeries["vertex group emptied"] = dataclasses.replace(fc, vertex_groups=((),) + fc.vertex_groups[1:])
    assert len(forgeries) == 2
    outside = next(word for word in enumerate_ball(ps.system, 3) if not membership(ps.system, graph, word))
    forgeries["word outside H"] = dataclasses.replace(cert.factors[1], f_basis=cert.factors[1].f_basis + (outside,))

    def no_completion(*args):
        raise AssertionError("C5 completed a graph")

    monkeypatch.setattr(covgraph, "complete_graph", no_completion)
    for label, bad_fc in forgeries.items():
        factors = tuple(bad_fc if fc.lam == bad_fc.lam else fc for fc in cert.factors)
        report = check_certificate(ps.system, graph, dataclasses.replace(cert, factors=factors))
        c5 = report.checks[4]
        assert c5.name.startswith("C5 ") and c5.status == "fail", label
        if label == "word outside H":
            assert c5.details == "1 certificate words are outside the subgroup"
        else:
            assert c5.details == "the certificate's words generate a proper subgroup of H", label


def _valid_certificates(corpus):
    """Valid certificates of the corpus and the scaling family, with the
    complete coset graph of H."""
    cases = [(inst.system, inst.gens) for inst in corpus]
    cases += [(ps.system, ps.gens) for ps in map(z2z3_point_stabilizer, (3, 12, 60))]
    for sys, gens in cases:
        try:
            cert, _, _ = decompose_and_check(sys, gens)
        except (ThetaNotSurjectiveOntoB, CertificateRejected):
            continue
        yield sys, gens, cert, complete_canon(sys, gens)


def _certificates_with_core(corpus):
    """Valid certificates of the corpus with the core of H that decompose
    built them on."""
    for inst in corpus:
        try:
            yield inst.system, decompose_and_check(inst.system, inst.gens)
        except (ThetaNotSurjectiveOntoB, CertificateRejected):
            continue


def test_transversal_word_must_lead_to_its_coset(corpus):
    # decompose reads its certificate off H's Kurosh basis and has no
    # transversal, so it writes none; the transversal older certificates
    # carry is provenance no check reads (see the tests below)
    seen = 0
    for sys, (cert, report, graph) in _certificates_with_core(corpus):
        assert cert.tree_transversal == () and report.verdict
        seen += 1
    assert seen >= 150


def test_transversal_word_must_be_in_normal_form(corpus):
    # the transversal words older certificates carry, one image-trivial
    # word per vertex of H's core, are in normal form, so a certificate
    # read back from JSON carries them unchanged
    seen = 0
    for sys, (cert, _, graph) in _certificates_with_core(corpus):
        for word in build_theta_tree(sys, graph).transversal:
            assert is_normal_form(sys, "G", word)
            assert normalize(sys, "G", word) == word
        seen += 1
    assert seen >= 150


def test_provenance_fields_do_not_change_the_verdict(corpus):
    # the claim mentions neither the transversal nor beta' and the
    # corrections, so no check reads them: the transversal of H's core (as
    # older certificates carry), one of its words squared, dropped or left
    # unreduced, the transversal of the complete graph (as certificates
    # written before the checks moved to the core carry), and all three
    # fields emptied leave every check passing
    seen = older = 0
    for sys, gens, cert, full in _valid_certificates(corpus):
        words = list(build_theta_tree(sys, build_core(sys, canonical_generators(gens))).transversal)
        forged = {"emptied": (), "core's": tuple(words)}
        i = next((i for i, t in enumerate(words) if t), None)
        if i is not None:
            forged["squared"] = tuple(words[:i] + [multiply(sys, "G", words[i], words[i])] + words[i + 1 :])
            forged["dropped"] = tuple(words[:-1])
            forged["unreduced"] = tuple(words[:i] + [words[i] + words[i]] + words[i + 1 :])
        if full.vertex_count > len(words):
            forged["complete graph's"] = build_theta_tree(sys, full).transversal
            older += 1
        for label, transversal in forged.items():
            factors = cert.factors
            if label == "emptied":
                factors = tuple(dataclasses.replace(fc, beta_primes=(), g_corrections=()) for fc in factors)
            report = verify_certificate(sys, gens, dataclasses.replace(cert, factors=factors, tree_transversal=transversal))
            assert [c.status for c in report.checks] == ["pass"] * 6, label
        seen += 1
    assert seen >= 150 and older == 20


def test_c3_reads_the_piece_when_x_inverse_leaves_the_core():
    # H = <b t b> in S3 * Z2 for a transposition t: the core is base -b- v
    # with a t-loop at v, and v's S3-component holds one of the three
    # cosets of <t>.  For a 3-cycle c, x = c^-1 b conjugates G_0 like b
    # does, so its piece is b<t>b as well, although x^-1 = b c leaves the
    # core after b.  C3 traces x^-1 without its last syllable.
    sys = make_system([S3, Z2], [TRIV, TRIV], [[0] * 6, [0, 0]])
    transposition = next(g for g in range(1, 6) if S3.mul[g][g] == 0)
    cycle = next(g for g in range(1, 6) if S3.mul[g][g] != 0)
    gens = [w(sys, f"1:1 0:{transposition} 1:1")]
    cert = conjecture_decompose(sys, gens)
    fc0, fc1 = cert.factors
    assert fc0.reps == (w(sys, "1:1"),) and fc0.vertex_groups == (tuple(gens),)
    x = w(sys, f"0:{S3.inv[cycle]} 1:1")
    core = build_core(sys, gens)
    assert trace(core, invert(sys, "G", x)) is None
    assert exhaustive_intersection(sys, core, 0, x) == set(gens)
    moved = dataclasses.replace(cert, factors=(dataclasses.replace(fc0, reps=(x,)), fc1))
    assert verify_certificate(sys, gens, moved).verdict
    # y = b c b leaves the core before its last syllable: its piece is trivial
    y = w(sys, f"1:1 0:{cycle} 1:1")
    assert exhaustive_intersection(sys, core, 0, y) == set()
    wrong = dataclasses.replace(cert, factors=(dataclasses.replace(fc0, reps=(y,)), fc1))
    report = verify_certificate(sys, gens, wrong)
    assert [c.status for c in report.checks] == ["pass", "pass", "fail", "fail", "pass", "fail"]


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
        cert = conjecture_decompose(inst.system, inst.gens)
        for kind, candidate in [("valid", cert)] + list(_tampered(inst.system, cert)):
            c7 = verify_certificate(inst.system, inst.gens, candidate, max_cosets=200).checks[-1]
            assert (c7.status == "pass") == (kind == "valid"), (kind, c7.details)
            seen[kind] += 1
    assert seen["valid"] >= 170 and seen["piece"] and seen["basis"], seen


def test_partial_action_certificates_verify_and_match_the_construction(partial_family):
    # every subgroup of the infinite-index family decomposes; its pieces
    # are the nontrivial orbit stabilisers and its free rank the cycle rank
    # of the action, and each vertex group is H cap G_lam^x, found by brute
    # force over G_lam with membership read off the action itself
    for f in partial_family:
        sys = f.system
        cert, report, graph = decompose_and_check(sys, f.gens)
        assert report.verdict and not graph.complete, f.shape
        assert verify_certificate(sys, f.gens, cert).verdict, f.shape
        pieces = sorted((fc.lam, len(vg) + 1) for fc in cert.factors for vg in fc.vertex_groups)
        assert pieces == list(f.pieces), f.shape
        assert sum(len(fc.f_basis) for fc in cert.factors) == f.free_rank, f.shape
        for fc in cert.factors:
            order = sys.factors_g[fc.lam].order
            for x, vg in zip(fc.reps, fc.vertex_groups):
                xinv = invert(sys, "G", x)
                conjugates = (multiply(sys, "G", multiply(sys, "G", xinv, ((fc.lam, g),)), x) for g in range(1, order))
                assert set(vg) == {word for word in conjugates if f.trace(word) == 0}, f.shape


def _claim_tampers(sys, cert):
    """Copies of the certificate with a changed claim: a free-basis word
    dropped, squared or duplicated, a free-basis word of nontrivial image
    moved to the other factor, a piece dropped, or a vertex-group word
    dropped."""

    def changed(i, **fields):
        fc = dataclasses.replace(cert.factors[i], **fields)
        return dataclasses.replace(cert, factors=cert.factors[:i] + (fc,) + cert.factors[i + 1 :])

    for i, fc in enumerate(cert.factors):
        basis = fc.f_basis
        for j, f in enumerate(basis):
            yield "basis word dropped", changed(i, f_basis=basis[:j] + basis[j + 1 :])
            yield "basis word squared", changed(i, f_basis=basis[:j] + (multiply(sys, "G", f, f),) + basis[j + 1 :])
            yield "basis word duplicated", changed(i, f_basis=basis + (f,))
            if theta_word(sys, f) != EMPTY:
                other = cert.factors[1 - i]
                moved = changed(i, f_basis=basis[:j] + basis[j + 1 :])
                factors = list(moved.factors)
                factors[1 - i] = dataclasses.replace(other, f_basis=other.f_basis + (f,))
                yield "basis word moved", dataclasses.replace(cert, factors=tuple(factors))
        for j, vg in enumerate(fc.vertex_groups):
            yield "piece dropped", changed(
                i, reps=fc.reps[:j] + fc.reps[j + 1 :], vertex_groups=fc.vertex_groups[:j] + fc.vertex_groups[j + 1 :]
            )
            for k in range(len(vg)):
                fewer = fc.vertex_groups[:j] + (vg[:k] + vg[k + 1 :],) + fc.vertex_groups[j + 1 :]
                yield "vertex-group word dropped", changed(i, vertex_groups=fewer)


def test_partial_action_tamper_matrix(partial_family):
    # every tamper that changes the claim fails; emptying the provenance
    # fields, which the claim does not mention, does not
    kinds = {}
    for f in partial_family:
        cert = conjecture_decompose(f.system, f.gens)
        for label, bad in _claim_tampers(f.system, cert):
            assert not verify_certificate(f.system, f.gens, bad).verdict, (f.shape, label)
            kinds[label] = kinds.get(label, 0) + 1
        bare = tuple(dataclasses.replace(fc, beta_primes=(), g_corrections=()) for fc in cert.factors)
        bare_cert = dataclasses.replace(cert, factors=bare, tree_transversal=())
        assert verify_certificate(f.system, f.gens, bare_cert).verdict, f.shape
    assert len(kinds) == 6 and min(kinds.values()) >= 10, kinds
