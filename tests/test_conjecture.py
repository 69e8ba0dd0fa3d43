import json
from dataclasses import replace

import pytest

from freedecomp import (
    ThetaNotSurjectiveOntoB,
    build_core,
    canonical_encoding,
    conjecture_decompose,
    multiply,
    system_hash,
    theta_word,
    verify_certificate,
)
from freedecomp.cli import certificate_to_json, load_system
from freedecomp.conjecture import (
    CertificateRejected,
    canonical_generators,
    check_h_theta_surjective,
    decompose_and_check,
)
from freedecomp.fingroup import cyclic, sym, validate_group
from freedecomp.freeprod import EMPTY, invert, make_system, parse_word
from freedecomp.higgins import TreeBoundExceeded
from freedecomp.verify import _claimed_gens

from conftest import (
    S3,
    TRIV,
    Z2,
    Z3,
    _maps_onto_b,
    eight_shape_family,
    pairing_map,
    sign_map_s3,
    six_shape_family,
    z2z3_point_stabilizer,
)
from naive_enum import (
    BetaImageNotInFactor,
    CrossFactorPieceNontrivial,
    based_coset_table,
    dumps_system_hash,
    gated_decompose_and_check,
    higgins_decompose_and_check,
    schreier_generators,
    small_index_subgroups,
)


def w(sys, text):
    return parse_word(sys, "G", text)


def cert_bytes(cert):
    return json.dumps(certificate_to_json(cert), indent=2)


def test_sys_a_certificate(sys_a, sys_a_gens):
    cert = conjecture_decompose(sys_a, sys_a_gens)
    fc0, fc1 = cert.factors
    assert fc0.reps == (EMPTY, w(sys_a, "1:1"))
    assert fc0.vertex_groups == ((w(sys_a, "0:1"),), (w(sys_a, "1:1 0:1 1:1"),))
    assert fc0.f_basis == ()
    assert fc0.g_corrections == (EMPTY, EMPTY)
    assert fc0.beta_primes == (EMPTY, w(sys_a, "1:1"))
    assert fc1.reps == () and fc1.vertex_groups == () and fc1.f_basis == ()
    assert theta_word(sys_a, w(sys_a, "1:1")) == EMPTY


def test_whole_group_certificate(sys_b):
    gens = [w(sys_b, "0:1"), w(sys_b, "1:1")]
    cert = conjecture_decompose(sys_b, gens)
    for fc, order in zip(cert.factors, (2, 3)):
        assert fc.reps == (EMPTY,)
        assert len(fc.vertex_groups[0]) == order - 1
        assert fc.f_basis == ()


def test_determinism_and_input_canonicalization(sys_a, sys_a_gens):
    a, bab = sys_a_gens
    redundant = multiply(sys_a, "G", a, bab)
    b1 = cert_bytes(conjecture_decompose(sys_a, [a, bab]))
    b2 = cert_bytes(conjecture_decompose(sys_a, [bab, a]))
    b3 = cert_bytes(conjecture_decompose(sys_a, [bab, a, redundant]))
    b4 = cert_bytes(conjecture_decompose(sys_a, [a, bab]))
    assert b1 == b2 == b3 == b4


def test_theta_surjectivity_precheck():
    sys = make_system([Z2, Z2], [Z2, Z2], [[0, 1], [0, 1]])
    gens = [w(sys, "0:1"), w(sys, "1:1 0:1 1:1")]
    with pytest.raises(ThetaNotSurjectiveOntoB):
        check_h_theta_surjective(sys, gens, 100)
    with pytest.raises(ThetaNotSurjectiveOntoB):
        conjecture_decompose(sys, gens)


def test_reps_are_image_trivial_and_consistent(corpus):
    checked = 0
    for inst in corpus:
        if checked >= 25:
            break
        try:
            cert = conjecture_decompose(inst.system, inst.gens)
        except ThetaNotSurjectiveOntoB:
            continue
        checked += 1
        for fc in cert.factors:
            for x, g, bp in zip(fc.reps, fc.g_corrections, fc.beta_primes):
                assert theta_word(inst.system, x) == EMPTY
                assert multiply(inst.system, "G", invert(inst.system, "G", g), bp) == x
                assert all(l == fc.lam for l, _ in g)


def test_h_generators_generate(sys_phase2, sys_phase2_gens):
    # the vertex groups and free bases generate H
    cert = conjecture_decompose(sys_phase2, sys_phase2_gens)
    claimed = [w for fc in cert.factors for vg in fc.vertex_groups for w in vg]
    claimed += [w for fc in cert.factors for w in fc.f_basis]
    e1 = canonical_encoding(build_core(sys_phase2, claimed))
    e2 = canonical_encoding(build_core(sys_phase2, sys_phase2_gens))
    assert e1 == e2


def test_s3_partial_kernel_instance():
    # S3 * Z2 with the second factor collapsed; the transversal needs the
    # kernel-closure rule to keep the factors from overlapping
    sys = make_system([S3, Z2], [S3, TRIV], [[0, 1, 2, 3, 4, 5], [0, 0]])
    gens = [w(sys, "1:1"), w(sys, "0:5 1:1 0:4 1:1"), w(sys, "0:1 1:1")]
    cert = conjecture_decompose(sys, gens)
    from freedecomp import verify_certificate

    report = verify_certificate(sys, gens, cert)
    assert report.verdict


def test_sign_quotient_instance():
    sys = make_system([S3, Z2], [Z2, Z2], [sign_map_s3(), [0, 1]])
    gens = [w(sys, "0:1"), w(sys, "1:1"), w(sys, "0:3")]
    cert = conjecture_decompose(sys, gens)
    from freedecomp import verify_certificate

    assert verify_certificate(sys, gens, cert).verdict


def test_trivial_subgroup_single_factor():
    # H = 1 inside a single finite factor, with the whole factor collapsed
    sys = make_system([S3], [TRIV], [[0] * 6])
    cert = conjecture_decompose(sys, [])
    fc = cert.factors[0]
    assert fc.reps == () and fc.vertex_groups == () and fc.f_basis == ()
    from freedecomp import verify_certificate

    assert verify_certificate(sys, [], cert).verdict


def test_single_factor_system():
    # one factor only: the subgroup of a finite group, sign map onto Z2
    sys = make_system([S3], [Z2], [sign_map_s3()])
    gens = [w(sys, "0:1")]  # one transposition, index 3
    cert = conjecture_decompose(sys, gens)
    from freedecomp import verify_certificate

    assert verify_certificate(sys, gens, cert).verdict
    fc = cert.factors[0]
    assert fc.reps == (EMPTY,)
    assert fc.vertex_groups == ((w(sys, "0:1"),),)
    assert fc.f_basis == ()


def test_system_hash_sensitivity(sys_a, sys_b):
    assert system_hash(sys_a) == system_hash(sys_a)
    assert system_hash(sys_a) != system_hash(sys_b)


def test_system_hash_matches_json_dumps(corpus):
    # the hand-written JSON hashes to the bytes of json.dumps, whatever the
    # table sizes and whatever JSON value names a group
    from test_cli import s5z2_system

    systems = [inst.system for inst in corpus]
    systems.append(load_system(s5z2_system())[0])
    systems.append(make_system([cyclic(2000), Z2], [Z2, Z2], [[x % 2 for x in range(2000)], [0, 1]]))
    for name in ('say "hi"', "Z\u2082 \u00d7 \u03a3", ["Z", 3], {"z": [1, None], "a": "\u00e9"}, 7, None):
        z3 = validate_group([list(row) for row in cyclic(3).mul], name=name)
        systems.append(make_system([z3, S3], [TRIV, Z2], [[0, 0, 0], sign_map_s3()]))
    for sys in systems:
        assert system_hash(sys) == dumps_system_hash(sys)


def test_system_hash_is_computed_at_most_once_per_decompose(sys_a, sys_a_gens, monkeypatch):
    # C1-C7 read no hash, so only the accepted certificate is hashed
    from freedecomp import conjecture
    from freedecomp.verify import VerificationReport

    calls = []
    monkeypatch.setattr(conjecture, "system_hash", lambda s: calls.append(s) or system_hash(s))
    cert, report, _ = decompose_and_check(sys_a, sys_a_gens)
    assert report.verdict and cert.system_hash == system_hash(sys_a)
    assert calls == [sys_a]

    calls.clear()
    monkeypatch.setattr(conjecture, "check_certificate", lambda *a: VerificationReport(checks=(), verdict=False))
    with pytest.raises(CertificateRejected, match="^failed"):
        decompose_and_check(sys_a, sys_a_gens)
    assert calls == []


def test_image_test_runs_only_to_name_a_failure(corpus, monkeypatch):
    # a passing report implies theta(H) = B, so an onto system decomposes
    # without the image test, and a non-onto one fails C1-C7 and is named
    # by the image test's own message
    from freedecomp import conjecture

    messages = []
    for inst in corpus:
        try:
            check_h_theta_surjective(inst.system, inst.gens)
            messages.append(None)
        except ThetaNotSurjectiveOntoB as exc:
            messages.append(str(exc))
    assert 0 < messages.count(None) < len(corpus)

    def image_test(*args):
        raise AssertionError("image test ran on an onto system")

    for inst, message in zip(corpus, messages):
        if message is None:
            with monkeypatch.context() as m:
                m.setattr(conjecture, "check_h_theta_surjective", image_test)
                assert decompose_and_check(inst.system, inst.gens)[1].verdict
        else:
            with pytest.raises(ThetaNotSurjectiveOntoB) as raised:
                decompose_and_check(inst.system, inst.gens)
            assert str(raised.value) == message


def test_canonical_generators():
    assert canonical_generators([(), ((0, 1),), ((0, 1),)]) == (((0, 1),),)
    assert canonical_generators([((1, 1),), ((0, 1),)]) == (((0, 1),), ((1, 1),))


def test_decompose_at_index_1200():
    # two fixed points of a give two Z2 pieces and three of b three Z3
    # pieces; theta kills Z3, so a free generator lands in factor 0 where
    # its image is a, and stays in the factor of its edge where its image
    # is trivial
    ps = z2z3_point_stabilizer(1200, fixed=(2, 3))
    cert, report, graph = decompose_and_check(ps.system, ps.gens)
    assert report.verdict and graph.vertex_count == 1200
    fc0, fc1 = cert.factors
    assert [len(vg) for vg in fc0.vertex_groups] == [1, 1]
    assert [len(vg) for vg in fc1.vertex_groups] == [2, 2, 2]
    assert len(fc0.f_basis) + len(fc1.f_basis) == ps.free_rank == 198
    assert ((0, 1),) in {theta_word(ps.system, f) for f in fc0.f_basis} <= {EMPTY, ((0, 1),)}
    assert {theta_word(ps.system, f) for f in fc1.f_basis} <= {EMPTY}


def _accepted(decompose, system, gens, rejections):
    try:
        return cert_bytes(decompose(system, gens)[0])
    except rejections:
        return None


def test_decompose_accepts_what_the_gated_assembly_accepted():
    # the gates raised before a candidate reached C1-C7; every system the
    # gated oracle certifies, decompose certifies too
    gates = (CrossFactorPieceNontrivial, BetaImageNotInFactor)
    old_accepted = new_accepted = 0
    for shape, system, gens in six_shape_family(seed=31, per_shape=4, max_index=16):
        old = _accepted(gated_decompose_and_check, system, gens, (TreeBoundExceeded, CertificateRejected, *gates))
        new = _accepted(decompose_and_check, system, gens, ())
        old_accepted += old is not None
        new_accepted += new is not None
    assert 0 < old_accepted < new_accepted == 24


def _oracle_cases(corpus, growth, partial_family):
    """(label, system, generators) of the corpus, six_shape_family seed 31,
    the growth and partial-action fixtures and the pinned S5*Z2 system."""
    from test_cli import s5z2_system
    from freedecomp.cli import load_system

    for i, inst in enumerate(corpus):
        yield f"corpus {i}", inst.system, inst.gens
    for i, (shape, system, gens) in enumerate(six_shape_family(seed=31, per_shape=4, max_index=16)):
        yield f"{shape} {i}", system, gens
    for i, (shape, system, gens) in enumerate(growth):
        yield f"{shape} {i}", system, gens
    for i, ps in enumerate(partial_family):
        yield f"{ps.shape} {i}", ps.system, ps.gens
    system, gens, _ = load_system(s5z2_system())
    yield "pinned S5*Z2", system, gens


def test_decompose_certifies_every_onto_system_the_oracle_certifies(corpus, growth, partial_family):
    # the theorem gives a decomposition whenever H maps onto B, and the
    # Kurosh basis, once reduced, is one; the transversal search with its
    # retries certifies only some of these systems
    onto = oracle_accepted = 0
    for label, system, gens in _oracle_cases(corpus, growth, partial_family):
        try:
            check_h_theta_surjective(system, gens)
        except ThetaNotSurjectiveOntoB:
            continue
        onto += 1
        cert, report, _ = decompose_and_check(system, gens)
        assert report.verdict, label
        try:
            higgins_decompose_and_check(system, gens)
        except (TreeBoundExceeded, CertificateRejected):
            continue
        oracle_accepted += 1
    assert onto == 181 + 24 + 60 + 60 + 1 and oracle_accepted < onto


def test_corpus_certificates_equal_the_oracles_without_the_transversal(corpus):
    seen = 0
    for inst in corpus:
        try:
            old, _, _ = higgins_decompose_and_check(inst.system, inst.gens)
        except ThetaNotSurjectiveOntoB:
            continue
        cert, _, _ = decompose_and_check(inst.system, inst.gens)
        assert cert == replace(old, tree_transversal=())
        seen += 1
    assert seen == 181


def test_decompose_on_its_own_claim_is_a_fixed_point(corpus):
    # a certificate depends on H, not on its generators: decompose run on
    # the words a certificate claims generate H returns that certificate
    cases = [(inst.system, inst.gens) for inst in corpus]
    cases += [(ps.system, ps.gens) for ps in map(z2z3_point_stabilizer, (60, 300))]
    seen = 0
    for system, gens in cases:
        try:
            cert = conjecture_decompose(system, gens)
        except (ThetaNotSurjectiveOntoB, CertificateRejected):
            continue
        claimed = [x for fc in cert.factors for vg in fc.vertex_groups for x in vg]
        claimed += [f for fc in cert.factors for f in fc.f_basis]
        assert cert_bytes(conjecture_decompose(system, claimed)) == cert_bytes(cert)
        seen += 1
    assert seen >= 180


# (seed, index) -> (shape, core vertices) of the eight-shape systems on which
# the reduction stalls; products of units left three, (2, 34) and (4, 45)
# onto S3*Z2 and (3, 71) onto S3*Z3, which equal-cost moves certify
EIGHT_SHAPE_STALLS: dict = {}


def test_products_of_units_certify_the_eight_shape_family(eight_shapes):
    # single moves alone stall on 71 of these 800 onto systems, where a
    # factor of B has order above 3; with products of units within one
    # factor of B and then equal-cost moves, all decompose and verify
    stalls = {}
    for seed, family in eight_shapes.items():
        assert len(family) == 200
        for i, (shape, system, gens) in enumerate(family):
            try:
                cert, _, _ = decompose_and_check(system, gens)
            except CertificateRejected as exc:
                assert str(exc) == "failed C1 image-trivial representatives, C2 factor image generation"
                stalls[seed, i] = (shape, build_core(system, gens).vertex_count)
                continue
            assert verify_certificate(system, gens, cert).verdict, (seed, i)
    assert stalls == EIGHT_SHAPE_STALLS


# (seed, index) in eight_shape_family(seed, 25, 40) of the systems on which
# products of units stalled, each certified by equal-cost moves
EIGHT_SHAPE_TIE_STALLS = {
    7: (41,),
    9: (41, 45),
    13: (20, 37),
    14: (46,),
    15: (94,),
    17: (44,),
    18: (29, 37, 119),
    21: (75,),
    23: (90,),
}


def test_equal_cost_moves_certify_the_products_of_units_stalls():
    for seed, indices in EIGHT_SHAPE_TIE_STALLS.items():
        family = eight_shape_family(seed, per_shape=25, max_index=40)
        for i in indices:
            _, system, gens = family[i]
            cert, report, _ = decompose_and_check(system, gens)
            assert report.verdict and verify_certificate(system, gens, cert).verdict, (seed, i)


def test_smallest_single_move_stall_decomposes(eight_shapes):
    # S3*S3 onto S3*Z2 (identity, sign) with a core of 5 vertices, the
    # smallest system of the family on which single moves alone stall
    shape, system, gens = eight_shapes[3][3]
    assert shape == "S3*S3" and build_core(system, gens).vertex_count == 5
    cert, report, _ = decompose_and_check(system, gens)
    assert report.verdict and verify_certificate(system, gens, cert).verdict


def _s4_shape(k1):
    """S4 * k1 onto S3 * k1, S4 by ``pairing_map`` and k1 by the identity."""
    return make_system([sym(4), k1], [S3, k1], [pairing_map(), list(range(k1.order))])


# sympy presentations of the same groups: S4 = <a, b | a^2, b^3, (ab)^4>
SYMPY_SHAPES = {"S4*Z2": (Z2, 2), "S4*Z3": (Z3, 3)}


@pytest.mark.parametrize("shape", sorted(SYMPY_SHAPES))
def test_small_index_enumerator_matches_sympy(shape):
    # per index n <= 5: as many conjugacy classes as sympy's
    # low_index_subgroups finds, and as many subgroups as its coset tables
    # have distinct base points
    from sympy.combinatorics.fp_groups import FpGroup, low_index_subgroups
    from sympy.combinatorics.free_groups import free_group

    k1, order = SYMPY_SHAPES[shape]
    free, a, b, c = free_group("a b c")
    tables = [t.table for t in low_index_subgroups(FpGroup(free, [a**2, b**3, (a * b) ** 4, c**order]), 5)]
    system = _s4_shape(k1)
    for n in range(1, 6):
        ours = small_index_subgroups(system, n)
        theirs = [dict(enumerate(zip(*table))) for table in tables if len(table) == n]
        assert len({sub.class_key for sub in ours}) == len(theirs), n
        assert len(ours) == sum(len({based_coset_table(moves, p) for p in range(n)}) for moves in theirs), n


# onto subgroups per index 1..6; index 1 is G itself
ONTO_SMALL_INDEX = {"S4*Z2": (1, 0, 0, 40, 80, 576), "S4*Z3": (1, 0, 0, 36, 60, 792)}


@pytest.mark.parametrize("shape", sorted(ONTO_SMALL_INDEX))
def test_every_onto_subgroup_of_small_index_decomposes(shape):
    # every subgroup of index <= 6 that maps onto B decomposes and
    # verifies, and its claimed words build H's core
    system = _s4_shape(SYMPY_SHAPES[shape][0])
    onto = []
    for n in range(1, 7):
        subgroups = [sub for sub in small_index_subgroups(system, n) if _maps_onto_b(system, sub.moves, n)]
        onto.append(len(subgroups))
        for sub in subgroups:
            cert, report, graph = decompose_and_check(system, sub.gens)
            assert report.verdict and verify_certificate(system, sub.gens, cert).verdict, sub.table
            assert build_core(system, [x for fc in cert.factors for x in _claimed_gens(fc)]) == graph
    assert tuple(onto) == ONTO_SMALL_INDEX[shape]


# the 19 subgroups of index 7 of S3*S3 onto S3*Z2 (id, sign), in 14
# conjugacy classes, on which the reduction stalls: 19 of the 29,792 onto
# subgroups that small_index_subgroups lists among all 30,527 (about 50 s,
# too slow for the test suite); each is a based coset table, one digit
# string per coset with its targets in (lam, g) order
KNOWN_STALLS = (
    "0000011001 2132300110 1313222222 3221134455 5465653534 4646545343 6554466666",
    "0000011001 2132300110 1313222222 3221143545 5465635354 4646554433 6554466666",
    "0000011001 2323100110 1231334342 3112223424 5544542233 4455466556 6666655665",
    "0000011001 2211200110 1122123344 5345442423 4553334232 3434566556 6666655665",
    "0000011001 2323100110 1231343432 3112232244 5544524323 4455466556 6666655665",
    "0000011001 2211200110 1122132434 5345424243 4553343322 3434566556 6666655665",
    "0000011001 2323100110 1231332434 3112224243 5544543322 4455466556 6666655665",
    "0000011001 2323100110 1231323344 3112242423 5544534232 4455466556 6666655665",
    "0000011001 2323100110 1231342343 3112234422 5544523234 4455466556 6666655665",
    "0000011001 2323100110 1231324433 3112243242 5544532324 4455466556 6666655665",
    "1100122002 0011033113 4545200220 6633611331 2452556564 5224445646 3366364455",
    "1100122002 0011033113 4422400220 5656311331 2244245566 3563664645 6335556454",
    "1100122002 0011033113 4545200220 6633611331 2452565654 5224454466 3366346545",
    "1100122002 0011033113 4422400220 5656311331 2244254656 3563646465 6335565544",
    "1100122002 0011033113 4545200220 6633611331 2452554656 5224446465 3366365544",
    "1100122002 0011033113 4545200220 6633611331 2452545566 5224464645 3366356454",
    "1100122002 0011033113 4545200220 6633611331 2452564565 5224456644 3366345456",
    "1100122002 0011033113 4422400220 5656311331 2244256564 3563645646 6335564455",
    "1100122002 0011033113 4545200220 6633611331 2452546655 5224465464 3366354546",
)


def test_known_stalls_map_onto_b_and_are_rejected():
    # the reduction is not complete (conjecture docstring): each of these
    # maps onto B, so the paper's theorem gives it a decomposition, yet its
    # certificate fails C1 and C2.  Making the reduction complete (ROADMAP
    # item 1) must flip this test: each must then decompose and verify.
    system = make_system([S3, S3], [S3, Z2], [list(range(6)), sign_map_s3()])
    classes = set()
    for text in KNOWN_STALLS:
        table = tuple(tuple(map(int, row)) for row in text.split())
        moves, gens = schreier_generators(system, table)
        assert based_coset_table(moves, 0) == table
        classes.add(min(based_coset_table(moves, p) for p in range(7)))
        check_h_theta_surjective(system, gens)
        with pytest.raises(CertificateRejected) as rejected:
            decompose_and_check(system, gens)
        assert str(rejected.value) == "failed C1 image-trivial representatives, C2 factor image generation"
    assert len(set(KNOWN_STALLS)) == 19 and len(classes) == 14


@pytest.mark.parametrize(
    "gens",
    [[((0, 1),), ((1, 1), (1, 2))], [((0, 0), (0, 1))], [((0, 1), (0, 1), (0, 1))]],
    ids=["identity-word", "identity-syllable", "same-factor-syllables"],
)
def test_generators_not_in_normal_form_are_normalized(gens):
    # H = <a> in Z2*Z3 onto Z2*1: the library normalizes a generator that is
    # not in normal form, as parse_word does on the command line, so it
    # builds H's core and gives H's certificate
    system = make_system([Z2, Z3], [Z2, TRIV], [[0, 1], [0, 0, 0]])
    expected, _, core = decompose_and_check(system, [((0, 1),)])
    cert, report, graph = decompose_and_check(system, gens)
    assert report.verdict and cert == expected and graph == core
    assert verify_certificate(system, gens, expected).verdict


def test_out_of_range_generator_syllable_raises_value_error():
    system = make_system([Z2, Z3], [Z2, TRIV], [[0, 1], [0, 0, 0]])
    cert = decompose_and_check(system, [((0, 1),)])[0]
    with pytest.raises(ValueError, match="element 2 out of range for factor 0"):
        decompose_and_check(system, [((0, 2),)])
    with pytest.raises(ValueError, match="element 2 out of range for factor 0"):
        verify_certificate(system, [((0, 1),), ((0, 1), (0, 2))], cert)
