"""Acceptance suite: one test per criterion, printing one line each."""

import json
import time
from fractions import Fraction

from freedecomp import (
    ThetaNotSurjectiveOntoB,
    build_core,
    canonical_encoding,
    canonicalize,
    complete_graph,
    conjecture_decompose,
    kurosh_decompose,
    lambda_components,
    membership,
    multiply,
    theta_word,
    verify_certificate,
)
from freedecomp.cli import certificate_to_json, main
from freedecomp.conjecture import check_h_theta_surjective
from freedecomp.freeprod import EMPTY, is_normal_form, parse_word

from conftest import enumerate_ball
from naive_enum import brute_force_double_cosets, brute_force_members, rank_formula


def _report(num, ok, details):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {details}"
    print(line)
    assert ok, line


def test_criterion_1_sys_a_end_to_end(tmp_path, capsys):
    t0 = time.perf_counter()
    sys_file = tmp_path / "sys_a.json"
    sys_file.write_text(
        json.dumps(
            {
                "factors_G": ["cyclic 2", "cyclic 2"],
                "factors_B": ["cyclic 2", "cyclic 1"],
                "theta": [[0, 1], [0, 0]],
                "subgroup": ["0:1", "1:1 0:1 1:1"],
            }
        ),
        encoding="utf-8",
    )
    cert_file = tmp_path / "cert.json"
    code = main(["decompose", str(sys_file), "-o", str(cert_file)])
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    cert = json.loads(cert_file.read_text())
    fc0, fc1 = cert["factors"]
    ok = (
        code == 0
        and fc0["reps"] == ["", "1:1"]
        and fc0["vertex_groups"] == [["0:1"], ["1:1 0:1 1:1"]]
        and fc0["f_basis"] == []
        and fc1["reps"] == []
        and fc1["vertex_groups"] == []
        and fc1["f_basis"] == []
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, ok, f"exit 0, reps {{eps, 1:1}}, vertex groups {{a}},{{bab}}, H_1 trivial, {elapsed:.3f}s")


def test_criterion_2_sys_b_kurosh(sys_b, sys_b_gens, capsys):
    t0 = time.perf_counter()
    graph = canonicalize(complete_graph(sys_b, build_core(sys_b, sys_b_gens), 100))
    kd = kurosh_decompose(sys_b, graph)
    orbits = brute_force_double_cosets(sys_b, graph, 0)
    vertex_orbit = {v: i for i, orbit in enumerate(orbits) for v in orbit}
    from freedecomp.covgraph import trace
    from freedecomp.freeprod import invert

    rep_orbits = [vertex_orbit[trace(graph, invert(sys_b, "G", p.rep), 0)] for p in kd.pieces]
    chi_h = sum(Fraction(1, len(p.stabilizer)) for p in kd.pieces) + 1 - len(kd.pieces) - kd.free_rank
    elapsed = time.perf_counter() - t0
    ok = (
        len(kd.pieces) == 3
        and all(p.lam == 0 and len(p.stabilizer) == 2 for p in kd.pieces)
        and len(set(rep_orbits)) == 3
        and EMPTY in [p.rep for p in kd.pieces]
        and kd.free_rank == 0
        and chi_h == 3 * (Fraction(1, 2) + Fraction(1, 3) - 1)
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(2, ok, f"three order-2 pieces, distinct double cosets with eps, rank 0, chi=-1/2, {elapsed:.3f}s")


def test_criterion_3_membership_oracle_agreement(corpus, capsys):
    t0 = time.perf_counter()
    disagreements = 0
    n_words = 0
    for inst in corpus[:200]:
        sys, gens, graph = inst.system, inst.gens, inst.graph
        ball = set(enumerate_ball(sys, 6))
        graph_members = {w for w in ball if membership(sys, graph, w)}
        n_words += len(ball)
        # completeness: every graph member must appear as a generator product
        # (escalating normal-form caps keep the product closure finite)
        found = frozenset()
        for cap in (8, 10, 12, 16):
            found, exhausted = brute_force_members(
                sys, gens, length_cap=cap, state_budget=400_000, targets=graph_members
            )
            if graph_members <= found:
                break
            if not exhausted:
                break
        disagreements += len(graph_members - found)
        # soundness: every generator product in the ball must be a graph member
        for w in found:
            if len(w) <= 6 and w in ball and w not in graph_members:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and len(corpus) >= 200 and elapsed < 60.0
    with capsys.disabled():
        _report(
            3,
            ok,
            f"{min(len(corpus), 200)} systems, {n_words} words of length <= 6, "
            f"{disagreements} disagreements, {elapsed:.1f}s",
        )


def test_criterion_4_certificate_soundness(corpus, capsys):
    t0 = time.perf_counter()
    qualifying = 0
    failures = []
    for idx, inst in enumerate(corpus[:200]):
        try:
            check_h_theta_surjective(inst.system, inst.gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        qualifying += 1
        try:
            cert = conjecture_decompose(inst.system, inst.gens)
        except Exception as exc:  # any pipeline failure is a criterion failure
            failures.append((idx, f"decompose: {exc!r}"))
            continue
        report = verify_certificate(inst.system, inst.gens, cert, max_cosets=200)
        failed = [c.name for c in report.checks if c.status == "fail"]
        if failed:
            failures.append((idx, f"checks failed: {failed}"))
            continue
        c7 = report.checks[-1]
        if not (c7.name.startswith("C7 ") and c7.status == "pass" and c7.details.startswith("exact:")):
            failures.append((idx, f"C7 not an exact pass: {c7.status} {c7.details}"))
    elapsed = time.perf_counter() - t0
    ok = not failures and qualifying >= 50
    detail = f"{qualifying} qualifying systems, C1-C7 exact, {elapsed:.1f}s"
    if failures:
        detail += f"; failures (full reproduction in corpus seed 20250810): {failures[:3]}"
    with capsys.disabled():
        _report(4, ok, detail)


def test_criterion_5_determinism(sys_a, sys_a_gens, corpus, capsys):
    a, bab = sys_a_gens
    redundant = multiply(sys_a, "G", a, bab)

    def bytes_of(system, gens):
        return json.dumps(certificate_to_json(conjecture_decompose(system, gens)), indent=2)

    same = (
        bytes_of(sys_a, [a, bab])
        == bytes_of(sys_a, [bab, a])
        == bytes_of(sys_a, [bab, a, redundant])
        == bytes_of(sys_a, [a, bab])
    )
    enc_ok = True
    for inst in corpus[:25]:
        gens = list(inst.gens)
        e1 = canonical_encoding(build_core(inst.system, gens))
        e2 = canonical_encoding(build_core(inst.system, list(reversed(gens))))
        enc_ok = enc_ok and e1 == e2
    cert_ok = True
    checked = 0
    for inst in corpus:
        if checked >= 10:
            break
        try:
            check_h_theta_surjective(inst.system, inst.gens, 200)
        except ThetaNotSurjectiveOntoB:
            continue
        checked += 1
        b1 = bytes_of(inst.system, list(inst.gens))
        b2 = bytes_of(inst.system, list(reversed(inst.gens)))
        cert_ok = cert_ok and b1 == b2
    ok = same and enc_ok and cert_ok
    with capsys.disabled():
        _report(
            5,
            ok,
            f"byte-identical certificates under rerun/permutation/redundancy ({checked + 1} systems); encodings stable",
        )


def test_criterion_6_invariant_suite(corpus, capsys):
    t0 = time.perf_counter()
    ok = True
    notes = []
    for inst in corpus[:60]:
        sys, graph = inst.system, inst.graph
        # normal-form uniqueness of products of subgroup generators
        acc = EMPTY
        for g in inst.gens:
            acc = multiply(sys, "G", acc, g)
            if not is_normal_form(sys, "G", acc):
                ok = False
                notes.append("normal form")
        # homomorphism law of the factor map on generator pairs
        for u in inst.gens:
            for v in inst.gens:
                lhs = theta_word(sys, multiply(sys, "G", u, v))
                rhs = multiply(sys, "B", theta_word(sys, u), theta_word(sys, v))
                if lhs != rhs:
                    ok = False
                    notes.append("theta law")
        # folding confluence under generator permutation
        e1 = canonical_encoding(build_core(sys, inst.gens))
        e2 = canonical_encoding(build_core(sys, tuple(reversed(inst.gens))))
        if e1 != e2:
            ok = False
            notes.append("confluence")
        # saturation soundness and the rank formula
        kd = kurosh_decompose(sys, graph)
        if kd.free_rank != len(kd.free_basis) or kd.free_rank != rank_formula(sys, graph):
            ok = False
            notes.append("rank formula")
        for lam in range(sys.num_factors):
            group = sys.factors_g[lam]
            for comp in lambda_components(sys, graph, lam):
                for u in comp.vertices:
                    for v in comp.vertices:
                        expected = {
                            group.mul[group.mul[group.inv[comp.coset_label[u]]][s]][comp.coset_label[v]]
                            for s in comp.stabilizer
                        } - {0}
                        actual = {
                            g for g in range(1, group.order) if graph.action[u].get((lam, g)) == v
                        }
                        if expected != actual:
                            ok = False
                            notes.append("saturation")
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(6, ok, f"normal forms, theta law, confluence, saturation, rank formula over 60 instances, {elapsed:.1f}s" + (f"; issues: {sorted(set(notes))}" if notes else ""))


def test_criterion_7_negative_paths(tmp_path, capsys):
    # non-surjective factor map: exit 3
    bad = {
        "factors_G": ["cyclic 4"],
        "factors_B": ["cyclic 4"],
        "theta": [[0, 2, 0, 2]],
        "subgroup": ["0:1"],
    }
    f1 = tmp_path / "bad_theta.json"
    f1.write_text(json.dumps(bad), encoding="utf-8")
    code_nonsurj = main(["decompose", str(f1), "-o", str(tmp_path / "c1.json")])

    # image of H proper in B: named by the image test once C1-C7 fail
    from freedecomp.freeprod import make_system
    from conftest import Z2

    sys_id = make_system([Z2, Z2], [Z2, Z2], [[0, 1], [0, 1]])
    gens = [parse_word(sys_id, "G", "0:1"), parse_word(sys_id, "G", "1:1 0:1 1:1")]
    image_test_raised = False
    try:
        conjecture_decompose(sys_id, gens)
    except ThetaNotSurjectiveOntoB:
        image_test_raised = True

    # trivial subgroup of an infinite product: infinite index, but kurosh
    # reads its one-vertex core, so exit 0 with no pieces and free rank 0
    f2 = tmp_path / "trivial.json"
    f2.write_text(
        json.dumps({"factors_G": ["cyclic 2", "cyclic 2"], "subgroup": [], "bounds": {"max_cosets": 40}}),
        encoding="utf-8",
    )
    code_trivial = main(["kurosh", str(f2)])
    trivial = json.loads(capsys.readouterr().out)

    ok = code_nonsurj == 3 and image_test_raised and code_trivial == 0
    ok = ok and trivial["pieces"] == [] and trivial["free_rank"] == 0
    with capsys.disabled():
        _report(
            7,
            ok,
            f"non-surjective theta exit {code_nonsurj}, image test names the non-onto failure, "
            f"trivial subgroup exit {code_trivial} with free rank {trivial['free_rank']}",
        )
