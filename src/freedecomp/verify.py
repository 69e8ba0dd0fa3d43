"""Independent verification of decomposition certificates.

Every check C1-C7 is a decision procedure.  C7 decides that the pieces and
the free basis form a free-product basis of H: given C3 (each piece is
exactly H cap G_lam^x) and C5 (the pieces and the basis generate H), the
formal free product Pi of the pieces and a free group on the basis maps
onto H, and it is isomorphic to H exactly when its Kurosh fingerprint
(multiset of factor/conjugacy-class pairs plus free rank) equals H's, by
the uniqueness part of Kurosh's theorem.  Pi is finitely generated and
virtually free, hence residually finite and so Hopfian (Mal'cev), so an
onto map Pi -> H between isomorphic groups is an isomorphism.

The double-coset oracle deliberately avoids the spanning tree and Schreier
machinery: orbits are computed directly on the coset graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .covgraph import (
    CoreGraph,
    GraphNotComplete,
    IndexBoundExceeded,
    build_core,
    canonical_encoding,
    canonicalize,
    complete_graph,
    membership,
    trace,
)
from .fingroup import subgroup_closure, subgroup_conjugacy_key
from .freeprod import EMPTY, FactorSystem, invert, is_normal_form, multiply, theta_word
from .kurosh import KuroshInvariants, kurosh_decompose, kurosh_invariants, merge_invariants

if TYPE_CHECKING:  # pragma: no cover
    from .conjecture import ConjectureCertificate


class MalformedCertificate(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    details: str
    elapsed_ms: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    verdict: bool

    def summary(self) -> str:
        lines = [
            f"{c.name}: {c.status} ({c.elapsed_ms:.1f} ms) {c.details}".rstrip()
            for c in self.checks
        ]
        lines.append(f"verdict: {'pass' if self.verdict else 'FAIL'}")
        return "\n".join(lines)


def brute_force_double_cosets(sys: FactorSystem, graph: CoreGraph, lam: int) -> list[tuple[int, ...]]:
    """Orbits of the factor-lam action on the cosets of the complete graph.

    Orbits are in bijection with the double cosets of the factor against the
    subgroup; returned sorted by smallest vertex, so indices are canonical ids.
    """
    if not graph.complete:
        raise GraphNotComplete("double-coset orbits need the full coset graph")
    group = sys.factors_g[lam]
    seen = set()
    orbits = []
    for start in range(graph.vertex_count):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        qi = 0
        while qi < len(orbit):
            u = orbit[qi]
            qi += 1
            for g in range(1, group.order):
                v = graph.action[u][(lam, g)]
                if v not in seen:
                    seen.add(v)
                    orbit.append(v)
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _structural_validation(sys: FactorSystem, cert: "ConjectureCertificate") -> None:
    from .conjecture import system_hash

    if cert.system_hash != system_hash(sys):
        raise MalformedCertificate("certificate was issued for a different system")
    if len(cert.factors) != sys.num_factors:
        raise MalformedCertificate("certificate factor count mismatch")
    for i, fc in enumerate(cert.factors):
        if fc.lam != i:
            raise MalformedCertificate(f"factor entry {i} labeled {fc.lam}")
        n = len(fc.beta_primes)
        if not (len(fc.g_corrections) == len(fc.reps) == len(fc.vertex_groups) == n):
            raise MalformedCertificate(f"factor {fc.lam}: piece lists have inconsistent lengths")
        for w in list(fc.beta_list) + list(fc.beta_primes) + list(fc.reps) + list(fc.f_basis) + list(
            fc.h_lambda_gens
        ) + [x for vg in fc.vertex_groups for x in vg] + list(fc.g_corrections):
            if not is_normal_form(sys, "G", w):
                raise MalformedCertificate(f"factor {fc.lam}: word {w!r} is not in normal form")
        for g in fc.g_corrections:
            if any(l != fc.lam for l, _ in g):
                raise MalformedCertificate(f"factor {fc.lam}: correction {g!r} outside its factor")


def verify_certificate(
    sys: FactorSystem,
    h_gens,
    cert: "ConjectureCertificate",
    *,
    max_cosets: int = 10_000,
    free_test_len: int = 8,
    seed: int = 0,
) -> VerificationReport:
    """Validate the certificate's shape, rebuild H's coset graph from
    ``h_gens`` independently, and run checks C1-C7 against it.

    ``free_test_len`` and ``seed`` are ignored; the benchmark harness still
    passes them.
    """
    _structural_validation(sys, cert)
    h_gens = tuple(tuple(w) for w in h_gens)
    graph = canonicalize(complete_graph(sys, build_core(sys, h_gens), max_cosets))
    return check_certificate(sys, graph, cert, max_cosets)


def check_certificate(
    sys: FactorSystem, graph: CoreGraph, cert: "ConjectureCertificate", max_cosets: int
) -> VerificationReport:
    """Run checks C1-C7 of a structurally valid certificate against the
    complete canonical coset graph of H."""
    checks: list[CheckResult] = []
    whole: KuroshInvariants | None = None  # H's fingerprint: set by C6, read by C7

    def run(name, fn):
        t0 = time.perf_counter()
        ok, details = fn()
        dt = (time.perf_counter() - t0) * 1000.0
        checks.append(CheckResult(name=name, status="pass" if ok else "fail", details=details, elapsed_ms=dt))

    def c1():
        bad = []
        for fc in cert.factors:
            for x in fc.reps:
                if theta_word(sys, x) != EMPTY:
                    bad.append(f"rep {x} of factor {fc.lam} has nontrivial image")
            for b in fc.beta_list:
                if theta_word(sys, b) != EMPTY:
                    bad.append(f"beta {b} of factor {fc.lam} has nontrivial image")
            for g, bp, x in zip(fc.g_corrections, fc.beta_primes, fc.reps):
                if multiply(sys, "G", invert(sys, "G", g), bp) != x:
                    bad.append(f"factor {fc.lam}: rep != correction^-1 * beta'")
        for t in cert.tree_transversal:
            if theta_word(sys, t) != EMPTY:
                bad.append("transversal word with nontrivial image")
        return (not bad, "; ".join(bad[:3]))

    def c2():
        bad = []
        for fc in cert.factors:
            group_b = sys.factors_b[fc.lam]
            elems = set()
            for w in fc.h_lambda_gens:
                img = theta_word(sys, w)
                if any(l != fc.lam for l, _ in img):
                    bad.append(f"factor {fc.lam}: generator image leaves B_{fc.lam}")
                    continue
                e = 0
                for _, x in img:
                    e = group_b.mul[e][x]
                elems.add(e)
            if subgroup_closure(group_b, elems) != frozenset(range(group_b.order)):
                bad.append(f"factor {fc.lam}: images do not generate the target factor")
        return (not bad, "; ".join(bad[:3]))

    def c3():
        bad = []
        for fc in cert.factors:
            group = sys.factors_g[fc.lam]
            for mu, (x, vg) in enumerate(zip(fc.reps, fc.vertex_groups)):
                xinv = invert(sys, "G", x)
                computed = set()
                for g in range(1, group.order):
                    w = multiply(sys, "G", multiply(sys, "G", xinv, ((fc.lam, g),)), x)
                    if membership(sys, graph, w):
                        computed.add(w)
                if computed != set(vg):
                    bad.append(f"factor {fc.lam} piece {mu}: vertex group differs from exhaustive intersection")
        return (not bad, "; ".join(bad[:3]))

    def c4():
        bad = []
        for fc in cert.factors:
            group = sys.factors_g[fc.lam]
            orbits = brute_force_double_cosets(sys, graph, fc.lam)
            vertex_orbit = {}
            for i, orbit in enumerate(orbits):
                for v in orbit:
                    vertex_orbit[v] = i
            rep_orbits = []
            for x in fc.reps:
                v = trace(graph, invert(sys, "G", x), graph.base)
                rep_orbits.append(vertex_orbit[v])
            if len(set(rep_orbits)) != len(rep_orbits):
                bad.append(f"factor {fc.lam}: two representatives share a double coset")
            nontrivial = {i for i, orbit in enumerate(orbits) if len(orbit) < group.order}
            if set(rep_orbits) != nontrivial:
                bad.append(f"factor {fc.lam}: representatives do not match the nontrivial double cosets")
            base_has_stab = any(
                graph.action[graph.base].get((fc.lam, g)) == graph.base for g in range(1, group.order)
            )
            if base_has_stab and EMPTY not in fc.reps:
                bad.append(f"factor {fc.lam}: trivial representative missing")
        return (not bad, "; ".join(bad[:3]))

    def c5():
        words = []
        for fc in cert.factors:
            for vg in fc.vertex_groups:
                words.extend(vg)
            words.extend(fc.f_basis)
        stray = [
            w
            for fc in cert.factors
            for w in list(fc.h_lambda_gens) + [x for vg in fc.vertex_groups for x in vg] + list(fc.f_basis)
            if not membership(sys, graph, w)
        ]
        if stray:
            return False, f"{len(stray)} certificate words are outside the subgroup"
        try:
            regraph = complete_graph(sys, build_core(sys, tuple(words)), max_cosets)
        except IndexBoundExceeded:
            return False, "regenerated subgroup exceeds the coset bound"
        same = canonical_encoding(regraph) == canonical_encoding(graph)
        return same, "" if same else "regenerated coset graph differs"

    def c6():
        nonlocal whole
        whole = kurosh_invariants(sys, kurosh_decompose(sys, graph))
        parts = []
        for fc in cert.factors:
            if fc.h_lambda_gens:
                core = canonicalize(build_core(sys, tuple(fc.h_lambda_gens)))
                parts.append(kurosh_invariants(sys, kurosh_decompose(sys, core)))
        merged = merge_invariants(parts)
        if whole == merged:
            return True, ""
        return False, f"fingerprints differ: whole={whole} merged={merged}"

    def c7():
        passed = {c.name.split()[0] for c in checks if c.status == "pass"}
        if not {"C3", "C5"} <= passed:
            return False, "needs C3 and C5"
        classes = []
        for fc in cert.factors:
            group = sys.factors_g[fc.lam]
            for x, vg in zip(fc.reps, fc.vertex_groups):
                xinv = invert(sys, "G", x)
                members = set(vg)
                stab = [
                    g
                    for g in range(group.order)
                    if not g or multiply(sys, "G", multiply(sys, "G", xinv, ((fc.lam, g),)), x) in members
                ]
                classes.append((fc.lam, subgroup_conjugacy_key(group, stab)))
        rank = sum(len(fc.f_basis) for fc in cert.factors)
        if tuple(sorted(classes)) != whole.piece_classes:
            return False, f"piece classes {sorted(classes)} differ from the subgroup's {list(whole.piece_classes)}"
        if rank != whole.free_rank:
            return False, f"{rank} free-basis words for free rank {whole.free_rank}"
        return True, "exact: pieces and free basis match the Kurosh fingerprint of the subgroup"

    run("C1 image-trivial representatives", c1)
    run("C2 factor image generation", c2)
    run("C3 vertex groups", c3)
    run("C4 double cosets", c4)
    run("C5 generation", c5)
    run("C6 decomposition fingerprint additivity", c6)
    run("C7 free-product basis", c7)

    verdict = all(c.status == "pass" for c in checks if c.status != "skipped")
    return VerificationReport(checks=tuple(checks), verdict=verdict)
