"""Independent verification of decomposition certificates.

A certificate claims H = *_lam H_lam with theta(H_lam) = B_lam and
H_lam = *(H cap G_lam^x) * F_lam, where factor lam lists the pieces
H cap G_lam^x (its vertex groups) and a free basis of F_lam.  Every check
C1-C7 is a decision procedure.  C1 decides that the representatives and
the transversal words are image-trivial, and that there is one
transversal word per coset, word i leading from the base to coset i of
H's canonically numbered coset graph.  C2 decides, for each factor lam,
that the images of the words generating H_lam (its vertex-group words and
its free basis) lie in B_lam and generate it, so a free-basis word cannot
move to another factor unnoticed.  C3 decides that each piece is exactly
H cap G_lam^x: x^-1 g x lies in H exactly when Hx^-1 g = Hx^-1, so the
piece is x^-1 Stab(v) x for the vertex v = Hx^-1, and Stab(v) is read off
v's lam-component of the coset graph.  C4 decides that the representatives
lie in pairwise distinct lam-components, one in each component whose
stabilizer is nontrivial, with the empty word in the base's when that one
is nontrivial; the lam-components are the lam-orbits of the cosets, in
bijection with the double cosets of G_lam and H.  C5 decides that the
pieces and the free bases generate H: membership shows that they generate
some K <= H, and completing K's graph with the coset bound set to H's
index succeeds exactly when [G : K] is at most [G : H], that is when
K = H.  C7 decides that the pieces and the free basis form a free-product
basis of H: given C3 and C5, the formal free product Pi of the pieces and
a free group on the basis maps onto H, and it is isomorphic to H exactly
when its Kurosh fingerprint (multiset of factor/conjugacy-class pairs plus
free rank) equals H's, by the uniqueness part of Kurosh's theorem.  Pi is
finitely generated and virtually free, hence residually finite and so
Hopfian (Mal'cev), so an onto map Pi -> H between isomorphic groups is an
isomorphism.

H's fingerprint is read off the lam-components of its coset graph: one
piece per component with a nontrivial stabilizer, classed by that
stabilizer's conjugacy class in G_lam, and free rank (k - 1) n - C + 1
for k factors, index n and C components in all, the cycle rank of the
graph with the vertices and the components as nodes and one edge per
vertex and component containing it.  Given C3 and C4 the piece classes
already agree: C4 pairs the representatives one-to-one with the components
of nontrivial stabilizer, C3 makes the piece at x equal to x^-1 Stab(v) x,
of class Stab(v), for the vertex v = Hx^-1 of x's component, and the
stabilizers of the vertices of one component are conjugate in G_lam
(Stab(v a) = a^-1 Stab(v) a).  So C7 needs C3, C4 and C5 and compares
only the number of free-basis words with the free rank.

So C2, C3, C5 and C7, which needs C4, decide the whole claim: grouping a
free-product basis of H by factor writes H as *_lam H_lam with
H_lam = *(pieces of lam) * F_lam, and C2 gives theta(H_lam) = B_lam.  A
separate list of generators of each H_lam, and a check comparing H's
fingerprint with the merged fingerprints of those lists, would certify
nothing more, so the certificate has neither.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .covgraph import (
    CoreGraph,
    GraphNotComplete,
    IndexBoundExceeded,
    LambdaForest,
    build_core,
    complete_graph,
    lambda_forest,
    membership,
    trace,
)
from .fingroup import subgroup_closure
from .freeprod import EMPTY, FactorSystem, invert, is_normal_form, multiply, theta_word

if TYPE_CHECKING:  # pragma: no cover
    from .conjecture import ConjectureCertificate


class MalformedCertificate(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
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


def _structural_validation(sys: FactorSystem, cert: "ConjectureCertificate") -> None:
    from .conjecture import system_hash

    if cert.system_hash != system_hash(sys):
        raise MalformedCertificate("certificate was issued for a different system")
    if len(cert.factors) != sys.num_factors:
        raise MalformedCertificate("certificate factor count mismatch")
    for i, fc in enumerate(cert.factors):
        if not isinstance(fc.lam, int) or isinstance(fc.lam, bool) or fc.lam != i:
            raise MalformedCertificate(f"factor entry {i} labeled {fc.lam}")
        n = len(fc.beta_primes)
        if not (len(fc.g_corrections) == len(fc.reps) == len(fc.vertex_groups) == n):
            raise MalformedCertificate(f"factor {fc.lam}: piece lists have inconsistent lengths")
        for w in list(fc.beta_primes) + list(fc.reps) + list(fc.f_basis) + [
            x for vg in fc.vertex_groups for x in vg
        ] + list(fc.g_corrections):
            if not is_normal_form(sys, "G", w):
                raise MalformedCertificate(f"factor {fc.lam}: word {w!r} is not in normal form")
        for g in fc.g_corrections:
            if any(l != fc.lam for l, _ in g):
                raise MalformedCertificate(f"factor {fc.lam}: correction {g!r} outside its factor")
    for t in cert.tree_transversal:
        if not is_normal_form(sys, "G", t):
            raise MalformedCertificate(f"transversal word {t!r} is not in normal form")


def _claimed_gens(fc) -> list:
    """The words that generate H_lam in the claimed decomposition: the
    vertex-group words of factor lam followed by its free basis."""
    return [x for vg in fc.vertex_groups for x in vg] + list(fc.f_basis)


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
    graph = complete_graph(sys, build_core(sys, h_gens), max_cosets)
    return check_certificate(sys, graph, cert)


def check_certificate(sys: FactorSystem, graph: CoreGraph, cert: "ConjectureCertificate") -> VerificationReport:
    """Run checks C1-C7 of a structurally valid certificate against the
    complete canonical coset graph of H.  The checks keep their numbers,
    so there is no C6 (see the module docstring)."""
    if not graph.complete:
        raise GraphNotComplete("certificates are checked on the complete coset graph")
    checks: list[CheckResult] = []

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
            for g, bp, x in zip(fc.g_corrections, fc.beta_primes, fc.reps):
                if multiply(sys, "G", invert(sys, "G", g), bp) != x:
                    bad.append(f"factor {fc.lam}: rep != correction^-1 * beta'")
        if len(cert.tree_transversal) != graph.vertex_count:
            bad.append(f"{len(cert.tree_transversal)} transversal words for index {graph.vertex_count}")
        for i, t in enumerate(cert.tree_transversal):
            if theta_word(sys, t) != EMPTY:
                bad.append("transversal word with nontrivial image")
            if trace(graph, t) != i:
                bad.append(f"transversal word {i} does not lead to coset {i}")
        return (not bad, "; ".join(bad[:3]))

    def c2():
        bad = []
        for fc in cert.factors:
            group_b = sys.factors_b[fc.lam]
            elems = set()
            for w in _claimed_gens(fc):
                img = theta_word(sys, w)
                if any(l != fc.lam for l, _ in img):
                    bad.append(f"factor {fc.lam}: generator image leaves B_{fc.lam}")
                    continue
                e = 0
                for _, x in img:
                    e = group_b.mul[e][x]
                elems.add(e)
            if subgroup_closure(group_b, elems) != frozenset(range(group_b.order)):
                bad.append(f"factor {fc.lam}: generator images do not generate the target factor")
        return (not bad, "; ".join(bad[:3]))

    # C3 walks each factor's lam-components once and finds the component
    # of every representative's vertex; C4 and C7 read the walk
    forests: dict[int, LambdaForest] = {}
    rep_components: dict[int, list[int]] = {}

    def c3():
        bad = []
        for fc in cert.factors:
            group = sys.factors_g[fc.lam]
            mul, inv = group.mul, group.inv
            forest = forests[fc.lam] = lambda_forest(sys, graph, fc.lam)
            found = rep_components[fc.lam] = []
            for mu, (x, vg) in enumerate(zip(fc.reps, fc.vertex_groups)):
                xinv = invert(sys, "G", x)
                v = trace(graph, xinv)
                c = forest.component[v]
                found.append(c)
                # Stab(v) = a^-1 S a for the root's stabilizer S and v = root a
                a = forest.label[v]
                computed = {
                    multiply(sys, "G", multiply(sys, "G", xinv, ((fc.lam, mul[mul[inv[a]][s]][a]),)), x)
                    for s in forest.stabilizers[c][1:]
                }
                if computed != set(vg):
                    bad.append(f"factor {fc.lam} piece {mu}: vertex group differs from exhaustive intersection")
        return (not bad, "; ".join(bad[:3]))

    def c4():
        bad = []
        for fc in cert.factors:
            stabilizers, found = forests[fc.lam].stabilizers, rep_components[fc.lam]
            if len(set(found)) != len(found):
                bad.append(f"factor {fc.lam}: two representatives share a double coset")
            nontrivial = {c for c, stab in enumerate(stabilizers) if len(stab) > 1}
            if set(found) != nontrivial:
                bad.append(f"factor {fc.lam}: representatives do not match the nontrivial double cosets")
            if len(stabilizers[0]) > 1 and EMPTY not in fc.reps:
                bad.append(f"factor {fc.lam}: trivial representative missing")
        return (not bad, "; ".join(bad[:3]))

    def c5():
        words = [w for fc in cert.factors for w in _claimed_gens(fc)]
        stray = [w for w in words if not membership(sys, graph, w)]
        if stray:
            return False, f"{len(stray)} certificate words are outside the subgroup"
        try:
            complete_graph(sys, build_core(sys, tuple(words)), graph.vertex_count)
        except IndexBoundExceeded:
            return False, f"regenerated subgroup exceeds the subgroup's index {graph.vertex_count}"
        return True, ""

    def c7():
        passed = {c.name.split()[0] for c in checks if c.status == "pass"}
        if not {"C3", "C4", "C5"} <= passed:
            return False, "needs C3, C4 and C5"
        rank = sum(len(fc.f_basis) for fc in cert.factors)
        count = sum(len(forest.roots) for forest in forests.values())
        free_rank = (sys.num_factors - 1) * graph.vertex_count - count + 1
        if rank != free_rank:
            return False, f"{rank} free-basis words for free rank {free_rank}"
        return True, "exact: pieces and free basis match the Kurosh fingerprint of the subgroup"

    run("C1 image-trivial representatives", c1)
    run("C2 factor image generation", c2)
    run("C3 vertex groups", c3)
    run("C4 double cosets", c4)
    run("C5 generation", c5)
    run("C7 free-product basis", c7)

    verdict = all(c.status == "pass" for c in checks)
    return VerificationReport(checks=tuple(checks), verdict=verdict)
