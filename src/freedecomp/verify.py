"""Independent verification of decomposition certificates.

A certificate claims H = *_lam H_lam with theta(H_lam) = B_lam and
H_lam = *(H cap G_lam^x) * F_lam, where factor lam lists the pieces
H cap G_lam^x (its vertex groups, one per representative x) and a free
basis of F_lam.  The claim is the representatives, the vertex groups and
the free bases.  It mentions none of the provenance fields (the
uncorrected representatives beta', the corrections g, and the transversal
words older certificates carry), so no check reads them and a certificate
without them verifies.

The checks read only the claim and H's core: the folded, saturated graph
``build_core`` makes from H's generators, complete or not.  Membership on
a core is exact: a normal-form word lies in H exactly when it traces from
the base back to the base.  The core is bounded by the input: the builder
makes at most one vertex per generator syllable, and saturation only
merges vertices and adds edges between them, so no check needs a coset
bound.

Every check C1-C7 is a decision procedure.  C1 decides that the
representatives are image-trivial.  C2 decides, for each factor lam, that
the images of the words generating H_lam (its vertex-group words and its
free basis) lie in B_lam and generate it, so a free-basis word cannot move
to another factor unnoticed.

C3 decides that each piece is exactly H cap G_lam^x.  Write x^-1 = u s
with s in G_lam its last syllable (or 1) and u not ending in G_lam.  Then
G_lam^x = u G_lam u^-1, and for g != 1 the word u g u^-1 is reduced, so it
lies in H exactly when u traces to a vertex w and g is a lam-loop at w.
The piece is thus u Stab(w) u^-1, with Stab(w) read off w's lam-component,
and it is trivial when u does not trace.  (x^-1 itself need not trace: a
lam-component of a core may hold only some cosets of its stabilizer.)
C4 decides that the representatives lie in pairwise distinct
lam-components, one in each component whose stabilizer is nontrivial, with
the empty word in the base's when that one is nontrivial; the component of
a representative is that of its vertex w, and one whose u does not trace
lies in none.  C5 decides that the pieces and the free bases generate H:
they generate some subgroup K, and a core depends only on the subgroup
its normal-form generators generate (proved in the covgraph module
docstring), so K = H exactly when K's core equals H's.  Only when the
cores differ does C5 trace the claimed words in H's core, to say whether
some lie outside H or they generate a proper subgroup of H.
C7 decides that the pieces and the free basis form a free-product basis
of H: given C3 and C5, the formal free product Pi of the pieces and a free
group on the basis maps onto H, and it is isomorphic to H exactly when its
Kurosh fingerprint (multiset of factor/conjugacy-class pairs plus free
rank) equals H's, by the uniqueness part of Kurosh's theorem.  Pi is
finitely generated and virtually free, hence residually finite and so
Hopfian (Mal'cev), so an onto map Pi -> H between isomorphic groups is an
isomorphism.  This needs no finite index: a finitely generated subgroup of
a virtually free group is virtually free.

H's fingerprint is read off its core, which is a graph of groups for H:
its nodes are the vertices, with trivial groups, and the lam-components,
with their stabilizers, and it has one edge per vertex and component
containing it.  So H has one piece per component with a nontrivial
stabilizer, classed by that stabilizer's conjugacy class in G_lam, and free
rank the cycle rank (k - 1) n - C + 1 for k factors, n vertices and C
components in all.  A vertex without lam-edges is a one-vertex
lam-component with trivial stabilizer, which adds one node and one edge
and leaves the cycle rank as it is.  Given C3 and C4 the piece classes
already agree: C4
pairs the representatives one-to-one with the components of nontrivial
stabilizer, C3 makes the piece at x equal to u Stab(w) u^-1, of class
Stab(w), for the vertex w of x's component, and the stabilizers of the
vertices of one component are conjugate in G_lam
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

from .covgraph import CoreGraph, LambdaForest, build_core, lambda_forest, membership, trace
from .fingroup import subgroup_closure
from .freeprod import EMPTY, FactorSystem, invert, is_normal_form, theta_word

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
        if len(fc.reps) != len(fc.vertex_groups):
            raise MalformedCertificate(f"factor {fc.lam}: piece lists have inconsistent lengths")
        for w in list(fc.reps) + list(fc.f_basis) + [x for vg in fc.vertex_groups for x in vg]:
            if not is_normal_form(sys, "G", w):
                raise MalformedCertificate(f"factor {fc.lam}: word {w!r} is not in normal form")


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
    """Validate the certificate's shape, rebuild H's core from ``h_gens``
    (normal-form words, as ``parse_word`` returns them) independently, and
    run checks C1-C7 against it.

    ``max_cosets``, ``free_test_len`` and ``seed`` are ignored; the
    benchmark harness still passes them.
    """
    _structural_validation(sys, cert)
    return check_certificate(sys, build_core(sys, h_gens), cert)


def check_certificate(sys: FactorSystem, graph: CoreGraph, cert: "ConjectureCertificate") -> VerificationReport:
    """Run checks C1-C7 of a structurally valid certificate against H's
    core ``graph``; they read only the claim and the core.  The checks
    keep their numbers, so there is no C6 (see the module docstring)."""
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
    # of every representative's vertex (None when it has none); C4 and C7
    # read the walk
    forests: dict[int, LambdaForest] = {}
    rep_components: dict[int, list[int | None]] = {}

    def c3():
        bad = []
        for fc in cert.factors:
            group = sys.factors_g[fc.lam]
            mul, inv = group.mul, group.inv
            forest = forests[fc.lam] = lambda_forest(sys, graph, fc.lam)
            found = rep_components[fc.lam] = []
            for mu, (x, vg) in enumerate(zip(fc.reps, fc.vertex_groups)):
                # x = s^-1 u^-1 with s^-1 its first syllable when that is in
                # G_lam: the piece is u Stab(w) u^-1 at w = Hu, and trivial
                # when u does not trace
                uinv = x[1:] if x and x[0][0] == fc.lam else x
                u = invert(sys, "G", uinv)
                w = trace(graph, u)
                computed = set()
                if w is None:
                    found.append(None)
                else:
                    c = forest.component[w]
                    found.append(c)
                    # Stab(w) = a^-1 S a for the root's stabilizer S and
                    # w = root a; each word u g u^-1 is already reduced
                    a = forest.label[w]
                    stab = forest.stabilizers[c][1:]
                    computed = {u + ((fc.lam, mul[mul[inv[a]][s]][a]),) + uinv for s in stab}
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
        # K = H exactly when their cores are equal (module docstring)
        words = [w for fc in cert.factors for w in _claimed_gens(fc)]
        if build_core(sys, words) == graph:
            return True, ""
        stray = sum(not membership(sys, graph, w) for w in words)
        if stray:
            return False, f"{stray} certificate words are outside the subgroup"
        return False, "the certificate's words generate a proper subgroup of H"

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
