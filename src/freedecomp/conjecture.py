"""Factor-wise free decomposition pipeline with image-trivial representatives.

Pipeline: build H's core, choose an image-trivial transversal of its
vertices, split H into per-factor subgroups H_lam, decompose each H_lam
into vertex-group pieces plus a free part, then correct each piece
representative beta' by a factor element g with equal image so that
x = g^-1 beta' dies in B while conjugating the factor identically.  The
result is a certificate carrying the claim (representatives, vertex groups
and free bases), which the verify module re-checks from scratch, with the
transversal and the corrections that led to it, which no check reads.

H's core is the only graph: it is never completed, so H may have
infinite index, and its size is bounded by the generators' syllables (see
the verify module docstring).  H is checked to map onto B first, which
makes the transversal search complete (see the higgins module docstring),
so only its state budget can stop it; which image-trivial transversal it
returns depends on the edge order.  Each candidate certificate is judged
by the verifier's checks C1-C7 alone, run on the already-built core, and
a rejected candidate, or a search stopped by the budget, is retried with
permuted edge orders before giving up.  The retry count is a fixed
constant of ``Bounds``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import ClassVar

from .covgraph import CoreGraph, build_core
from .fingroup import solve_preimage
from .freeprod import FactorSystem, Word, invert, multiply, syllable_word, theta_word
from .higgins import ThetaTree, TreeBoundExceeded, build_theta_tree, higgins_decompose
from .kurosh import kurosh_decompose
from .verify import VerificationReport, check_certificate


class ThetaNotSurjectiveOntoB(RuntimeError):
    """The subgroup's image does not generate all of B."""


class CertificateRejected(RuntimeError):
    """The assembled certificate failed one of the checks C1-C7."""


@dataclass(frozen=True)
class Bounds:
    """The coset bound, the one settable bound, and the fixed retry count
    of the transversal search.

    ``decompose_and_check`` reads ``tree_retries``; only
    ``graph --complete`` reads ``max_cosets``.  ``tree_word_bound``,
    ``tree_extension_bound``, ``free_test_len`` and ``seed`` are ignored;
    the benchmark harness (``perfbench/tracing.py``) still reads them off
    an instance.
    """

    max_cosets: int = 10_000
    tree_word_bound: ClassVar[int] = 12
    tree_retries: ClassVar[int] = 8
    tree_extension_bound: ClassVar[int] = 64
    free_test_len: ClassVar[int] = 8
    seed: ClassVar[int] = 0


@dataclass(frozen=True)
class FactorCertificate:
    """Everything the pipeline produced for one factor index."""

    lam: int
    beta_primes: tuple[Word, ...]
    g_corrections: tuple[Word, ...]
    reps: tuple[Word, ...]
    vertex_groups: tuple[tuple[Word, ...], ...]
    f_basis: tuple[Word, ...]


@dataclass(frozen=True)
class ConjectureCertificate:
    system_hash: str
    factors: tuple[FactorCertificate, ...]
    tree_transversal: tuple[Word, ...]


def system_hash(sys: FactorSystem) -> str:
    payload = json.dumps(sys.description(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def canonical_generators(h_gens) -> tuple[Word, ...]:
    unique = {tuple(w) for w in h_gens if tuple(w)}
    return tuple(sorted(unique, key=lambda w: (len(w), w)))


def check_h_theta_surjective(sys: FactorSystem, h_gens, max_cosets: int | None = None) -> None:
    """Raise unless the generator images generate all of B.

    B is itself a free product of finite groups, and membership on a core
    is exact, so the images generate B exactly when every nonidentity
    syllable (lam, b) of B is a loop at the base of their core.
    ``max_cosets`` is ignored; the benchmark harness still passes it.
    """
    images = canonical_generators(theta_word(sys, w) for w in h_gens)
    bsys = sys.b_identity_system()
    base = build_core(bsys, images).action[0]
    syllables = [(lam, b) for lam, group in enumerate(bsys.factors_g) for b in range(1, group.order)]
    missing = [f"{lam}:{b}" for lam, b in syllables if base.get((lam, b)) != 0]
    if missing:
        raise ThetaNotSurjectiveOntoB(f"generator images miss {len(missing)} elements of B, first {missing[0]}")


def conjecture_decompose(sys: FactorSystem, h_gens, bounds: Bounds | None = None) -> ConjectureCertificate:
    """Full decomposition of the subgroup generated by ``h_gens``.

    Raises ThetaNotSurjectiveOntoB when the image precheck fails and,
    when every transversal retry was rejected, an error of the last
    retry's kind: TreeBoundExceeded when its search hit the state budget,
    CertificateRejected when C1-C7 failed.  Either message names the
    reason of every retry.
    """
    return decompose_and_check(sys, h_gens, bounds)[0]


def decompose_and_check(
    sys: FactorSystem, h_gens, bounds: Bounds | None = None
) -> tuple[ConjectureCertificate, VerificationReport, CoreGraph]:
    """``conjecture_decompose`` plus the passing report of checks C1-C7 and
    the core of H they ran on."""
    bounds = bounds or Bounds()
    gens = canonical_generators(h_gens)
    graph = build_core(sys, gens)
    check_h_theta_surjective(sys, gens)

    reasons: list[str] = []
    for order_seed in range(bounds.tree_retries):
        try:
            tree = build_theta_tree(sys, graph, order_seed=order_seed)
            cert, report = _assemble(sys, graph, tree, gens)
            return replace(cert, system_hash=system_hash(sys)), report, graph
        except (TreeBoundExceeded, CertificateRejected) as exc:
            last = exc
            reasons.append(f"order_seed {order_seed}: {exc}")
    raise type(last)(f"all {bounds.tree_retries} transversal retries rejected: " + "; ".join(reasons))


def _assemble(
    sys: FactorSystem, graph: CoreGraph, tree: ThetaTree, gens: tuple[Word, ...]
) -> tuple[ConjectureCertificate, VerificationReport]:
    """The certificate of one transversal candidate, without its system
    hash, and its passing report.

    Each Kurosh piece of H_lam is listed under its own factor, and its
    representative beta' is corrected only when theta(beta') is a single
    element of that factor; otherwise x = beta' with an empty correction.
    The candidate is judged by checks C1-C7 alone: a failure raises
    CertificateRejected naming the failed checks.
    """
    hd = higgins_decompose(sys, graph, tree)
    k = sys.num_factors
    beta_primes, g_corrections, reps, vertex_groups = ([[] for _ in range(k)] for _ in range(4))
    free_bases: list[tuple[Word, ...]] = [()] * k
    for fd in hd.factors:
        if not fd.gens:
            continue
        kd = kurosh_decompose(sys, build_core(sys, fd.gens))
        free_bases[fd.lam] = kd.free_basis
        for piece in kd.pieces:
            lam, beta_prime = piece.lam, piece.rep
            image = theta_word(sys, beta_prime)
            g_elem = 0
            if len(image) == 1 and image[0][0] == lam:
                g_elem = solve_preimage(sys.theta[lam], image[0][1])
            g_word = syllable_word(lam, g_elem)
            # the piece's word beta'^-1 s beta' for s is x^-1 (g^-1 s g) x,
            # so the vertex group lists the piece's words by g^-1 s g
            group = sys.factors_g[lam]
            ginv = group.inv[g_elem]
            conj = (group.mul[group.mul[ginv][s]][g_elem] for s in piece.stabilizer[1:])
            beta_primes[lam].append(beta_prime)
            g_corrections[lam].append(g_word)
            reps[lam].append(multiply(sys, "G", invert(sys, "G", g_word), beta_prime))
            vertex_groups[lam].append(tuple(w for _, w in sorted(zip(conj, piece.vertex_group_gens))))

    factors = tuple(
        FactorCertificate(
            lam=lam,
            beta_primes=tuple(beta_primes[lam]),
            g_corrections=tuple(g_corrections[lam]),
            reps=tuple(reps[lam]),
            vertex_groups=tuple(vertex_groups[lam]),
            f_basis=free_bases[lam],
        )
        for lam in range(k)
    )
    # check_certificate reads no system hash, so only the accepted
    # certificate is hashed, by the caller
    cert = ConjectureCertificate(system_hash="", factors=factors, tree_transversal=tree.transversal)
    report = check_certificate(sys, graph, cert, gens)
    if not report.verdict:
        failed = ", ".join(c.name for c in report.checks if c.status == "fail")
        raise CertificateRejected(f"failed {failed}")
    return cert, report
