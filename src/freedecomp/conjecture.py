"""Factor-wise free decomposition pipeline with image-trivial representatives.

Pipeline: complete the coset graph of H, choose an image-trivial
transversal, split H into per-factor subgroups H_lam, decompose each H_lam
into vertex-group pieces plus a free part, then correct each piece
representative beta' by a factor element g with equal image so that
x = g^-1 beta' dies in B while conjugating the factor identically.  The
result is a certificate carrying the claim (representatives, vertex groups
and free bases) with the transversal and the corrections that led to it,
which the verify module re-checks from scratch.

The transversal choice is a heuristic.  Each candidate certificate is
gated by the verifier's own checks C1-C7 on the already-built coset graph,
and a rejected candidate is retried with permuted edge orders before
giving up.  The coset bound is the one settable bound; the transversal
search's image bound and the retry count are fixed constants of
``Bounds``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import ClassVar

from .covgraph import CoreGraph, build_core, complete_graph
from .fingroup import solve_preimage
from .freeprod import EMPTY, FactorSystem, Word, invert, multiply, syllable_word, theta_word
from .higgins import ThetaTree, TreeBoundExceeded, build_theta_tree, higgins_decompose
from .kurosh import KuroshDecomposition, kurosh_decompose
from .verify import VerificationReport, check_certificate


class ThetaNotSurjectiveOntoB(RuntimeError):
    """The subgroup's image does not generate all of B."""


class CrossFactorPieceNontrivial(RuntimeError):
    """A per-factor subgroup produced a piece in a foreign factor."""


class BetaImageNotInFactor(RuntimeError):
    """A piece representative's image is not a single factor element."""


class CertificateRejected(RuntimeError):
    """The assembled certificate failed one of the checks C1-C7."""


@dataclass(frozen=True)
class Bounds:
    """The coset bound, the one settable bound, and the fixed constants of
    the transversal search and its retry loop.

    ``decompose_and_check`` reads ``tree_word_bound`` and ``tree_retries``.
    ``tree_extension_bound``, ``free_test_len`` and ``seed`` are ignored;
    the benchmark harness (``perfbench/tracing.py``) still reads all five
    off an instance.
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


def check_h_theta_surjective(sys: FactorSystem, h_gens, max_cosets: int) -> None:
    """Raise unless the generator images generate all of B.

    B is itself a free product of finite groups, so the question reduces to
    an index-1 test with the same graph machinery on the B side.
    """
    images = canonical_generators(theta_word(sys, w) for w in h_gens)
    bsys = sys.b_identity_system()
    bgraph = complete_graph(bsys, build_core(bsys, images), max_cosets)
    if bgraph.vertex_count != 1:
        raise ThetaNotSurjectiveOntoB(
            f"generator images have index {bgraph.vertex_count} in B, expected 1"
        )


def conjecture_decompose(sys: FactorSystem, h_gens, bounds: Bounds | None = None) -> ConjectureCertificate:
    """Full decomposition of the subgroup generated by ``h_gens``.

    Raises IndexBoundExceeded on the coset bound, ThetaNotSurjectiveOntoB
    when the image precheck fails, and, when every transversal retry was
    rejected, an error of the last retry's kind (TreeBoundExceeded,
    CrossFactorPieceNontrivial, BetaImageNotInFactor or CertificateRejected)
    whose message names the reason of every retry.
    """
    return decompose_and_check(sys, h_gens, bounds)[0]


def decompose_and_check(
    sys: FactorSystem, h_gens, bounds: Bounds | None = None
) -> tuple[ConjectureCertificate, VerificationReport, CoreGraph]:
    """``conjecture_decompose`` plus the passing report of checks C1-C7 and
    the complete canonical coset graph of H they ran on."""
    bounds = bounds or Bounds()
    gens = canonical_generators(h_gens)
    graph = complete_graph(sys, build_core(sys, gens), bounds.max_cosets)
    check_h_theta_surjective(sys, gens, bounds.max_cosets)

    reasons: list[str] = []
    for order_seed in range(bounds.tree_retries):
        try:
            tree = build_theta_tree(sys, graph, word_bound=bounds.tree_word_bound, order_seed=order_seed)
            cert, report = _assemble(sys, graph, tree, bounds)
            return cert, report, graph
        except (TreeBoundExceeded, CrossFactorPieceNontrivial, BetaImageNotInFactor, CertificateRejected) as exc:
            last = exc
            reasons.append(f"order_seed {order_seed}: {exc}")
    raise type(last)(f"all {bounds.tree_retries} transversal retries rejected: " + "; ".join(reasons))


def _assemble(
    sys: FactorSystem, graph: CoreGraph, tree: ThetaTree, bounds: Bounds
) -> tuple[ConjectureCertificate, VerificationReport]:
    hd = higgins_decompose(sys, graph, tree)
    factor_certs: list[FactorCertificate] = []

    for lam in range(sys.num_factors):
        fd = hd.factors[lam]
        if fd.gens:
            kd = kurosh_decompose(sys, build_core(sys, fd.gens))
        else:
            kd = KuroshDecomposition(pieces=(), free_basis=(), free_rank=0)

        group = sys.factors_g[lam]
        beta_primes: list[Word] = []
        g_corrections: list[Word] = []
        reps: list[Word] = []
        vertex_groups: list[tuple[Word, ...]] = []
        for piece in kd.pieces:
            if piece.lam != lam:
                raise CrossFactorPieceNontrivial(
                    f"H_{lam} has a nontrivial piece in factor {piece.lam}: rep {piece.rep}"
                )
            beta_prime = piece.rep
            image = theta_word(sys, beta_prime)
            if image == EMPTY:
                g_word: Word = EMPTY
                g_elem = 0
            elif len(image) == 1 and image[0][0] == lam:
                g_elem = solve_preimage(sys.theta[lam], image[0][1])
                g_word = syllable_word(lam, g_elem)
            else:
                raise BetaImageNotInFactor(f"image of {beta_prime} is {image}, not inside factor {lam}")
            x = multiply(sys, "G", invert(sys, "G", g_word), beta_prime)
            assert theta_word(sys, x) == EMPTY
            # the piece's word beta'^-1 s beta' for s is x^-1 (g^-1 s g) x,
            # so the vertex group lists the piece's words by g^-1 s g
            ginv = group.inv[g_elem]
            conj = (group.mul[group.mul[ginv][s]][g_elem] for s in piece.stabilizer[1:])
            vg = tuple(w for _, w in sorted(zip(conj, piece.vertex_group_gens)))
            beta_primes.append(beta_prime)
            g_corrections.append(g_word)
            reps.append(x)
            vertex_groups.append(vg)

        factor_certs.append(
            FactorCertificate(
                lam=lam,
                beta_primes=tuple(beta_primes),
                g_corrections=tuple(g_corrections),
                reps=tuple(reps),
                vertex_groups=tuple(vertex_groups),
                f_basis=kd.free_basis,
            )
        )

    cert = ConjectureCertificate(
        system_hash=system_hash(sys),
        factors=tuple(factor_certs),
        tree_transversal=tree.transversal,
    )
    report = check_certificate(sys, graph, cert)
    if not report.verdict:
        failed = ", ".join(c.name for c in report.checks if c.status == "fail")
        raise CertificateRejected(f"failed {failed}")
    return cert, report
