"""Factor-wise free decomposition read off H's Kurosh basis.

Pipeline: build H's core, read a Kurosh basis of H off the core
(``kurosh_decompose``), reduce that basis by Nielsen moves until every
image lies in a single factor of B (``_reduce``), assemble the
certificate, and judge it once by the verifier's checks C1-C7, run on the
already-built core.  Only when they fail does ``check_h_theta_surjective``
ask whether H maps onto B, to tell ThetaNotSurjectiveOntoB from
CertificateRejected: a passing report implies theta(H) = B, since C5 puts
every claimed word in H and C2 makes their images generate each B_lam.
There is one candidate per system: no search, no retry and no bound.
H's core is the only graph: it is never completed, so H may have infinite
index (see the verify module docstring).

The basis.  The Kurosh read-off writes H as the free product of its pieces
p S p^-1 (p = x^-1 for the representative x, S a stabilizer in G_lam) and
a free group on its free words f, each read from an edge of some factor.

The moves.  Each move is an automorphism of that free product, so the
basis stays a free-product basis of H:
- f -> f u or f -> u f, where u is another free word or its inverse, or an
  element p' s p'^-1 of a piece: the inverse move multiplies by u^-1, and
  the other basis members are untouched;
- p -> u p, where u is another free word or its inverse, or an element of
  another piece: this conjugates the piece by u, which lies in the free
  product of the other basis members, so conjugating by u^-1 undoes it.
  A piece is never conjugated by a word that uses the piece itself.
- once a round takes no single move, every later round also offers, for
  each factor B_mu, every product of the units above whose images are
  single syllables of B_mu: a breadth-first walk closes those images in
  B_mu, and each element c of the closure is offered as the image (mu, c)
  of the product of units that first reaches it.  The product leaves out
  the moved element, so it lies in the free product of the other basis
  members and the move is still an automorphism.  A basis whose single
  moves bring every cost to 0 takes no such move, so its certificate is
  the one single moves give.
The moves are judged on the cached images in B.  A free word costs
len(theta(f)) - 1, and 0 when its image is trivial; a piece costs
len(theta(p)), less one when the last syllable of theta(p) lies in B_lam.
Each round, every element of positive cost takes the move that lowers its
cost most, stopping its scan at the first move to cost 0.  The rounds run
in three phases, each entered once a round of the one before takes no
move: single moves; single moves and products of units; and then the same
moves judged by the key (cost, len(theta), theta) in lexicographic order,
the image compared as a tuple of syllables, so a move that keeps the cost
but shortens the image, or keeps both and lowers the image, is taken too.
The reduction returns once a round of the third phase takes no move.  A
basis whose costs are all 0 takes no move in the third phase, so its
certificate is the one the first two phases give.

Why it terminates.  A move changes only the moved element's image, lowers
its key (in the first two phases its cost, the key's first entry) and
leaves every other element's key as it is.  An image of cost c has length
at most c + 1, and B's factors are finite, so finitely many images cost at
most c, and below any key lie finitely many keys.  So each element's key
falls only finitely often, every phase ends, and so does the reduction.

Why C1-C7 then pass, once every cost is 0.  A piece has theta(p) = 1 or
theta(p) = b in B_lam; its representative is x = g^-1 p^-1 for g in G_lam
with theta(g) = b^-1 (``solve_preimage``), so theta(x) = 1 (C1), and x
conjugates G_lam like p^-1 does.  Since u lies in H, the moved piece
u p S p^-1 u^-1 is still H cap G_lam^x (C3), and H u p = H p puts x in the
same lam-component as before (C4); the base's piece has p empty, cost 0,
and is never moved.  A free word goes to the factor of its image, or to
the factor of its edge when its image is trivial.  Every generating word of
H_lam then has its image in B_lam; the images of the whole basis generate
theta(H) = B, so the retraction of B onto B_lam shows that those of H_lam
generate B_lam (C2).  The basis generates H (C5) and has as many free
words as H's free rank (C7).

Completeness of this greedy reduction is not proven: an element of
positive cost whose key no move lowers stays positive, its piece is left
uncorrected or its free word left in the factor of its edge, and the
certificate fails C1 or C2, which raises CertificateRejected.  Classical
Nielsen reduction in free products breaks ties the same way, by length
and an order on the words (the Grushko-Neumann theorem; Lyndon-Schupp,
Combinatorial Group Theory, ch. IV, section 1), but no proof is written
for these moves.  No onto system is known on which the reduction stalls:
every onto system of the seeded corpus and of the six-shape, growth and
partial-action families the tests draw, and all 4,800 systems of
eight_shape_family(seed, 25, 24) for seeds 1-4 and
eight_shape_family(seed, 25, 40) for seeds 5-24, decomposes and verifies.
The tests run the first 800 eight-shape systems and the 13 of the other
4,000 on which products of units alone stalled, and every onto subgroup
of index at most 6 of S4*Z2 onto S3*Z2 and of S4*Z3 onto S3*Z3 (697 and
889 subgroups, listed exhaustively).
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, replace
from functools import partial

from .covgraph import CoreGraph, build_core
from .fingroup import solve_preimage
from .freeprod import FactorSystem, Word, invert, multiply, syllable_word, theta_word
from .kurosh import KuroshDecomposition, kurosh_decompose
from .verify import VerificationReport, check_certificate


class ThetaNotSurjectiveOntoB(RuntimeError):
    """The subgroup's image does not generate all of B."""


class CertificateRejected(RuntimeError):
    """The certificate failed one of the checks C1-C7."""


class Bounds:
    """Constants that only the benchmark harness (``perfbench/tracing.py``)
    reads: ``max_cosets`` for its replayed completion, and the transversal
    search's ``tree_word_bound``, ``tree_retries`` and
    ``tree_extension_bound``, ``free_test_len`` and ``seed``.  Nothing in
    the package reads them and no input sets them."""

    max_cosets = 10_000
    tree_word_bound = 12
    tree_retries = 8
    tree_extension_bound = 64
    free_test_len = 8
    seed = 0


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
    """The claim, per factor, under the system's hash.  ``tree_transversal``
    is empty on what ``decompose`` writes; it is kept for certificates that
    carry one and for the benchmark harness, and no check reads it."""

    system_hash: str
    factors: tuple[FactorCertificate, ...]
    tree_transversal: tuple[Word, ...] = ()


def system_hash(sys: FactorSystem) -> str:
    """SHA-256 of ``json.dumps(sys.description(), sort_keys=True,
    separators=(",", ":"))``, written here from decimal strings made once;
    only the group names, which may be any JSON value, go through ``json``."""
    digits = list(map(str, range(max(g.order for g in sys.factors_g + sys.factors_b))))
    dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))

    def rows(table) -> str:  # a one-entry row is (0,), and "0" joins to itself
        return ",".join("[" + ",".join(operator.itemgetter(*row)(digits)) + "]" for row in table)

    def factors(side) -> str:
        return ",".join(f'{{"name":{dumps(g.name)},"table":[{rows(g.mul)}]}}' for g in side)

    theta = rows(h.map for h in sys.theta)
    payload = f'{{"factors_B":[{factors(sys.factors_b)}],"factors_G":[{factors(sys.factors_g)}],"theta":[{theta}]}}'
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

    When C1-C7 fail, raises ThetaNotSurjectiveOntoB if H does not map onto
    B, and otherwise CertificateRejected, naming the failed checks.
    ``bounds`` is ignored; the benchmark harness still passes it.
    """
    return decompose_and_check(sys, h_gens)[0]


def decompose_and_check(
    sys: FactorSystem, h_gens
) -> tuple[ConjectureCertificate, VerificationReport, CoreGraph]:
    """``conjecture_decompose`` plus the passing report of checks C1-C7 and
    the core of H they ran on."""
    gens = tuple(h_gens)  # as given: H's core depends only on H (covgraph)
    graph = build_core(sys, gens)
    cert = _assemble(sys, *_reduce(sys, kurosh_decompose(sys, graph)))
    report = check_certificate(sys, graph, cert)
    if not report.verdict:
        # a passing report implies theta(H) = B (module docstring)
        check_h_theta_surjective(sys, gens)
        failed = ", ".join(c.name for c in report.checks if c.status == "fail")
        raise CertificateRejected(f"failed {failed}")
    # check_certificate reads no system hash, so only the accepted
    # certificate is hashed
    return replace(cert, system_hash=system_hash(sys)), report, graph


def _free_cost(image: Word) -> int:
    return len(image) - 1 if image else 0


def _piece_cost(lam: int, image: Word) -> int:
    return len(image) - (image[-1][0] == lam) if image else 0


def _reduce(sys: FactorSystem, kd: KuroshDecomposition) -> tuple[list, list]:
    """Nielsen-reduce the Kurosh basis ``kd`` (see the module docstring).

    Returns the pieces as ``[lam, p, stabilizer, theta(p)]`` and the free
    words as ``[lam of the edge, f, theta(f)]``, in ``kd``'s order.  Moves
    are judged on the images; a G-word is multiplied only for the move
    taken.
    """
    def gmul(u: Word, v: Word) -> Word:
        return multiply(sys, "G", u, v)

    def bmul(u: Word, v: Word) -> Word:
        return multiply(sys, "B", u, v)

    free = [[lam, f, theta_word(sys, f)] for lam, f in zip(kd.free_factors, kd.free_basis)]
    pieces = []
    for piece in kd.pieces:
        p = invert(sys, "G", piece.rep)
        pieces.append([piece.lam, p, piece.stabilizer, theta_word(sys, p)])

    def units(j: int) -> list[tuple[int, Word]]:
        # (s, theta(p s p^-1)) for the first s of each nontrivial image
        lam, _, stab, image = pieces[j]
        first: dict[int, int] = {}
        for s in stab[1:]:
            first.setdefault(sys.theta[lam].map[s], s)
        first.pop(0, None)
        inv_image = invert(sys, "B", image)
        return [(s, bmul(bmul(image, ((lam, b),)), inv_image)) for b, s in first.items()]

    piece_units = [units(j) for j in range(len(pieces))]

    def candidates(own_free: int, own_piece: int, wide: bool):
        # (image of u, units whose product is u): u = f_k^+-1, ("f", k,
        # +-1), or p_j s p_j^-1, ("p", j, s), skipping u of trivial image,
        # which move nothing; when ``wide``, then every product of those
        # units with images in one factor B_mu, by its image (mu, c)
        for k, (_, _, y) in enumerate(free):
            if k != own_free and y:
                yield y, (("f", k, 1),)
                yield invert(sys, "B", y), (("f", k, -1),)
        for j, unit in enumerate(piece_units):
            if j != own_piece:
                for s, y in unit:
                    yield y, (("p", j, s),)
        gens: dict[int, list] = {}
        for y, u in candidates(own_free, own_piece, False) if wide else ():
            if len(y) == 1:
                gens.setdefault(y[0][0], []).append((y[0][1], u))
        for mu, units in gens.items():
            mul, reached, queue = sys.factors_b[mu].mul, {0: ()}, [0]
            for c in queue:  # breadth-first: the queue grows while read
                for b, u in units:
                    d = mul[c][b]
                    if d not in reached:
                        reached[d] = reached[c] + u
                        queue.append(d)
                        yield ((mu, d),), reached[d]

    def best_move(image: Word, cost, own_free: int, own_piece: int, sides: tuple[bool, ...], phase: int):
        """(new image, u, left?) of the move that lowers ``cost`` most (in
        phase 2, the key (cost, length, image) most), the first one to
        reach cost 0, or None."""
        ties = phase == 2
        c = cost(image)
        best_key, best = (c, len(image), image) if ties else c, None
        for y, u in candidates(own_free, own_piece, phase > 0):
            for left in sides:
                z = bmul(y, image) if left else bmul(image, y)
                c = cost(z)
                key = (c, len(z), z) if ties else c
                if key < best_key:
                    best_key, best = key, (z, u, left)
                    if not c:
                        return best
        return best

    def word(units: tuple) -> Word:
        out: Word = ()
        for kind, index, which in units:
            if kind == "f":
                f = free[index][1]
                out = gmul(out, f if which == 1 else invert(sys, "G", f))
            else:
                lam, p = pieces[index][:2]
                out = gmul(out, gmul(gmul(p, ((lam, which),)), invert(sys, "G", p)))
        return out

    # phase 0 offers single moves, phase 1 also products of units, and
    # phase 2 also the moves that keep the cost but lower the key
    phase = 0
    while True:
        moved = False
        for i, entry in enumerate(free):
            if _free_cost(entry[2]):
                move = best_move(entry[2], _free_cost, i, -1, (False, True), phase)
                if move:
                    z, u, left = move
                    entry[1:] = gmul(word(u), entry[1]) if left else gmul(entry[1], word(u)), z
                    moved = True
        for j, entry in enumerate(pieces):
            cost = partial(_piece_cost, entry[0])
            if cost(entry[3]):
                move = best_move(entry[3], cost, -1, j, (True,), phase)
                if move:
                    z, u, _ = move
                    entry[1], entry[3] = gmul(word(u), entry[1]), z
                    piece_units[j] = units(j)
                    moved = True
        if not moved:
            if phase == 2:
                return pieces, free
            phase += 1


def _assemble(sys: FactorSystem, pieces: list, free: list) -> ConjectureCertificate:
    """The certificate of a reduced basis, without its system hash.

    A piece p S p^-1 has beta' = p^-1, corrected by g in G_lam with
    theta(g) = theta(beta') when that is a single element of its factor,
    and x = g^-1 beta'; a free word goes to the factor of its image, or of
    its edge when its image is trivial or spans factors.
    """
    k = sys.num_factors
    beta_primes, g_corrections, reps, vertex_groups, free_bases = ([[] for _ in range(k)] for _ in range(5))
    for lam, p, stabilizer, _ in pieces:
        beta_prime = invert(sys, "G", p)
        image = theta_word(sys, beta_prime)
        g_elem = 0
        if len(image) == 1 and image[0][0] == lam:
            g_elem = solve_preimage(sys.theta[lam], image[0][1])
        g_word = syllable_word(lam, g_elem)
        # the piece's word p s p^-1 for s is x^-1 (g^-1 s g) x, so the
        # vertex group lists the piece's words by g^-1 s g
        group = sys.factors_g[lam]
        ginv = group.inv[g_elem]
        conj = (group.mul[group.mul[ginv][s]][g_elem] for s in stabilizer[1:])
        words = (multiply(sys, "G", multiply(sys, "G", p, ((lam, s),)), beta_prime) for s in stabilizer[1:])
        beta_primes[lam].append(beta_prime)
        g_corrections[lam].append(g_word)
        reps[lam].append(multiply(sys, "G", invert(sys, "G", g_word), beta_prime))
        vertex_groups[lam].append(tuple(w for _, w in sorted(zip(conj, words))))
    for lam, f, image in free:
        free_bases[image[0][0] if len(image) == 1 else lam].append(f)

    factors = tuple(
        FactorCertificate(
            lam=lam,
            beta_primes=tuple(beta_primes[lam]),
            g_corrections=tuple(g_corrections[lam]),
            reps=tuple(reps[lam]),
            vertex_groups=tuple(vertex_groups[lam]),
            f_basis=tuple(free_bases[lam]),
        )
        for lam in range(k)
    )
    return ConjectureCertificate(system_hash="", factors=factors)
