"""Independent enumerations used only as test oracles.

``NaiveCosetTable`` is classic relator-scanning coset enumeration over the
presentation whose generators are the nonidentity factor elements and whose
relators are the factor multiplication triples.  It shares no code with the
package's fold/saturate builder, so agreement between the two is meaningful
evidence.  ``brute_force_members`` enumerates products of generators,
``rank_formula`` counts the free rank from component sizes,
``decomposition_fingerprint`` counts the Kurosh fingerprint from the
pieces and the Schreier free basis of ``kurosh_decompose``, classing each
piece by ``subgroup_conjugacy_key`` (the verifier reads the free rank off
the components instead).  ``brute_force_double_cosets`` walks the orbits
of a factor on the cosets without ``lambda_components``, and
``exhaustive_intersection`` traces every conjugate x^-1 g x through
``membership``, the verifier's C4 and C3 before they read the
lam-components.  ``LinearScanBuilder`` is the
graph builder with its original job choice, a linear scan for the
smallest dirty job, and ``RandomOrderBuilder`` takes merges and jobs in a
seeded random order; the core must not depend on either.
``WedgeBuilder`` is the builder with its original seeding, one new
vertex per syllable of every generator (a wedge of cycles at the base),
which the two-ended scan of ``_Builder.add_generator_cycle`` must fold to
the same graph.
``TwoPassSaturateBuilder`` is the builder with its original saturation,
a breadth-first labelling of the component followed by a second pass
over every edge of every factor to collect the stabilizer generators,
and the stabilizer closure and coset table built even when there is no
generator.
``cubic_associative`` and ``all_pairs_hom`` are the exhaustive group-table
checks that Light's test and the law on generators replaced in
``fingroup``, ``entrywise_validate_group`` (with ``entrywise_reindexed``)
is ``validate_group`` before its checks became whole-row passes: every
entry, identity candidate, row, column and Light product one Python step
at a time, and ``frontier_subgroup_closure`` is ``subgroup_closure``
before it became one breadth-first closure under right multiplication:
products on both sides and inverses of every frontier element.
``object_lambda_components`` walks each lam-component into
its own ``LambdaComponent``, as ``lambda_components`` did before the
single ``lambda_forest`` walk, and ``spanning_data`` with
``spanning_kurosh_decompose`` is ``kurosh_decompose`` before it read the
forests: a global tree by breadth-first search over per-vertex neighbour
lists of the component trees, and a free basis of the component-tree
edges whose canonical form the global tree lacks.  ``graph_edges`` lists
every undirected edge once, and ``all_edge_higgins_decompose`` is
``higgins_decompose`` before it read the forests: the Schreier words of
all those edges, not only of the forest's tree edges and root loops.
``bounded_theta_tree`` is ``build_theta_tree`` before its stage 2 lost
its depth cap and its image bound and before its stage 3 went: it expands
no state more than ``extension_bound`` edges from the covered vertices,
follows no image longer than ``word_bound`` syllables, keeps searching
after every vertex has a word, records every arrival as it goes, and
pairs each vertex left without a word with a base loop of equal image.
``gated_decompose_and_check`` is ``decompose_and_check`` when
``_assemble`` still gated each candidate before the checks: it raised
``CrossFactorPieceNontrivial`` on a piece of H_lam in a foreign factor and
``BetaImageNotInFactor`` on a representative whose image is not a single
element of its factor, where ``_assemble`` now leaves both to C1-C7.
``higgins_decompose_and_check`` is ``decompose_and_check`` before it read
the certificate off H's Kurosh basis: up to ``Bounds.tree_retries``
image-trivial transversals of H's core (``build_theta_tree`` in permuted
edge orders), each split into generators of H_lam (``higgins_decompose``),
one core and Kurosh decomposition per factor, the beta'/g correction of
each piece, and the first candidate that passes C1-C7.
``dumps_system_hash`` is ``system_hash`` before it wrote the JSON itself:
the SHA-256 of ``json.dumps`` of the system's description.
``small_index_subgroups`` lists every subgroup of a given finite index as
a point stabilizer of ``transitive_actions``, which runs over every action
of each factor on the points (one per isomorphism class for the first
factor), with no coset enumeration; the tests check its counts against
sympy's ``low_index_subgroups``.  ``schreier_generators`` reads a subgroup's
generators off its coset table, for it and for tables pinned as data.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from freedecomp import covgraph, higgins
from freedecomp.conjecture import (
    Bounds,
    CertificateRejected,
    ConjectureCertificate,
    FactorCertificate,
    canonical_generators,
    check_h_theta_surjective,
    system_hash,
)
from freedecomp.covgraph import (
    CoreGraph,
    Edge,
    GraphNotComplete,
    LambdaComponent,
    build_core,
    complete_graph,
    lambda_components,
    membership,
)
from freedecomp.fingroup import (
    FiniteGroup,
    MalformedTable,
    NoIdentity,
    NotAssociative,
    NotInvertible,
    _generators,
    solve_preimage,
    subgroup_closure,
)
from freedecomp.freeprod import EMPTY, FactorSystem, Word, invert, multiply, syllable_word, theta_word
from freedecomp.higgins import (
    FactorDecomposition,
    HigginsDecomposition,
    ThetaTree,
    TreeBoundExceeded,
    build_theta_tree,
    higgins_decompose,
)
from freedecomp.kurosh import DisconnectedUnion, KuroshDecomposition, KuroshPiece, kurosh_decompose
from freedecomp.verify import VerificationReport, check_certificate


class EnumerationOverflow(Exception):
    pass


class NaiveCosetTable:
    def __init__(self, system, gens, max_cosets=64):
        self.system = system
        self.max_cosets = max_cosets
        self.letters = [
            (lam, g)
            for lam in range(system.num_factors)
            for g in range(1, system.factors_g[lam].order)
        ]
        self.relators = self._relators()
        self.gen_words = [list(w) for w in gens]
        self.table = [dict()]
        self.parent = [0]
        self._run()

    def _relators(self):
        rels = []
        for lam in range(self.system.num_factors):
            group = self.system.factors_g[lam]
            for g in range(1, group.order):
                for h in range(1, group.order):
                    gh = group.mul[g][h]
                    if gh == 0:
                        rels.append([(lam, g), (lam, h)])
                    else:
                        rels.append([(lam, g), (lam, h), (lam, group.inv[gh])])
        return rels

    def _inv(self, letter):
        lam, g = letter
        return (lam, self.system.factors_g[lam].inv[g])

    def rep(self, c):
        while self.parent[c] != c:
            self.parent[c], c = self.parent[self.parent[c]], self.parent[c]
        return c

    def _live(self):
        return [c for c in range(len(self.table)) if self.rep(c) == c]

    def _get(self, c, letter):
        t = self.table[c].get(letter)
        return None if t is None else self.rep(t)

    def _set(self, c, letter, d):
        self.table[c][letter] = d
        self.table[d][self._inv(letter)] = c

    def _new_coset(self):
        if len(self._live()) >= self.max_cosets:
            raise EnumerationOverflow(self.max_cosets)
        c = len(self.table)
        self.table.append(dict())
        self.parent.append(c)
        return c

    def _coincide(self, a, b):
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.rep(a), self.rep(b)
            if a == b:
                continue
            keep, drop = (a, b) if a < b else (b, a)
            self.parent[drop] = keep
            row = self.table[drop]
            self.table[drop] = dict()
            for letter, t in row.items():
                t = self.rep(t)
                cur = self._get(keep, letter)
                if cur is None:
                    self._set(keep, letter, t)
                elif cur != t:
                    queue.append((cur, t))

    def _scan(self, start, word):
        # forward as far as defined, then backward; deduce or coincide
        changed = False
        f, i = self.rep(start), 0
        while i < len(word):
            t = self._get(f, word[i])
            if t is None:
                break
            f, i = t, i + 1
        if i == len(word):
            if f != self.rep(start):
                self._coincide(f, self.rep(start))
                return True
            return False
        b, j = self.rep(start), len(word) - 1
        while j > i:
            t = self._get(b, self._inv(word[j]))
            if t is None:
                break
            b, j = t, j - 1
        if j == i:
            f, b = self.rep(f), self.rep(b)
            existing = self._get(b, self._inv(word[i]))
            if existing is not None and existing != f:
                self._coincide(existing, f)
            else:
                self._set(f, word[i], b)
            return True
        # gap longer than one letter: define the next coset on the path
        c = self._new_coset()
        self._set(self.rep(f), word[i], c)
        return True

    def _run(self):
        while True:
            changed = False
            for w in self.gen_words:
                if w:
                    changed |= self._scan(0, w)
            for c in self._live():
                if self.rep(c) != c:
                    continue
                for rel in self.relators:
                    changed |= self._scan(c, rel)
                    if self.rep(c) != c:
                        break
            if changed:
                continue
            hole = None
            for c in self._live():
                for letter in self.letters:
                    if self._get(c, letter) is None:
                        hole = (c, letter)
                        break
                if hole:
                    break
            if hole is None:
                return
            c, letter = hole
            d = self._new_coset()
            self._set(c, letter, d)

    @property
    def size(self):
        return len(self._live())

    def membership(self, word):
        c = 0
        for letter in word:
            c = self._get(self.rep(c), letter)
            if c is None:
                return False
        return self.rep(c) == 0


def brute_force_members(
    sys: FactorSystem,
    h_gens,
    limit: int | None = None,
    *,
    length_cap: int | None = None,
    state_budget: int = 1_000_000,
    targets=None,
) -> tuple[frozenset[Word], bool]:
    """Products of at most ``limit`` generators/inverses, as normal forms.

    ``length_cap`` prunes products whose normal form grows beyond the cap
    (making the closure finite even without a depth limit), ``targets`` stops
    the search early once every target word has appeared.  Returns the set
    and whether the search ran to completion within the state budget.
    """
    letters = []
    for w in h_gens:
        w = tuple(w)
        if w and w not in letters:
            letters.append(w)
        wi = invert(sys, "G", w)
        if wi and wi not in letters:
            letters.append(wi)
    found = {EMPTY}
    frontier = [EMPTY]
    remaining = set(targets) - found if targets is not None else None
    exhausted = True
    depth = 0
    while frontier and (limit is None or depth < limit):
        if remaining is not None and not remaining:
            break
        nxt = []
        for u in frontier:
            for a in letters:
                v = multiply(sys, "G", u, a)
                if length_cap is not None and len(v) > length_cap:
                    continue
                if v not in found:
                    found.add(v)
                    nxt.append(v)
                    if remaining is not None:
                        remaining.discard(v)
            if len(found) > state_budget:
                exhausted = False
                break
        if not exhausted:
            break
        frontier = nxt
        depth += 1
    return frozenset(found), exhausted


def brute_force_membership(sys: FactorSystem, h_gens, w: Word, limit: int) -> bool:
    """True iff ``w`` equals some product of at most ``limit`` generators."""
    w = tuple(w)
    if w == EMPTY:
        return True
    members, _ = brute_force_members(sys, h_gens, limit, targets={w})
    return w in members


def rank_formula(sys: FactorSystem, graph: CoreGraph) -> int:
    """Sum over components of (size - 1), minus (vertex_count - 1)."""
    total = 0
    for lam in range(sys.num_factors):
        for comp in lambda_components(sys, graph, lam):
            total += len(comp.vertices) - 1
    return total - (graph.vertex_count - 1)


class Fingerprint(NamedTuple):
    """Kurosh fingerprint: the sorted (factor, stabilizer class) pairs of
    the pieces plus the free rank."""

    piece_classes: tuple[tuple[int, tuple[int, ...]], ...]
    free_rank: int


def subgroup_conjugacy_key(group: FiniteGroup, elems: Iterable[int]) -> tuple[int, ...]:
    """Canonical key of the conjugacy class of a subgroup inside ``group``.

    The key is the lexicographically smallest sorted element tuple over all
    conjugates, so two subgroups get equal keys iff they are conjugate.
    """
    base = frozenset(elems) | {0}
    best = None
    for t in range(group.order):
        tinv = group.inv[t]
        conj = tuple(sorted(group.mul[group.mul[tinv][s]][t] for s in base))
        if best is None or conj < best:
            best = conj
    assert best is not None
    return best


def decomposition_fingerprint(sys: FactorSystem, graph: CoreGraph) -> Fingerprint:
    """One (factor, stabilizer class) pair per piece of ``kurosh_decompose``
    and the length of its free basis."""
    decomp = kurosh_decompose(sys, graph)
    classes = sorted(
        (piece.lam, subgroup_conjugacy_key(sys.factors_g[piece.lam], piece.stabilizer)) for piece in decomp.pieces
    )
    return Fingerprint(piece_classes=tuple(classes), free_rank=len(decomp.free_basis))


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


def exhaustive_intersection(sys: FactorSystem, graph: CoreGraph, lam: int, x: Word) -> set[Word]:
    """The words x^-1 g x, g a nonidentity element of G_lam, that lie in
    the subgroup of the complete graph."""
    group = sys.factors_g[lam]
    xinv = invert(sys, "G", x)
    computed = set()
    for g in range(1, group.order):
        w = multiply(sys, "G", multiply(sys, "G", xinv, ((lam, g),)), x)
        if membership(sys, graph, w):
            computed.add(w)
    return computed


def object_lambda_components(sys: FactorSystem, graph: CoreGraph, lam: int) -> list[LambdaComponent]:
    """Partition of all vertices into lam-edge components, each walked
    breadth-first from its smallest vertex into its own object."""
    group = sys.factors_g[lam]
    mul = group.mul
    label: dict = {}
    comps = []
    for root in range(graph.vertex_count):
        if root in label:
            continue
        label[root] = 0
        comp = [root]
        tree = []
        qi = 0
        while qi < len(comp):
            u = comp[qi]
            qi += 1
            for g in range(1, group.order):
                v = graph.action[u].get((lam, g))
                if v is not None and v not in label:
                    label[v] = mul[label[u]][g]
                    comp.append(v)
                    tree.append((u, lam, g, v))
        stab = frozenset({0} | {g for g in range(1, group.order) if graph.action[root].get((lam, g)) == root})
        comps.append(
            LambdaComponent(
                lam=lam,
                vertices=tuple(sorted(comp)),
                root=root,
                coset_label={v: label[v] for v in comp},
                stabilizer=stab,
                tree=tuple(tree),
            )
        )
    return comps


@dataclass(frozen=True)
class SpanningData:
    """The lam-components with their spanning trees, a global tree inside
    the union of those trees, and the transversal words read along the
    global tree from the base."""

    components: tuple[LambdaComponent, ...]
    global_tree: tuple[Edge, ...]
    transversal: tuple[Word, ...]


def _canonical_edge(sys: FactorSystem, edge: Edge) -> Edge:
    u, lam, g, v = edge
    if u > v:
        return (v, lam, sys.factors_g[lam].inv[g], u)
    return edge


def spanning_data(sys: FactorSystem, graph: CoreGraph) -> SpanningData:
    comps = [comp for lam in range(sys.num_factors) for comp in object_lambda_components(sys, graph, lam)]

    # global tree: BFS from base over the union of the component trees
    nbrs: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(graph.vertex_count)}
    for comp in comps:
        for u, lam, g, v in comp.tree:
            nbrs[u].append((lam, g, v))
            nbrs[v].append((lam, sys.factors_g[lam].inv[g], u))
    for v in nbrs:
        nbrs[v].sort()

    transversal: list[Word | None] = [None] * graph.vertex_count
    transversal[0] = EMPTY
    global_tree: list[Edge] = []
    queue = [0]
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for lam, g, v in nbrs[u]:
            if transversal[v] is None:
                transversal[v] = multiply(sys, "G", transversal[u], ((lam, g),))
                global_tree.append((u, lam, g, v))
                queue.append(v)
    if any(t is None for t in transversal):
        raise DisconnectedUnion("component-tree union does not span the graph")

    return SpanningData(
        components=tuple(comps),
        global_tree=tuple(global_tree),
        transversal=tuple(transversal),  # type: ignore[arg-type]
    )


def spanning_kurosh_decompose(sys: FactorSystem, graph: CoreGraph) -> KuroshDecomposition:
    """Pieces p_N S p_N^-1 at x = p_N^-1 per component with nontrivial
    stabilizer, and the Schreier words of component-tree edges outside the
    global tree, read off ``spanning_data``."""
    data = spanning_data(sys, graph)
    p = data.transversal

    pieces = []
    for comp in data.components:
        if len(comp.stabilizer) == 1:
            continue
        p_root = p[comp.root]
        rep = invert(sys, "G", p_root)
        vg = tuple(
            multiply(sys, "G", multiply(sys, "G", p_root, syllable_word(comp.lam, s)), invert(sys, "G", p_root))
            for s in sorted(comp.stabilizer)
            if s != 0
        )
        pieces.append(
            KuroshPiece(
                lam=comp.lam,
                rep=rep,
                stabilizer=tuple(sorted(comp.stabilizer)),
                vertex_group_gens=vg,
            )
        )

    tau = {_canonical_edge(sys, e) for e in data.global_tree}
    basis, factors = [], []
    for comp in data.components:
        for edge in comp.tree:
            if _canonical_edge(sys, edge) in tau:
                continue
            u, lam, g, v = edge
            w = multiply(sys, "G", multiply(sys, "G", p[u], ((lam, g),)), invert(sys, "G", p[v]))
            basis.append(w)
            factors.append(lam)

    return KuroshDecomposition(
        pieces=tuple(pieces),
        free_basis=tuple(basis),
        free_rank=len(basis),
        free_factors=tuple(factors),
    )


def graph_edges(sys: FactorSystem, graph: CoreGraph) -> list[Edge]:
    """Canonical undirected edges (u, lam, g, v), u <= v, deterministic
    order; a loop is listed by the smaller of g and g^-1."""
    groups = sys.factors_g
    seen = set()
    out = []
    for u in range(graph.vertex_count):
        for (lam, g), v in sorted(graph.action[u].items()):
            if u < v:
                key = (u, lam, g, v)
            elif u > v:
                key = (v, lam, groups[lam].inv[g], u)
            else:
                key = (u, lam, min(g, groups[lam].inv[g]), u)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def all_edge_higgins_decompose(sys: FactorSystem, graph: CoreGraph, tree: ThetaTree) -> HigginsDecomposition:
    """The nontrivial Schreier words p_u g p_v^-1 of every factor-lam edge
    of ``graph_edges``, deduplicated and sorted by (length, word)."""
    p = tree.transversal
    edges = graph_edges(sys, graph)
    per_factor = []
    for lam in range(sys.num_factors):
        words = {
            multiply(sys, "G", multiply(sys, "G", p[u], ((lam, g),)), invert(sys, "G", p[v]))
            for u, l2, g, v in edges
            if l2 == lam
        }
        words.discard(EMPTY)
        per_factor.append(FactorDecomposition(lam=lam, gens=tuple(sorted(words, key=lambda w: (len(w), w)))))
    return HigginsDecomposition(factors=tuple(per_factor))


def bounded_theta_tree(
    sys: FactorSystem,
    graph: CoreGraph,
    word_bound: int = 12,
    extension_bound: int = 64,
    order_seed: int = 0,
) -> ThetaTree:
    """Choose an image-trivial transversal word for every coset.

    ``word_bound`` caps the syllable length of intermediate images,
    ``extension_bound`` caps the graph length of candidate words.  Raises
    TreeBoundExceeded when some vertex stays unreachable within the bounds
    (callers should check that H maps onto B first to tell the cases apart).
    """
    if not graph.complete:
        raise GraphNotComplete("transversal search requires the full coset graph")
    n = graph.vertex_count
    labels = higgins._label_order(sys, order_seed)

    p: list[Word | None] = [None] * n
    p[0] = EMPTY

    kernel_labels = [(lam, g) for lam, g in labels if sys.theta[lam].map[g] == 0]

    def kernel_closure(start: int) -> None:
        # stage 1 rule: grow the transversal along single kernel-label edges
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for lam, g in kernel_labels:
                v = graph.action[u].get((lam, g))
                if v is None or p[v] is not None:
                    continue
                p[v] = multiply(sys, "G", p[u], ((lam, g),))
                queue.append(v)

    kernel_closure(0)

    uncovered = [v for v in range(n) if p[v] is None]
    if not uncovered:
        return ThetaTree(tuple(p))

    # stage 2/3: BFS over (vertex, image) states from the covered vertices
    sources = [v for v in range(n) if p[v] is not None]
    visited: dict[tuple[int, Word], Word] = {}  # (vertex, image) -> a word from the base with that end and image
    arrivals: dict[int, list[Word]] = {v: [] for v in range(n)}
    squeue: deque = deque()
    for src in sources:
        state = (src, EMPTY)
        if state not in visited:
            visited[state] = p[src]
            arrivals[src].append(EMPTY)
            squeue.append((state, 0))
    while squeue and len(visited) < higgins._STATE_BUDGET:
        (v, img), depth = squeue.popleft()
        if depth >= extension_bound:
            continue
        q = visited[(v, img)]
        for lam, g in labels:
            v2 = graph.action[v][(lam, g)]
            img2 = multiply(sys, "B", img, ((lam, sys.theta[lam].map[g]),) if sys.theta[lam].map[g] else ())
            if len(img2) > word_bound:
                continue
            state = (v2, img2)
            if state in visited:
                continue
            q2 = multiply(sys, "G", q, ((lam, g),))
            visited[state] = q2
            arrivals[v2].append(img2)
            squeue.append((state, depth + 1))
            if img2 == EMPTY and p[v2] is None:
                p[v2] = q2
                kernel_closure(v2)
    budget_hit = bool(squeue)  # states were left when the budget stopped the search
    uncovered = [v for v in range(n) if p[v] is None]
    if uncovered:
        base_images = [img for img in arrivals[0] if img != EMPTY]
        base_set = set(base_images)
        for v in list(uncovered):
            if p[v] is not None:
                continue
            match = next((img for img in arrivals[v] if img in base_set), None)
            if match is None:
                continue
            h = visited[(0, match)]
            q = visited[(v, match)]
            p[v] = multiply(sys, "G", invert(sys, "G", h), q)
            kernel_closure(v)
        uncovered = [v for v in range(n) if p[v] is None]
    if uncovered:
        budget = f", state budget {higgins._STATE_BUDGET} reached" if budget_hit else ""
        raise TreeBoundExceeded(
            f"no image-trivial transversal for vertices {uncovered} "
            f"(word_bound={word_bound}, extension_bound={extension_bound}{budget})"
        )
    return ThetaTree(tuple(p))


class LinearScanBuilder(covgraph._Builder):
    """The builder taking each saturation job smallest first, by
    ``min(self.dirty)``."""

    def stabilize(self) -> None:
        while True:
            self._process_pending()
            if not self.dirty:
                return
            lam, v = job = min(self.dirty)
            self.dirty.discard(job)
            if self.find(v) == v:
                self._saturate(lam, v)


class RandomOrderBuilder(covgraph._Builder):
    """The builder shuffling its pending merges and drawing each saturation
    job at random, from a ``random.Random(seed)`` per builder; set ``seed``
    on the class."""

    seed = 0

    def __init__(self, sys: FactorSystem):
        super().__init__(sys)
        self.rng = random.Random(self.seed)

    def stabilize(self) -> None:
        while True:
            self.rng.shuffle(self.pending)
            self._process_pending()
            if not self.dirty:
                return
            lam, v = job = self.rng.choice(sorted(self.dirty))
            self.dirty.discard(job)
            if self.find(v) == v:
                self._saturate(lam, v)


class WedgeBuilder(covgraph._Builder):
    """The builder seeding each generator as a fresh cycle at the base,
    leaving every shared prefix and suffix to folding."""

    def add_generator_cycle(self, word: Word) -> None:
        if not word:
            return
        v = self.find(0)
        for lam, g in word[:-1]:
            w = self.new_vertex()
            self.add_edge(v, lam, g, w)
            v = self.find(w)
        lam, g = word[-1]
        self.add_edge(v, lam, g, self.find(0))


class TwoPassSaturateBuilder(covgraph._Builder):
    """The builder saturating in two passes, the work the one-walk
    ``_Builder._saturate`` must reproduce."""

    def _saturate(self, lam: int, root: int) -> None:
        group = self.groups[lam]
        mul, inv = group.mul, group.inv
        label = {root: 0}
        comp = [root]
        qi = 0
        while qi < len(comp):
            u = comp[qi]
            qi += 1
            for g in range(1, group.order):
                w = self.adj[u].get((lam, g))
                if w is None:
                    continue
                w = self.find(w)
                self.adj[u][(lam, g)] = w
                if w not in label:
                    label[w] = mul[label[u]][g]
                    comp.append(w)
        sgens = set()
        for u in comp:
            for (l2, g), w in self.adj[u].items():
                if l2 != lam:
                    continue
                w = self.find(w)
                s = mul[mul[label[u]][g]][inv[label[w]]]
                if s:
                    sgens.add(s)
        stab = subgroup_closure(group, sgens)
        coset = [-1] * group.order
        for x in range(group.order):
            if coset[x] < 0:
                for s in stab:
                    coset[mul[s][x]] = x
        buckets: dict = {}
        for u in comp:
            buckets.setdefault(coset[label[u]], []).append(u)
        merged = False
        for key in sorted(buckets):
            group_vs = buckets[key]
            if len(group_vs) > 1:
                first = min(group_vs)
                for other in group_vs:
                    if other != first:
                        self.pending.append((first, other))
                merged = True
        if merged:
            return
        at = {key: vs[0] for key, vs in buckets.items()}
        for u in comp:
            adj_u, row = self.adj[u], mul[label[u]]
            for g in range(1, group.order):
                if (lam, g) not in adj_u:
                    v = at.get(coset[row[g]])
                    if v is not None:
                        self.add_edge(u, lam, g, v)
        for u in comp:
            self.dirty.discard((lam, u))


def dumps_system_hash(sys: FactorSystem) -> str:
    """The SHA-256 of the compact, key-sorted ``json.dumps`` of
    ``sys.description()``, the bytes ``system_hash`` must reproduce."""
    payload = json.dumps(sys.description(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def entrywise_reindexed(table: list[list[int]], e: int) -> list[list[int]]:
    # Swap indices 0 and e so the identity lands at 0.
    n = len(table)
    sigma = list(range(n))
    sigma[0], sigma[e] = e, 0
    return [[sigma[table[sigma[i]][sigma[j]]] for j in range(n)] for i in range(n)]


def entrywise_validate_group(table, name: str = "G") -> FiniteGroup:
    """``fingroup.validate_group`` with a Python loop per entry: the same
    checks in the same order, with the same exceptions and messages."""
    n = len(table)
    if n == 0:
        raise MalformedTable("empty table")
    rows = []
    for row in table:
        row = list(row)
        if len(row) != n:
            raise MalformedTable(f"table is not square: row of length {len(row)} in an order-{n} table")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                raise MalformedTable(f"entry {x!r} out of range 0..{n - 1}")
        rows.append(row)

    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    if identity != 0:
        rows = entrywise_reindexed(rows, identity)
    label = {0: identity, identity: 0}

    full = set(range(n))
    for x in range(n):
        if set(rows[x]) != full:
            raise NotInvertible(f"row {label.get(x, x)} is not a permutation")
        if {rows[y][x] for y in range(n)} != full:
            raise NotInvertible(f"column {label.get(x, x)} is not a permutation")

    for a in _generators(rows):
        row_a = rows[a]
        for x in range(n):
            row_x = rows[x]
            row_xa = rows[row_x[a]]
            if row_xa != [row_x[t] for t in row_a]:
                y = next(y for y in range(n) if row_xa[y] != row_x[row_a[y]])
                x, a, y = (label.get(v, v) for v in (x, a, y))
                raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")

    inv = [0] * n
    for x in range(n):
        inv[x] = rows[x].index(0)

    return FiniteGroup(order=n, mul=tuple(tuple(row) for row in rows), inv=tuple(inv), name=name)


def cubic_associative(rows) -> tuple[int, int, int] | None:
    """The first triple (x, y, z) in index order with (xy)z != x(yz), or
    None; the O(n^3) loop ``validate_group`` ran before Light's test."""
    n = len(rows)
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[xy][z] != rows[x][rows[y][z]]:
                    return (x, y, z)
    return None


def all_pairs_hom(source, target, m) -> tuple[int, int] | None:
    """The first pair (x, y) in index order with m(xy) != m(x)m(y), or None;
    the O(n^2) loop ``validate_hom`` ran before the law on generators."""
    for x in range(source.order):
        for y in range(source.order):
            if m[source.mul[x][y]] != target.mul[m[x]][m[y]]:
                return (x, y)
    return None


def frontier_subgroup_closure(group: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """Smallest subset containing 0 and gens, closed under product and inverse."""
    closed = {0}
    frontier = sorted(set(gens) - {0})
    for g in frontier:
        if not 0 <= g < group.order:
            raise MalformedTable(f"generator {g} out of range")
    closed.update(frontier)
    while frontier:
        nxt = []
        for g in frontier:
            candidates = [group.inv[g]]
            candidates.extend(group.mul[g][h] for h in sorted(closed))
            candidates.extend(group.mul[h][g] for h in sorted(closed))
            for c in candidates:
                if c not in closed:
                    closed.add(c)
                    nxt.append(c)
        frontier = sorted(nxt)
    return frozenset(closed)


class CrossFactorPieceNontrivial(RuntimeError):
    """A per-factor subgroup produced a piece in a foreign factor."""


class BetaImageNotInFactor(RuntimeError):
    """A piece representative's image is not a single factor element."""


def gated_decompose_and_check(
    sys: FactorSystem, h_gens, bounds: Bounds | None = None
) -> tuple[ConjectureCertificate, VerificationReport, CoreGraph]:
    """``decompose_and_check`` with ``_assemble``'s two gates before C1-C7."""
    bounds = bounds or Bounds()
    gens = canonical_generators(h_gens)
    graph = complete_graph(sys, build_core(sys, gens), bounds.max_cosets)
    check_h_theta_surjective(sys, gens, bounds.max_cosets)

    reasons: list[str] = []
    for order_seed in range(bounds.tree_retries):
        try:
            tree = build_theta_tree(sys, graph, order_seed=order_seed)
            cert, report = _gated_assemble(sys, graph, tree, gens)
            return cert, report, graph
        except (TreeBoundExceeded, CrossFactorPieceNontrivial, BetaImageNotInFactor, CertificateRejected) as exc:
            last = exc
            reasons.append(f"order_seed {order_seed}: {exc}")
    raise type(last)(f"all {bounds.tree_retries} transversal retries rejected: " + "; ".join(reasons))


def _gated_assemble(
    sys: FactorSystem, graph: CoreGraph, tree: ThetaTree, gens: tuple[Word, ...]
) -> tuple[ConjectureCertificate, VerificationReport]:
    hd = higgins_decompose(sys, graph, tree)
    factor_certs: list[FactorCertificate] = []

    for lam in range(sys.num_factors):
        fd = hd.factors[lam]
        for w in fd.gens:
            assert all(l2 == lam for l2, _ in theta_word(sys, w))
        if fd.gens:
            kd = kurosh_decompose(sys, build_core(sys, fd.gens))
        else:
            kd = KuroshDecomposition(pieces=(), free_basis=(), free_rank=0, free_factors=())

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


def higgins_decompose_and_check(
    sys: FactorSystem, h_gens, bounds: Bounds | None = None
) -> tuple[ConjectureCertificate, VerificationReport, CoreGraph]:
    """``decompose_and_check`` by transversal search, Higgins split and
    per-factor Kurosh step, retried in ``bounds.tree_retries`` edge orders.

    Raises ThetaNotSurjectiveOntoB when the image precheck fails and, when
    every retry was rejected, an error of the last retry's kind naming the
    reason of every retry: TreeBoundExceeded when its search hit the state
    budget, CertificateRejected when C1-C7 failed.
    """
    bounds = bounds or Bounds()
    gens = canonical_generators(h_gens)
    graph = build_core(sys, gens)
    check_h_theta_surjective(sys, gens)

    reasons: list[str] = []
    for order_seed in range(bounds.tree_retries):
        try:
            tree = build_theta_tree(sys, graph, order_seed=order_seed)
            cert, report = _higgins_assemble(sys, graph, tree, gens)
            return replace(cert, system_hash=system_hash(sys)), report, graph
        except (TreeBoundExceeded, CertificateRejected) as exc:
            last = exc
            reasons.append(f"order_seed {order_seed}: {exc}")
    raise type(last)(f"all {bounds.tree_retries} transversal retries rejected: " + "; ".join(reasons))


def _higgins_assemble(
    sys: FactorSystem, graph: CoreGraph, tree: ThetaTree, gens: tuple[Word, ...]
) -> tuple[ConjectureCertificate, VerificationReport]:
    """The certificate of one transversal candidate, without its system
    hash, and its passing report: each Kurosh piece of H_lam listed under
    its own factor, its beta' corrected only when theta(beta') is a single
    element of that factor, and the candidate judged by C1-C7 alone."""
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
    cert = ConjectureCertificate(system_hash="", factors=factors, tree_transversal=tree.transversal)
    report = check_certificate(sys, graph, cert)
    if not report.verdict:
        failed = ", ".join(c.name for c in report.checks if c.status == "fail")
        raise CertificateRejected(f"failed {failed}")
    return cert, report


class SmallIndexSubgroup(NamedTuple):
    """A subgroup H of finite index n, found by ``small_index_subgroups``.

    ``moves[(lam, g)]`` is the right action of g on the n cosets of H,
    numbered breadth-first from H = 0 with the moves taken in (lam, g)
    order, and ``table`` the same action as rows, one per coset; ``gens``
    are H's Schreier generators over that breadth-first tree, in normal
    form; ``class_key`` is the least table of a conjugate of H, so
    conjugate subgroups share it."""

    table: tuple[tuple[int, ...], ...]
    moves: dict
    gens: tuple[Word, ...]
    class_key: tuple[tuple[int, ...], ...]


def _all_subgroups(group: FiniteGroup) -> set[frozenset[int]]:
    """Every subgroup, each closed from a smaller one and one more element."""
    found = {frozenset([0])}
    frontier = list(found)
    while frontier:
        sub = frontier.pop()
        for g in range(group.order):
            if g not in sub:
                bigger = frontier_subgroup_closure(group, sub | {g})
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return found


def _coset_action(group: FiniteGroup, sub: frozenset[int]) -> list[tuple[int, ...]]:
    """``act[g][i]``: g's right action on the right cosets of ``sub``,
    numbered by their least elements."""
    cosets = sorted({frozenset(group.mul[s][x] for s in sub) for x in range(group.order)}, key=min)
    where = {y: i for i, coset in enumerate(cosets) for y in coset}
    return [tuple(where[group.mul[min(coset)][g]] for coset in cosets) for g in range(group.order)]


def group_sets(group: FiniteGroup, n: int) -> list[list[tuple[int, ...]]]:
    """One action of ``group`` on n points per isomorphism class: each is a
    disjoint union of coset actions, one orbit per point stabilizer taken up
    to conjugacy, the orbit types in nondecreasing order."""
    classes = {subgroup_conjugacy_key(group, sub): sub for sub in _all_subgroups(group)}
    orbits = [_coset_action(group, classes[key]) for key in sorted(classes)]
    out = []

    def extend(start: int, chosen: list, size: int) -> None:
        if size == n:
            act = [sum((tuple(offset + i for i in orbit[g]) for orbit, offset in chosen), ()) for g in range(group.order)]
            out.append(act)
            return
        for t in range(start, len(orbits)):
            if size + len(orbits[t][0]) <= n:
                extend(t, chosen + [(orbits[t], size)], size + len(orbits[t][0]))

    extend(0, [], 0)
    return out


def labelled_group_sets(group: FiniteGroup, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every action of ``group`` on the points 0..n-1: each of
    ``group_sets`` under every relabelling of the points, without repeats."""
    seen: dict = {}
    for act in group_sets(group, n):
        for pi in itertools.permutations(range(n)):
            relabelled = []
            for row in act:
                new = [0] * n
                for p in range(n):
                    new[pi[p]] = pi[row[p]]
                relabelled.append(tuple(new))
            seen.setdefault(tuple(relabelled))
    return list(seen)


def transitive_actions(sys: FactorSystem, n: int):
    """Every transitive right action of G = G_0 * G_1 * ... on n points, up
    to relabelling the points, each at least once: G_0 acts by one action
    per isomorphism class (``group_sets``) and every other factor by every
    action (``labelled_group_sets``), which meets every relabelling class.
    Yields ``{(lam, g): image of each point}`` for the nonidentity g, in
    (lam, g) order."""
    factors = sys.factors_g
    choices = [group_sets(factors[0], n)] + [labelled_group_sets(group, n) for group in factors[1:]]
    for acts in itertools.product(*choices):
        moves = {(lam, g): act[g] for lam, act in enumerate(acts) for g in range(1, factors[lam].order)}
        reached = {0}
        queue = [0]
        for p in queue:  # grows while the walk discovers points
            for perm in moves.values():
                if perm[p] not in reached:
                    reached.add(perm[p])
                    queue.append(perm[p])
        if len(reached) == n:
            yield moves


def based_coset_table(moves: dict, base: int) -> tuple[tuple[int, ...], ...]:
    """The action renumbered breadth-first from ``base``, as one row of
    targets per point."""
    number = {base: 0}
    order = [base]
    for p in order:  # grows while the walk discovers points
        for perm in moves.values():
            if perm[p] not in number:
                number[perm[p]] = len(order)
                order.append(perm[p])
    return tuple(tuple(number[perm[p]] for perm in moves.values()) for p in order)


def small_index_subgroups(sys: FactorSystem, n: int) -> list[SmallIndexSubgroup]:
    """Every subgroup of index n of G, once each: the point stabilizers of
    ``transitive_actions``, told apart by their coset tables numbered from
    the point (two stabilizers are equal exactly when their based actions
    are isomorphic)."""
    found: dict = {}
    for moves in transitive_actions(sys, n):
        tables = [based_coset_table(moves, p) for p in range(n)]
        class_key = min(tables)
        for table in tables:
            found.setdefault(table, class_key)
    return [
        SmallIndexSubgroup(table, *schreier_generators(sys, table), class_key) for table, class_key in found.items()
    ]


def schreier_generators(sys: FactorSystem, table) -> tuple[dict, tuple[Word, ...]]:
    """The action of a coset table (one row per coset, its targets in
    (lam, g) order, coset 0 the subgroup H) as ``{(lam, g): targets}``, and
    H's Schreier generators over the breadth-first tree from coset 0, in
    normal form."""
    syllables = [(lam, g) for lam, group in enumerate(sys.factors_g) for g in range(1, group.order)]
    moves = {syl: tuple(row[k] for row in table) for k, syl in enumerate(syllables)}
    word = {0: EMPTY}
    order = [0]
    for u in order:  # grows while the walk discovers points
        for syl, perm in moves.items():
            if perm[u] not in word:
                word[perm[u]] = multiply(sys, "G", word[u], (syl,))
                order.append(perm[u])
    gens: dict = {}
    for u in order:
        for syl, perm in moves.items():
            s = multiply(sys, "G", multiply(sys, "G", word[u], (syl,)), invert(sys, "G", word[perm[u]]))
            if s:
                gens.setdefault(s)
    return moves, tuple(gens)
