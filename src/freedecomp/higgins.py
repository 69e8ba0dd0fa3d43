"""Factor-wise decomposition of a finitely generated subgroup.

Given the core of H <= G = G_0 * G_1 * ... and a factor-wise map onto
B = B_0 * B_1 * ..., this picks one transversal word p_N per vertex with
trivial image in B, then collects the Schreier elements
p_N g p_{Ng}^-1 of the factor-lam edges into a generating set for H_lam:
those of the tree edges and root loops of ``lambda_forest`` already
generate it, so only they are taken.
Image-trivial transversals make every H_lam land inside B_lam, and the
stabilizer of each lam-component root, conjugated by its transversal, is
contained in H_lam by construction.

Transversal search runs in two stages:

1. a spanning forest of single edges whose label dies in B;
2. breadth-first search over (vertex, accumulated image) states from the
   already-covered vertices, along the edges the core defines, claiming a
   vertex the first time it is reached with trivial image, until every
   vertex has a word.

The search is complete once H maps onto B, which the caller must check
first (``conjecture.check_h_theta_surjective``).  Take a vertex v = Hu
and choose h in H with theta(h) = theta(u)^-1.  The normal form of h u
traces from the base to v, because the core is folded and saturated, and
its image is trivial; so stage 2 reaches the state (v, 1) after finitely
many steps.  Its one bound is a state budget, ``_STATE_BUDGET``, named
in the error when it trips.  Without the onto check the search may never
claim some vertex: if the states run out first, that proves H does not
map onto B, and if B is infinite it runs until the budget, holding words
that grow with its depth.  Whether the resulting direct factors assemble
into a free product is not guaranteed by the construction; callers
verify and retry with permuted edge orders (``order_seed``) when a check
fails.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .covgraph import CoreGraph, lambda_forest
from .freeprod import EMPTY, FactorSystem, Word, invert, multiply

_STATE_BUDGET = 500_000


class TreeBoundExceeded(RuntimeError):
    """No image-trivial transversal found: the state budget tripped, or the
    states ran out because H does not map onto B."""


@dataclass(frozen=True)
class ThetaTree:
    """Image-trivial transversal: per-vertex words p_N with theta(p_N) = 1,
    readable from the base, p_base empty."""

    transversal: tuple[Word, ...]


@dataclass(frozen=True)
class FactorDecomposition:
    """Schreier generators of H_lam."""

    lam: int
    gens: tuple[Word, ...]


@dataclass(frozen=True)
class HigginsDecomposition:
    factors: tuple[FactorDecomposition, ...]


def _label_order(sys: FactorSystem, order_seed: int) -> list[tuple[int, int]]:
    labels = [
        (lam, g)
        for lam in range(sys.num_factors)
        for g in range(1, sys.factors_g[lam].order)
    ]
    if order_seed:
        random.Random(order_seed).shuffle(labels)
    return labels


def build_theta_tree(
    sys: FactorSystem,
    graph: CoreGraph,
    word_bound: int = 12,
    extension_bound: int = 64,
    order_seed: int = 0,
) -> ThetaTree:
    """Choose an image-trivial transversal word for every vertex of H's
    core.

    Raises TreeBoundExceeded when some vertex is left without a word,
    which can happen for H mapping onto B only at the state budget.
    ``word_bound`` and ``extension_bound`` are ignored; the benchmark
    harness still passes them.
    """
    n = graph.vertex_count
    labels = _label_order(sys, order_seed)

    p: list[Word | None] = [None] * n
    p[0] = EMPTY
    uncovered = n - 1  # vertices still without a word

    kernel_labels = [(lam, g) for lam, g in labels if sys.theta[lam].map[g] == 0]

    def kernel_closure(start: int) -> None:
        # stage 1 rule: grow the transversal along single kernel-label edges
        nonlocal uncovered
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for lam, g in kernel_labels:
                v = graph.action[u].get((lam, g))
                if v is None or p[v] is not None:
                    continue
                p[v] = multiply(sys, "G", p[u], ((lam, g),))
                uncovered -= 1
                queue.append(v)

    kernel_closure(0)
    if not uncovered:
        return ThetaTree(tuple(p))

    # stage 2: BFS over (vertex, image) states from the covered vertices
    visited: dict[tuple[int, Word], Word] = {}  # (vertex, image) -> a word from the base with that end and image
    squeue: deque = deque()
    for src in range(n):
        if p[src] is not None:
            visited[(src, EMPTY)] = p[src]
            squeue.append((src, EMPTY))
    while uncovered and squeue and len(visited) < _STATE_BUDGET:
        v, img = state = squeue.popleft()
        q = visited[state]
        for lam, g in labels:
            v2 = graph.action[v].get((lam, g))
            if v2 is None:
                continue
            img2 = multiply(sys, "B", img, ((lam, sys.theta[lam].map[g]),) if sys.theta[lam].map[g] else ())
            state = (v2, img2)
            if state in visited:
                continue
            q2 = multiply(sys, "G", q, ((lam, g),))
            visited[state] = q2
            squeue.append(state)
            if img2 == EMPTY and p[v2] is None:
                p[v2] = q2
                uncovered -= 1
                kernel_closure(v2)
    if uncovered:
        # states were left only when the budget stopped the search
        reason = f"state budget {_STATE_BUDGET} reached" if squeue else "states ran out: H does not map onto B"
        raise TreeBoundExceeded(
            f"vertices without an image-trivial word: {uncovered}, first {p.index(None)} ({reason})"
        )
    return ThetaTree(tuple(p))


def higgins_decompose(sys: FactorSystem, graph: CoreGraph, tree: ThetaTree) -> HigginsDecomposition:
    """Schreier generators of every factor, grouped by factor.

    H_lam is generated by the words p_u g p_w^-1 of all factor-lam edges
    (u, g, w); the tree edges of ``lambda_forest`` and the loops at each
    component root already generate it (Schreier's lemma).  A component is
    saturated: its vertices lie in distinct cosets of the root stabilizer
    and every edge between them is present, so each of its vertices v is
    one edge (r, a_v, v) from its root r, of coset label a_v, and
    that edge is v's tree edge, of word z_v = p_r a_v p_v^-1.  A non-tree
    edge (u, g, w) of the component then gives
    p_u g p_w^-1 = z_u^-1 (p_r s p_r^-1) z_w with s = a_u g a_w^-1, and
    r s = u g a_w^-1 = w a_w^-1 = r, so s lies in the root stabilizer and
    p_r s p_r^-1 is the word of the root loop (r, s, r).  The loop word of
    s^-1 is the inverse of that of s, so only loops with s <= s^-1 are
    taken.  The root is the component's smallest vertex, so every word
    taken is that of an edge as the all-edge split orients it, and the
    set generates the same H_lam.
    """
    p = tree.transversal
    per_factor = []
    for lam in range(sys.num_factors):
        inv = sys.factors_g[lam].inv
        forest = lambda_forest(sys, graph, lam)
        edges = [(forest.parent[v], forest.via[v], v) for v in forest.order if forest.via[v]]
        for r, stab in zip(forest.roots, forest.stabilizers):
            edges.extend((r, s, r) for s in stab[1:] if s <= inv[s])
        words = {
            multiply(sys, "G", multiply(sys, "G", p[u], ((lam, g),)), invert(sys, "G", p[w]))
            for u, g, w in edges
        }
        words.discard(EMPTY)
        gens = sorted(words, key=lambda w: (len(w), w))
        per_factor.append(FactorDecomposition(lam=lam, gens=tuple(gens)))
    return HigginsDecomposition(factors=tuple(per_factor))
