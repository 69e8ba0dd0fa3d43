"""Factor-wise decomposition of a finite-index subgroup.

Given the complete coset graph of H <= G = G_0 * G_1 * ... and a
factor-wise map onto B = B_0 * B_1 * ..., this picks one transversal word
p_N per coset with trivial image in B, then collects the Schreier elements
p_N g p_{Ng}^-1 of the factor-lam edges into a generating set for H_lam.
Image-trivial transversals make every H_lam land inside B_lam, and the
stabilizer of each lam-component root, conjugated by its transversal, is
contained in H_lam by construction.

Transversal search runs in three priority stages:

1. a spanning forest of single edges whose label dies in B;
2. breadth-first search over (vertex, accumulated image) states from the
   already-covered vertices, claiming a vertex the first time it is
   reached with trivial image;
3. pairing of leftover vertices: a state (N, img) combines with a base
   loop of equal image into the image-trivial word loop^-1 * path.

Whether the resulting direct factors assemble into a free product is not
guaranteed by the construction; callers verify and retry with permuted
edge orders (``order_seed``) when a check fails.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .covgraph import CoreGraph, GraphNotComplete, graph_edges, lambda_components
from .freeprod import EMPTY, FactorSystem, Word, invert, multiply, theta_word

_STATE_BUDGET = 500_000


class TreeBoundExceeded(RuntimeError):
    """No image-trivial transversal found within the configured bounds."""


@dataclass(frozen=True)
class ThetaTree:
    """Image-trivial transversal: per-vertex words p_N with theta(p_N) = 1,
    readable from the base, p_base empty."""

    transversal: tuple[Word, ...]
    order_seed: int = 0


@dataclass(frozen=True)
class FactorDecomposition:
    lam: int
    gens: tuple[Word, ...]
    betas: tuple[Word, ...]
    roots: tuple[int, ...]


@dataclass(frozen=True)
class HigginsDecomposition:
    factors: tuple[FactorDecomposition, ...]

    def gens_for(self, lam: int) -> tuple[Word, ...]:
        return self.factors[lam].gens


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
    """Choose an image-trivial transversal word for every coset.

    ``word_bound`` caps the syllable length of intermediate images,
    ``extension_bound`` caps the graph length of candidate words.  Raises
    TreeBoundExceeded when some vertex stays unreachable within the bounds
    (callers should check that H maps onto B first to tell the cases apart).
    """
    if not graph.complete:
        raise GraphNotComplete("transversal search requires the full coset graph")
    n = graph.vertex_count
    labels = _label_order(sys, order_seed)

    p: list[Word | None] = [None] * n
    p[graph.base] = EMPTY

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

    kernel_closure(graph.base)

    uncovered = [v for v in range(n) if p[v] is None]
    if not uncovered:
        return ThetaTree(tuple(p), order_seed)

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
    while squeue and len(visited) < _STATE_BUDGET:
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
    uncovered = [v for v in range(n) if p[v] is None]
    if uncovered:
        base_images = [img for img in arrivals[graph.base] if img != EMPTY]
        base_set = set(base_images)
        for v in list(uncovered):
            if p[v] is not None:
                continue
            match = next((img for img in arrivals[v] if img in base_set), None)
            if match is None:
                continue
            h = visited[(graph.base, match)]
            q = visited[(v, match)]
            p[v] = multiply(sys, "G", invert(sys, "G", h), q)
            kernel_closure(v)
        uncovered = [v for v in range(n) if p[v] is None]
    if uncovered:
        raise TreeBoundExceeded(
            f"no image-trivial transversal for vertices {uncovered} "
            f"(word_bound={word_bound}, extension_bound={extension_bound})"
        )
    return ThetaTree(tuple(p), order_seed)


def higgins_decompose(sys: FactorSystem, graph: CoreGraph, tree: ThetaTree) -> HigginsDecomposition:
    """Schreier generators of every factor, grouped by factor, plus the
    component representatives (inverse transversals of component roots)."""
    p = tree.transversal
    per_factor = []
    edges = graph_edges(sys, graph)
    for lam in range(sys.num_factors):
        gens = []
        seen = set()
        for u, l2, g, v in edges:
            if l2 != lam:
                continue
            w = multiply(sys, "G", multiply(sys, "G", p[u], ((lam, g),)), invert(sys, "G", p[v]))
            if w and w not in seen:
                seen.add(w)
                gens.append(w)
        gens.sort(key=lambda w: (len(w), w))

        betas = []
        roots = []
        for comp in lambda_components(sys, graph, lam):
            beta = invert(sys, "G", p[comp.root])
            assert theta_word(sys, beta) == EMPTY
            betas.append(beta)
            roots.append(comp.root)

        for w in gens:
            img = theta_word(sys, w)
            assert all(l2 == lam for l2, _ in img)

        per_factor.append(
            FactorDecomposition(lam=lam, gens=tuple(gens), betas=tuple(betas), roots=tuple(roots))
        )
    return HigginsDecomposition(factors=tuple(per_factor))
