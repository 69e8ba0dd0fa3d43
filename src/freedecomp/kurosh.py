"""Free-product decomposition of a subgroup read off its graph.

Each factor's lam-components are walked once (``lambda_forest``), which
gives every component its root, root stabilizer and breadth-first
spanning tree.  One breadth-first walk from the base over the union of
those trees, taking a vertex's edges in (lam, g) order, gives a global
spanning tree and the transversal word p_v of every vertex, and marks the
component-tree edges it uses.  Per factor component this extracts a
vertex-group piece (the component stabilizer conjugated back to the base
vertex by the transversal) and a free basis of Schreier elements, one per
component-tree edge the global tree does not use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covgraph import CoreGraph, lambda_forest
from .freeprod import EMPTY, FactorSystem, Word, invert, multiply


class DisconnectedUnion(RuntimeError):
    """The union of component trees failed to span the graph (internal bug)."""


@dataclass(frozen=True)
class KuroshPiece:
    lam: int
    rep: Word
    stabilizer: tuple[int, ...]
    vertex_group_gens: tuple[Word, ...]


@dataclass(frozen=True)
class KuroshDecomposition:
    pieces: tuple[KuroshPiece, ...]
    free_basis: tuple[Word, ...]
    free_rank: int


def kurosh_decompose(sys: FactorSystem, graph: CoreGraph) -> KuroshDecomposition:
    """Vertex-group pieces and a free basis for the subgroup of the graph.

    A component with root N and stabilizer S yields the piece
    p_N S p_N^-1 = H cap G_lam^x at the representative x = p_N^-1, where
    p_N is the transversal word and conjugation reads K^x = x^-1 K x;
    components with trivial stabilizer are omitted.  The free basis
    collects the Schreier words p_u g p_v^-1 of the component-tree edges
    (u, lam, g, v) outside the global tree.
    """
    groups = sys.factors_g
    k, n = sys.num_factors, graph.vertex_count
    forests = [lambda_forest(sys, graph, lam) for lam in range(k)]
    parents = [f.parent for f in forests]
    vias = [f.via for f in forests]

    # global tree: breadth-first from the base over the component-tree
    # edges; in_tree[lam][v] marks the lam-tree edge that reached v
    p: list[Word | None] = [None] * n
    p[0] = EMPTY
    in_tree = [[False] * n for _ in range(k)]
    queue = [0]
    for u in queue:  # grows while the walk discovers vertices
        p_u = p[u]
        for (lam, g), v in sorted(graph.action[u].items()):
            if p[v] is not None:
                continue
            if parents[lam][v] == u and vias[lam][v] == g:
                in_tree[lam][v] = True
            elif parents[lam][u] == v and vias[lam][u] == groups[lam].inv[g]:
                in_tree[lam][u] = True
            else:
                continue
            p[v] = multiply(sys, "G", p_u, ((lam, g),))
            queue.append(v)
    if len(queue) != n:
        raise DisconnectedUnion("component-tree union does not span the graph")

    pieces = []
    for lam, forest in enumerate(forests):
        for root, stab in zip(forest.roots, forest.stabilizers):
            if len(stab) == 1:
                continue
            p_root = p[root]
            p_inv = invert(sys, "G", p_root)
            vg = tuple(multiply(sys, "G", multiply(sys, "G", p_root, ((lam, s),)), p_inv) for s in stab[1:])
            pieces.append(KuroshPiece(lam=lam, rep=p_inv, stabilizer=stab, vertex_group_gens=vg))

    basis = []
    for lam, forest in enumerate(forests):
        parent, via, used = forest.parent, forest.via, in_tree[lam]
        for v in forest.order:
            g = via[v]
            if g and not used[v]:
                w = multiply(sys, "G", p[parent[v]], ((lam, g),))
                basis.append(multiply(sys, "G", w, invert(sys, "G", p[v])))

    return KuroshDecomposition(
        pieces=tuple(pieces),
        free_basis=tuple(basis),
        free_rank=len(basis),
    )
