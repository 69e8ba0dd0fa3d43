"""Free-product decomposition of a subgroup read off its graph.

From a folded saturated graph this extracts, per factor component, a
vertex-group piece (the component stabilizer conjugated back to the base
vertex by the spanning-tree transversal) and a free basis of Schreier
elements, one per component-tree edge missing from the global tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covgraph import CoreGraph, Edge, LambdaComponent, lambda_components
from .freeprod import EMPTY, FactorSystem, Word, invert, multiply, syllable_word


class DisconnectedUnion(RuntimeError):
    """The union of component trees failed to span the graph (internal bug)."""


@dataclass(frozen=True)
class SpanningData:
    """The lam-components with their spanning trees, a global tree inside
    the union of those trees, and the transversal words read along the
    global tree from the base."""

    components: tuple[LambdaComponent, ...]
    global_tree: tuple[Edge, ...]
    transversal: tuple[Word, ...]


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


def _canonical_edge(sys: FactorSystem, edge: Edge) -> Edge:
    u, lam, g, v = edge
    if u > v:
        return (v, lam, sys.factors_g[lam].inv[g], u)
    return edge


def spanning_data(sys: FactorSystem, graph: CoreGraph) -> SpanningData:
    comps = [comp for lam in range(sys.num_factors) for comp in lambda_components(sys, graph, lam)]

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


def kurosh_decompose(sys: FactorSystem, graph: CoreGraph) -> KuroshDecomposition:
    """Vertex-group pieces and a free basis for the subgroup of the graph.

    A component with root N and stabilizer S yields the piece
    p_N S p_N^-1 = H cap G_lam^x at the representative x = p_N^-1, where
    p_N is the transversal word and conjugation reads K^x = x^-1 K x;
    components with trivial stabilizer are omitted.  The free basis
    collects the Schreier words of component-tree edges outside the
    global tree.
    """
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
    basis = []
    for comp in data.components:
        for edge in comp.tree:
            if _canonical_edge(sys, edge) in tau:
                continue
            u, lam, g, v = edge
            w = multiply(sys, "G", multiply(sys, "G", p[u], ((lam, g),)), invert(sys, "G", p[v]))
            basis.append(w)

    return KuroshDecomposition(
        pieces=tuple(pieces),
        free_basis=tuple(basis),
        free_rank=len(basis),
    )

