"""Folded, saturated subgroup graphs over free products of finite groups.

The graph of a subgroup H <= G = G_0 * G_1 * ... has the right cosets of H
as vertices (the reachable core of them, until completed) and one edge
(u, g, v) per nonidentity factor element g with coset(u)g = coset(v).
Two invariants are maintained:

* folded -- the edge action is single-valued, and edges come in inverse
  pairs, so tracing a normal-form word from the base vertex is
  deterministic;
* saturated -- inside each connected component of the factor-lam edges,
  vertices carry coset labels over the component's stabilizer subgroup
  S <= G_lam, equal cosets are merged, and exactly the induced edges
  between present cosets exist.

Construction starts from a wedge of generator cycles at the base vertex
and alternates folding (merging conflict targets through a union-find)
with per-component saturation until nothing changes.  Merging strictly
decreases the vertex count and saturation only adds edges between present
vertices, so the loop terminates.  Completion then grows the graph
Todd-Coxeter style until the action is total, which at finite index yields
the full coset graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .fingroup import FiniteGroup, subgroup_closure
from .freeprod import FactorSystem, Word


class IndexBoundExceeded(RuntimeError):
    """Completion needed more cosets than allowed; the subgroup index is
    larger than the bound (possibly infinite)."""

    def __init__(self, max_cosets: int):
        super().__init__(f"coset bound {max_cosets} exceeded")
        self.max_cosets = max_cosets


class GraphNotComplete(RuntimeError):
    """Operation requires the full (finite-index) coset graph."""


@dataclass(frozen=True)
class CoreGraph:
    """Immutable folded, saturated subgroup graph.

    ``action[v]`` maps ``(lam, g)`` to the target vertex; both directions of
    every edge are stored, so ``action[v][(lam, g)] == w`` implies
    ``action[w][(lam, g^-1)] == v``.  The base vertex is 0.
    """

    vertex_count: int
    action: tuple[dict, ...]
    subgroup_gens: tuple[Word, ...]
    complete: bool
    base: int = 0


def _canonical_loop_label(group: FiniteGroup, g: int) -> int:
    return min(g, group.inv[g])


def graph_edges(sys: FactorSystem, graph: CoreGraph):
    """Canonical undirected edges (u, lam, g, v), u <= v, deterministic order."""
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
                key = (u, lam, _canonical_loop_label(groups[lam], g), u)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


@dataclass(frozen=True)
class LambdaComponent:
    """One connected component of the factor-lam edges.

    ``coset_label[v]`` is the element a_v of G_lam with S a_root * a_v the
    coset of v over the stabilizer S of the root (a_root = identity).
    """

    lam: int
    vertices: tuple[int, ...]
    root: int
    coset_label: dict
    stabilizer: frozenset[int]


class _Builder:
    """Mutable graph under construction: union-find plus adjacency dicts."""

    def __init__(self, sys: FactorSystem):
        self.sys = sys
        self.groups = sys.factors_g
        self.parent: list[int] = []
        self.adj: list[dict] = []
        self.pending: deque = deque()
        self.dirty: set = set()
        self.live = 0
        self.new_vertex()  # base

    def new_vertex(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.adj.append({})
        self.live += 1
        return v

    def find(self, v: int) -> int:
        p = self.parent
        root = v
        while p[root] != root:
            root = p[root]
        while p[v] != root:
            p[v], v = root, p[v]
        return root

    def _set(self, u: int, key: tuple[int, int], v: int) -> bool:
        w = self.adj[u].get(key)
        if w is None:
            self.adj[u][key] = v
            return True
        w = self.find(w)
        self.adj[u][key] = min(v, w)
        if w != v:
            self.pending.append((v, w))
            return True
        return False

    def add_edge(self, u: int, lam: int, g: int, v: int) -> bool:
        u, v = self.find(u), self.find(v)
        ginv = self.groups[lam].inv[g]
        changed = self._set(u, (lam, g), v)
        changed |= self._set(v, (lam, ginv), u)
        if changed:
            self.dirty.add((lam, u))
            self.dirty.add((lam, v))
        return changed

    def _process_pending(self) -> None:
        while self.pending:
            a, b = self.pending.popleft()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            keep, drop = (a, b) if a < b else (b, a)  # smallest id wins
            self.parent[drop] = keep
            self.live -= 1
            absorbed = self.adj[drop]
            self.adj[drop] = {}
            for (lam, g), w in sorted(absorbed.items()):
                self.add_edge(keep, lam, g, self.find(w))
            for lam in range(len(self.groups)):
                self.dirty.add((lam, keep))

    def _saturate(self, lam: int, root: int) -> None:
        group = self.groups[lam]
        mul, inv = group.mul, group.inv
        # collect the component and BFS coset labels
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
        # harvest stabilizer generators from every lam-edge
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
        # merge vertices whose cosets coincide
        buckets: dict = {}
        for u in comp:
            key = min(mul[s][label[u]] for s in stab)
            buckets.setdefault(key, []).append(u)
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
            return  # refold first; the component stays dirty
        # add all induced edges between the (now distinct) cosets
        stab_sorted = sorted(stab)
        for u in comp:
            lu_inv = inv[label[u]]
            for v in comp:
                lv = label[v]
                for s in stab_sorted:
                    g = mul[mul[lu_inv][s]][lv]
                    if g:
                        self.add_edge(u, lam, g, v)
        if self.pending:
            return
        for u in comp:
            self.dirty.discard((lam, u))

    def stabilize(self) -> None:
        while True:
            self._process_pending()
            if not self.dirty:
                return
            lam, v = min(self.dirty)
            if self.find(v) != v:
                self.dirty.discard((lam, v))
                continue
            self._saturate(lam, v)

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

    def seed_from_graph(self, graph: CoreGraph) -> None:
        for _ in range(graph.vertex_count - 1):
            self.new_vertex()
        for u, lam, g, v in graph_edges(self.sys, graph):
            self.add_edge(u, lam, g, v)

    def to_graph(self, gens: tuple[Word, ...]) -> CoreGraph:
        self.stabilize()
        alive = sorted(v for v in range(len(self.parent)) if self.find(v) == v)
        relabel = {v: i for i, v in enumerate(alive)}
        action = []
        for v in alive:
            entries = {}
            for (lam, g), w in sorted(self.adj[v].items()):
                entries[(lam, g)] = relabel[self.find(w)]
            action.append(entries)
        total = sum(g.order - 1 for g in self.groups)
        complete = all(len(a) == total for a in action)
        return CoreGraph(
            vertex_count=len(alive),
            action=tuple(action),
            subgroup_gens=gens,
            complete=complete,
        )


def build_core(sys: FactorSystem, gens) -> CoreGraph:
    """Folded saturated core of the subgroup generated by ``gens``."""
    gens = tuple(gens)
    builder = _Builder(sys)
    for w in gens:
        builder.add_generator_cycle(w)
    return builder.to_graph(gens)


def complete_graph(sys: FactorSystem, core: CoreGraph, max_cosets: int) -> CoreGraph:
    """Extend a core to the full coset graph, or raise IndexBoundExceeded.

    Enumeration may transiently hold a few more vertices than the final
    index before coincidences fold them away, so the hard cap during the
    search is looser than ``max_cosets``; the bound itself is enforced on
    the finished graph.
    """
    builder = _Builder(sys)
    builder.seed_from_graph(core)
    builder.stabilize()
    hard_cap = 2 * max_cosets + 8
    slots = [(lam, g) for lam in range(sys.num_factors) for g in range(1, sys.factors_g[lam].order)]
    v = 0
    while v < len(builder.parent):
        if builder.find(v) != v:
            v += 1
            continue
        missing = next((s for s in slots if s not in builder.adj[v]), None)
        if missing is None:
            v += 1
            continue
        if builder.live >= hard_cap:
            raise IndexBoundExceeded(max_cosets)
        lam, g = missing
        w = builder.new_vertex()
        builder.add_edge(v, lam, g, w)
        builder.stabilize()
    graph = builder.to_graph(core.subgroup_gens)
    assert graph.complete
    if graph.vertex_count > max_cosets:
        raise IndexBoundExceeded(max_cosets)
    return graph


def trace(graph: CoreGraph, w: Word, start: int = 0) -> int | None:
    """Follow a word through the action; None when a step is undefined."""
    v = start
    for syl in w:
        nxt = graph.action[v].get(syl)
        if nxt is None:
            return None
        v = nxt
    return v


def membership(sys: FactorSystem, graph: CoreGraph, w: Word) -> bool:
    """Whether the word lies in the subgroup the graph represents.

    Exact on complete graphs (the full coset table); on cores this decides
    membership in the subgroup generated by ``subgroup_gens``.
    """
    return trace(graph, w, graph.base) == graph.base


def lambda_components(sys: FactorSystem, graph: CoreGraph, lam: int) -> list[LambdaComponent]:
    """Partition of all vertices into lam-edge components.

    Vertices without lam-edges become singleton components with trivial
    stabilizer.  The component containing the base vertex comes first,
    the rest follow by smallest vertex id.
    """
    group = sys.factors_g[lam]
    mul = group.mul
    seen = set()
    comps = []
    order_keys = []
    for start in range(graph.vertex_count):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        qi = 0
        while qi < len(comp):
            u = comp[qi]
            qi += 1
            for g in range(1, group.order):
                v = graph.action[u].get((lam, g))
                if v is not None and v not in seen:
                    seen.add(v)
                    comp.append(v)
        root = graph.base if graph.base in comp else min(comp)
        label = {root: 0}
        bfs = [root]
        qi = 0
        while qi < len(bfs):
            u = bfs[qi]
            qi += 1
            for g in range(1, group.order):
                v = graph.action[u].get((lam, g))
                if v is not None and v not in label:
                    label[v] = mul[label[u]][g]
                    bfs.append(v)
        stab = frozenset({0} | {g for g in range(1, group.order) if graph.action[root].get((lam, g)) == root})
        comps.append(
            LambdaComponent(
                lam=lam,
                vertices=tuple(sorted(comp)),
                root=root,
                coset_label=label,
                stabilizer=stab,
            )
        )
        order_keys.append((0 if graph.base in comp else 1, min(comp)))
    return [c for _, c in sorted(zip(order_keys, comps), key=lambda t: t[0])]


def _bfs_order(graph: CoreGraph) -> list[int]:
    order = [graph.base]
    seen = {graph.base}
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for key in sorted(graph.action[u]):
            v = graph.action[u][key]
            if v not in seen:
                seen.add(v)
                order.append(v)
    if len(order) != graph.vertex_count:
        raise AssertionError("graph has unreachable vertices")
    return order


def canonicalize(graph: CoreGraph) -> CoreGraph:
    """Relabel vertices in BFS discovery order (edges by (lam, elem)).

    Isomorphic based labeled graphs canonicalize to equal objects.
    """
    order = _bfs_order(graph)
    relabel = {old: new for new, old in enumerate(order)}
    action = []
    for old in order:
        entries = {}
        for key in sorted(graph.action[old]):
            entries[key] = relabel[graph.action[old][key]]
        action.append(entries)
    return CoreGraph(
        vertex_count=graph.vertex_count,
        action=tuple(action),
        subgroup_gens=graph.subgroup_gens,
        complete=graph.complete,
    )


def canonical_encoding(graph: CoreGraph) -> bytes:
    """Deterministic byte encoding; equal iff the based labeled graphs are
    isomorphic."""
    canon = canonicalize(graph)
    parts = [str(canon.vertex_count)]
    for v in range(canon.vertex_count):
        cell = ",".join(f"{lam}.{g}>{w}" for (lam, g), w in sorted(canon.action[v].items()))
        parts.append(cell)
    return ("|".join(parts)).encode("ascii")


def to_dot(graph: CoreGraph) -> str:
    """DOT rendering: one arrow per action entry, base double-circled."""
    lines = ["digraph coregraph {", "  rankdir=LR;"]
    for v in range(graph.vertex_count):
        shape = "doublecircle" if v == graph.base else "circle"
        lines.append(f'  v{v} [shape={shape}];')
    for v in range(graph.vertex_count):
        for (lam, g), w in sorted(graph.action[v].items()):
            lines.append(f'  v{v} -> v{w} [label="{lam}:{g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
