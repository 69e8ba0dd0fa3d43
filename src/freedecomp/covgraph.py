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

Construction closes each generator into a loop at the base vertex, reusing
the edges earlier loops already define: the word is scanned from both ends
and new vertices fill only the gap, as in coset enumeration (Sims,
*Computation with Finitely Presented Groups*, 1994, ch. 5).  The result is
a quotient of the wedge of generator cycles by merges folding would make
anyway.  Construction then alternates folding (merging conflict targets
through a union-find) with per-component saturation until nothing
changes; saturation writes the induced edges straight into the table.
Merging strictly decreases the vertex count and saturation only adds
edges between present vertices, so the loop terminates.  Completion
(``complete_graph``) then grows the graph Todd-Coxeter style until the
action is total, which at finite index yields the full coset graph; a
core that is already complete is returned as it is.  No command completes
a graph: completion, with its coset bound, serves only the benchmark
harness and the tests, which compare indices with sympy's.

Every graph leaves the builder once, read out by the one breadth-first
walk that also serves ``canonicalize``: from the base, taking each
vertex's entries in (lam, g) order and numbering vertices as they are
discovered.  So ``build_core`` and ``complete_graph`` return graphs equal
to their own ``canonicalize``, which remains for graphs built by hand and
for ``canonical_encoding``.

A finished graph's lam-components are read by one breadth-first walk per
factor, ``lambda_forest``, into flat per-vertex arrays (component index,
coset label, and the spanning-tree edge that reached the vertex) and each
component's root and root stabilizer, with no object per component.
``higgins_decompose``, ``kurosh_decompose`` and the verifier's checks C3,
C4 and C7 read those arrays; ``lambda_components`` groups them into one
``LambdaComponent`` per component.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .fingroup import subgroup_closure
from .freeprod import FactorSystem, Word

Edge = tuple[int, int, int, int]  # (u, lam, g, v), read u --g--> v


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
    ``action[w][(lam, g^-1)] == v``.  The base vertex is 0.  Every row lists
    its entries in (lam, g) order, as ``_read_out`` writes them; readers
    such as ``kurosh_decompose``, ``canonical_encoding`` and ``to_dot``
    rely on that order instead of sorting.
    """

    vertex_count: int
    action: tuple[dict, ...]
    complete: bool


@functools.cache
def _slots(lam: int, order: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """The (g, (lam, g)) pairs of the nonidentity elements g of an order-n
    factor lam, built once and shared by every walk over its edge slots."""
    return tuple((g, (lam, g)) for g in range(1, order))


@dataclass(frozen=True)
class LambdaComponent:
    """One connected component of the factor-lam edges.

    ``coset_label[v]`` is the element a_v of G_lam with S a_root * a_v the
    coset of v over the stabilizer S of the root (a_root = identity).
    ``tree`` holds the breadth-first spanning-tree edges (u, lam, g, v),
    read u --g--> v, so a_v = a_u g.
    """

    lam: int
    vertices: tuple[int, ...]
    root: int
    coset_label: dict
    stabilizer: frozenset[int]
    tree: tuple[Edge, ...]


@dataclass(frozen=True)
class LambdaForest:
    """The lam-components of a graph as flat per-vertex arrays.

    ``order`` lists every vertex, component by component and each
    component in breadth-first order from its root.  For a vertex v,
    ``component[v]`` indexes ``roots`` and ``stabilizers``, ``label[v]`` is
    the coset label a_v (S a_root * a_v is v's coset over the root's
    stabilizer S, a_root = identity), and the spanning-tree edge
    (parent[v], lam, via[v], v) reached v, so a_v = a_parent * via[v]; at
    a root ``via`` is 0 and ``parent`` the root itself.
    ``stabilizers[c]`` is the root stabilizer of component c, sorted, the
    identity first.
    """

    order: list[int]
    component: list[int]
    label: list[int]
    parent: list[int]
    via: list[int]
    roots: list[int]
    stabilizers: list[tuple[int, ...]]


class _Builder:
    """Mutable graph under construction: union-find plus adjacency dicts.

    Saturation jobs are the ``(lam, v)`` pairs in ``dirty`` and run smallest
    first.  ``heap`` holds every key of ``dirty`` (plus stale entries that
    ``stabilize`` skips), so picking the next job costs a logarithm rather
    than a scan of ``dirty``.
    """

    def __init__(self, sys: FactorSystem):
        self.groups = sys.factors_g
        self.parent: list[int] = []
        self.adj: list[dict] = []
        self.pending: deque = deque()
        self.dirty: set = set()
        self.heap: list = []
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
            dirty = self.dirty
            job = (lam, u)
            if job not in dirty:
                dirty.add(job)
                heappush(self.heap, job)
            job = (lam, v)
            if job not in dirty:
                dirty.add(job)
                heappush(self.heap, job)
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
                job = (lam, keep)
                if job not in self.dirty:
                    self.dirty.add(job)
                    heappush(self.heap, job)

    def _saturate(self, lam: int, root: int) -> None:
        group = self.groups[lam]
        mul, inv = group.mul, group.inv
        adj, parent, find, slots = self.adj, self.parent, self.find, _slots(lam, group.order)
        # one BFS over the lam-edges labels the component with cosets and
        # reads a stabilizer generator off every edge that closes a cycle
        label = {root: 0}
        comp = [root]
        sgens = set()
        qi = 0
        while qi < len(comp):
            u = comp[qi]
            qi += 1
            adj_u, row = adj[u], mul[label[u]]
            for g, key in slots:
                w = adj_u.get(key)
                if w is None:
                    continue
                if parent[w] != w:
                    w = adj_u[key] = find(w)
                lw = label.get(w)
                if lw is None:
                    label[w] = row[g]
                    comp.append(w)
                else:
                    s = mul[row[g]][inv[lw]]
                    if s:
                        sgens.add(s)
        if sgens:
            stab = subgroup_closure(group, sgens)
            # coset[x] = min(S x); scanning x upwards, the first x of a coset is its min
            coset = [-1] * group.order
            for x in range(group.order):
                if coset[x] < 0:
                    for s in stab:
                        coset[mul[s][x]] = x
        else:
            coset = range(group.order)  # trivial stabilizer: each element is its own coset
        at = {coset[label[u]]: u for u in comp}
        if len(at) < len(comp):
            # merge vertices whose cosets coincide, buckets in coset order
            buckets: dict = {}
            for u in comp:
                buckets.setdefault(coset[label[u]], []).append(u)
            for key in sorted(buckets):
                group_vs = buckets[key]
                if len(group_vs) > 1:
                    first = min(group_vs)
                    for other in group_vs:
                        if other != first:
                            self.pending.append((first, other))
            return  # refold first; the component stays dirty
        # write every empty slot whose target coset is present: the cosets are
        # distinct and present edges agree with the labels, so a set reverse
        # slot points back at u, and an empty one is written at the other end
        dirty = self.dirty
        for u in comp:
            adj_u, row = adj[u], mul[label[u]]
            for g, key in slots:
                if key not in adj_u:
                    v = at.get(coset[row[g]])
                    if v is not None:
                        adj_u[key] = v
            dirty.discard((lam, u))

    def stabilize(self) -> None:
        dirty, heap = self.dirty, self.heap
        while True:
            self._process_pending()
            if not dirty:
                return
            while heap[0] not in dirty:
                heappop(heap)
            # the top stays on the heap: _saturate may leave it dirty
            lam, v = heap[0]
            if self.find(v) != v:
                dirty.discard((lam, v))
                continue
            self._saturate(lam, v)

    def add_generator_cycle(self, word: Word) -> None:
        """Close ``word`` into a loop at the base, scanning from both ends.

        The word is read forward from the base along existing edges as far
        as they go, and the rest backward from the base (by inverse
        syllables) the same way; vertices are created only for the gap
        between the two ends, and one edge closes the gap.  With no gap the
        two ends are the same coset and their merge is queued.

        Each followed edge lies on the cycle of an earlier generator, so
        following it instead of creating a vertex only anticipates a fold
        of the wedge of generator cycles (two equally labelled edges at one
        vertex).  The graph is thus a quotient of that wedge by merges that
        folding derives anyway, and folding and saturating it gives the
        same graph as the wedge, up to vertex numbering.
        """
        adj, parent, find, groups = self.adj, self.parent, self.find, self.groups
        base = find(0)
        n = len(word)
        f, i = base, 0
        while i < n:
            w = adj[f].get(word[i])
            if w is None:
                break
            f, i = w if parent[w] == w else find(w), i + 1
        b, j = base, n
        while j > i:
            lam, g = word[j - 1]
            w = adj[b].get((lam, groups[lam].inv[g]))
            if w is None:
                break
            b, j = w if parent[w] == w else find(w), j - 1
        if j == i:
            if f != b:
                self.pending.append((f, b))
            return
        for lam, g in word[i : j - 1]:
            w = self.new_vertex()
            self.add_edge(f, lam, g, w)
            f = w
        lam, g = word[j - 1]
        self.add_edge(f, lam, g, b)

    def to_graph(self) -> CoreGraph:
        """Stabilize and read the graph out in canonical form, by the same
        ``_read_out`` as ``canonicalize``, so the result equals its own
        canonical form."""
        self.stabilize()
        action = _read_out(self.adj, self.find(0), self.find, self.live)
        total = sum(g.order - 1 for g in self.groups)
        return CoreGraph(
            vertex_count=len(action),
            action=action,
            complete=all(len(a) == total for a in action),
        )


def build_core(sys: FactorSystem, gens) -> CoreGraph:
    """Folded saturated core of the subgroup generated by ``gens``."""
    builder = _Builder(sys)
    for w in gens:
        builder.add_generator_cycle(w)
    return builder.to_graph()


def complete_graph(sys: FactorSystem, core: CoreGraph, max_cosets: int) -> CoreGraph:
    """Extend a core to the full coset graph, or raise IndexBoundExceeded.

    Enumeration may transiently hold a few more vertices than the final
    index before coincidences fold them away, so the hard cap during the
    search is looser than ``max_cosets``; the bound itself is enforced on
    the finished graph.  A core that is already complete is returned as it
    is.
    """
    if core.complete:
        if core.vertex_count > max_cosets:
            raise IndexBoundExceeded(max_cosets)
        return core
    # a CoreGraph is folded and saturated, so its copy has no saturation job
    builder = _Builder(sys)
    builder.parent = list(range(core.vertex_count))
    builder.adj = [dict(a) for a in core.action]
    builder.live = core.vertex_count
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
    graph = builder.to_graph()
    if not graph.complete:
        raise GraphNotComplete("completion left a vertex with an undefined action")
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

    Exact on complete graphs (the full coset table) and on cores alike: a
    core decides membership in the subgroup whose generators built it.
    """
    return trace(graph, w) == 0


def lambda_forest(sys: FactorSystem, graph: CoreGraph, lam: int) -> LambdaForest:
    """The lam-components of all vertices, walked once into flat arrays.

    Components come by root, the smallest vertex of each, so the one of the
    base vertex 0 is first; each is walked breadth-first from its root,
    taking the edges of a vertex in increasing g.  Vertices without
    lam-edges become singleton components with trivial stabilizer.
    """
    group = sys.factors_g[lam]
    mul = group.mul
    slots = _slots(lam, group.order)
    action = graph.action
    n = graph.vertex_count
    component = [-1] * n
    label = [0] * n
    parent = list(range(n))
    via = [0] * n
    order: list[int] = []
    roots: list[int] = []
    stabilizers: list[tuple[int, ...]] = []
    for root in range(n):
        if component[root] >= 0:
            continue
        c = len(roots)
        roots.append(root)
        component[root] = c
        qi = len(order)
        order.append(root)
        stab: tuple[int, ...] = (0,)
        while qi < len(order):
            u = order[qi]
            qi += 1
            act_u, row = action[u], mul[label[u]]
            for g, key in slots:
                v = act_u.get(key)
                if v is None:
                    continue
                if component[v] < 0:
                    component[v] = c
                    label[v] = row[g]
                    parent[v] = u
                    via[v] = g
                    order.append(v)
                elif v == u == root:
                    stab += (g,)
        stabilizers.append(stab)
    return LambdaForest(
        order=order,
        component=component,
        label=label,
        parent=parent,
        via=via,
        roots=roots,
        stabilizers=stabilizers,
    )


def lambda_components(sys: FactorSystem, graph: CoreGraph, lam: int) -> list[LambdaComponent]:
    """The components of ``lambda_forest``, one object each, by root."""
    forest = lambda_forest(sys, graph, lam)
    walks: list[list[int]] = []
    for v in forest.order:
        if forest.via[v]:
            walks[-1].append(v)
        else:
            walks.append([v])
    return [
        LambdaComponent(
            lam=lam,
            vertices=tuple(sorted(walk)),
            root=walk[0],
            coset_label={v: forest.label[v] for v in walk},
            stabilizer=frozenset(stab),
            tree=tuple((forest.parent[v], lam, forest.via[v], v) for v in walk[1:]),
        )
        for walk, stab in zip(walks, forest.stabilizers)
    ]


def _read_out(adj, base: int, find, vertex_count: int) -> tuple[dict, ...]:
    """Renumber the action rows ``adj`` in breadth-first discovery order.

    The walk starts at ``base``, takes each vertex's entries in (lam, g)
    order and maps every target through ``find`` first; the base becomes
    vertex 0.  Raises AssertionError unless it reaches ``vertex_count``
    vertices.
    """
    order = [base]
    number = {base: 0}
    action = []
    for v in order:  # grows while the walk discovers vertices
        entries = {}
        row = adj[v]
        for key in sorted(row):
            w = row[key]
            i = number.get(w)  # numbered vertices are roots: no find for them
            if i is None:
                w = find(w)
                i = number.get(w)
                if i is None:
                    i = number[w] = len(order)
                    order.append(w)
            entries[key] = i
        action.append(entries)
    if len(order) != vertex_count:
        raise AssertionError("graph has unreachable vertices")
    return tuple(action)


def canonicalize(graph: CoreGraph) -> CoreGraph:
    """Relabel vertices in BFS discovery order (edges by (lam, elem)).

    Isomorphic based labeled graphs canonicalize to equal objects.
    """
    return CoreGraph(
        vertex_count=graph.vertex_count,
        action=_read_out(graph.action, 0, lambda w: w, graph.vertex_count),
        complete=graph.complete,
    )


def canonical_encoding(graph: CoreGraph) -> bytes:
    """Deterministic byte encoding; equal iff the based labeled graphs are
    isomorphic."""
    canon = canonicalize(graph)
    parts = [str(canon.vertex_count)]
    for v in range(canon.vertex_count):
        cell = ",".join(f"{lam}.{g}>{w}" for (lam, g), w in canon.action[v].items())
        parts.append(cell)
    return ("|".join(parts)).encode("ascii")


def to_dot(graph: CoreGraph) -> str:
    """DOT rendering: one arrow per action entry, base double-circled."""
    lines = ["digraph coregraph {", "  rankdir=LR;"]
    for v in range(graph.vertex_count):
        shape = "doublecircle" if v == 0 else "circle"
        lines.append(f'  v{v} [shape={shape}];')
    for v in range(graph.vertex_count):
        for (lam, g), w in graph.action[v].items():
            lines.append(f'  v{v} -> v{w} [label="{lam}:{g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
