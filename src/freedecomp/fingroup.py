"""Finite groups given by explicit multiplication tables.

Elements are indices 0..order-1 and index 0 is always the identity;
tables whose identity sits elsewhere are re-indexed on validation.
Every group axiom is checked exhaustively once, so downstream code can
trust the tables without rechecking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence


class GroupTableError(ValueError):
    """A multiplication table failed validation."""


class MalformedTable(GroupTableError):
    pass


class NoIdentity(GroupTableError):
    pass


class NotInvertible(GroupTableError):
    pass


class NotAssociative(GroupTableError):
    pass


class NotAHomomorphism(ValueError):
    pass


class NotSurjective(ValueError):
    pass


class NoPreimage(LookupError):
    """The requested target element has no preimage; only reachable on
    homomorphisms that bypassed validation."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an order x order multiplication table.

    ``mul[x][y]`` is the product xy, ``inv[x]`` the inverse of x,
    and 0 the identity.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    name: str = "G"

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _reindexed(table: list[list[int]], e: int) -> list[list[int]]:
    # Swap indices 0 and e so the identity lands at 0.
    n = len(table)
    sigma = list(range(n))
    sigma[0], sigma[e] = e, 0
    return [[sigma[table[sigma[i]][sigma[j]]] for j in range(n)] for i in range(n)]


def validate_group(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate a multiplication table and return the finished group.

    Raises MalformedTable, NoIdentity, NotInvertible or NotAssociative.
    """
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
        rows = _reindexed(rows, identity)

    full = set(range(n))
    for x in range(n):
        if set(rows[x]) != full:
            raise NotInvertible(f"row {x} is not a permutation")
        if {rows[y][x] for y in range(n)} != full:
            raise NotInvertible(f"column {x} is not a permutation")

    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[xy][z] != rows[x][rows[y][z]]:
                    raise NotAssociative(f"({x}{y}){z} != {x}({y}{z})")

    inv = [0] * n
    for x in range(n):
        inv[x] = rows[x].index(0)

    return FiniteGroup(
        order=n,
        mul=tuple(tuple(row) for row in rows),
        inv=tuple(inv),
        name=name,
    )


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, written additively mod n."""
    if n < 1:
        raise MalformedTable(f"cyclic order must be positive, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(table, name=f"Z{n}")


def sym(n: int) -> FiniteGroup:
    """Symmetric group on n letters (n <= 5), elements in lexicographic order.

    The product pq applies p first, then q.
    """
    if not 1 <= n <= 5:
        raise MalformedTable(f"sym(n) supports 1 <= n <= 5, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(q[p[k]] for k in range(n))] for q in perms]
        for p in perms
    ]
    return validate_group(table, name=f"S{n}")


@dataclass(frozen=True)
class GroupHom:
    """A surjective homomorphism between finite groups, as a value table."""

    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.map[x]


def validate_hom(source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]) -> GroupHom:
    """Check the homomorphism law, map[0] = 0 and surjectivity."""
    m = list(mapping)
    if len(m) != source.order:
        raise NotAHomomorphism(f"map has length {len(m)}, expected {source.order}")
    for b in m:
        if not isinstance(b, int) or isinstance(b, bool) or not 0 <= b < target.order:
            raise NotAHomomorphism(f"image {b!r} out of range 0..{target.order - 1}")
    if m[0] != 0:
        raise NotAHomomorphism("identity must map to identity")
    for x in range(source.order):
        for y in range(source.order):
            if m[source.mul[x][y]] != target.mul[m[x]][m[y]]:
                raise NotAHomomorphism(f"map({x}{y}) != map({x})map({y})")
    if set(m) != set(range(target.order)):
        raise NotSurjective("factor map must be onto its target group")
    return GroupHom(source=source, target=target, map=tuple(m))


def identity_hom(group: FiniteGroup) -> GroupHom:
    return GroupHom(source=group, target=group, map=tuple(range(group.order)))


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    """The map killing everything; valid only for a trivial target."""
    return validate_hom(source, target, [0] * source.order)


def subgroup_closure(group: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
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


def solve_preimage(hom: GroupHom, b: int) -> int:
    """Smallest source index mapping to b."""
    for g in range(hom.source.order):
        if hom.map[g] == b:
            return g
    raise NoPreimage(f"{b} has no preimage under {hom.source.name} -> {hom.target.name}")


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
