"""Finite groups given by explicit multiplication tables.

Elements are indices 0..order-1 and index 0 is always the identity;
tables whose identity sits elsewhere are re-indexed on validation.
Every group axiom is decided once, so downstream code can trust the tables
without rechecking.  Associativity and the homomorphism law are checked on
a generating set only (``_generators``): the elements a for which
(xa)y = x(ay), or map(xa) = map(x)map(a), holds for every x and y are
closed under products, so a law that holds on generators holds everywhere.

``validate_group`` decides each axiom in whole-row passes that run in C
(``set``, ``zip``, ``operator.itemgetter``, tuple comparison) and walks a
row entry by entry only to name what failed, so an order-n table costs
O(n^2) C-level steps plus O(n log n) Python ones.  Columns are checked
only when a row or Light's test fails: a table with a two-sided identity,
permutation rows and associativity is a monoid in which every element has
a right inverse, hence a group, so its columns are permutations.
"""

from __future__ import annotations

import functools
import itertools
import operator
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


def _reindexed(rows: list[tuple[int, ...]], e: int) -> list[tuple[int, ...]]:
    # Swap indices 0 and e so the identity lands at 0: row i of the result
    # is sigma . rows[sigma(i)] . sigma, one itemgetter pass each way.
    sigma = list(range(len(rows)))
    sigma[0], sigma[e] = e, 0
    columns = operator.itemgetter(*sigma)
    return [operator.itemgetter(*columns(rows[s]))(sigma) for s in sigma]


def _generators(rows: Sequence[Sequence[int]]) -> list[int]:
    """Elements, in index order, that each lie outside the closure of {0}
    under right multiplication by the ones before; together they reach
    every element.  Uses only the table, and reaches each element once."""
    n = len(rows)
    reached = [False] * n
    reached[0] = True
    closure = [0]
    gens: list[int] = []
    for g in range(1, n):
        if reached[g]:
            continue
        gens.append(g)
        fresh = []
        for x in closure:
            y = rows[x][g]
            if not reached[y]:
                reached[y] = True
                fresh.append(y)
        for x in fresh:  # fresh grows while it is walked
            row = rows[x]
            for a in gens:
                y = row[a]
                if not reached[y]:
                    reached[y] = True
                    fresh.append(y)
        closure.extend(fresh)
    return gens


def _check_permutations(rows: list[tuple[int, ...]], label: dict) -> None:
    """Raise NotInvertible at the first of row 0, column 0, row 1, ... that
    repeats a symbol, named by ``label``."""
    n = len(rows)
    for x, (row, column) in enumerate(zip(rows, zip(*rows))):
        if len(set(row)) != n:
            raise NotInvertible(f"row {label.get(x, x)} is not a permutation")
        if len(set(column)) != n:
            raise NotInvertible(f"column {label.get(x, x)} is not a permutation")


def validate_group(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate a multiplication table and return the finished group.

    Raises MalformedTable, NoIdentity, NotInvertible or NotAssociative, in
    that order of precedence, and names what failed in the labels of
    ``table``.  Each check is a pass over whole rows:

    - entries: per row, the length, then the set of entry types against
      {int} and the set of symbols 0..n-1 against the row; a row that
      fails is walked to name its first entry that is not a non-bool int
      in range (so rows of other int subclasses pass);
    - identity: the first e whose row and column read 0..n-1;
    - rows: ``len(set(row)) == n`` over every row;
    - associativity: Light's test, (xa)y = x(ay) for all x, y and each a
      of ``_generators``, as one tuple comparison of row (xa) with row x
      read through row a.  It is O(n^2 k) with k <= log2 n for a group
      instead of the O(n^3) triple loop, and exact: if a and b pass,
      (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), so the
      passing elements are closed under products, and every element is a
      product of generators;
    - columns: only when a row or Light's test fails, by
      ``_check_permutations``, so a bad column precedes NotAssociative; a
      table that passes is a group, so its columns are permutations;
    - inverses: the position of 0 in each row.
    """
    n = len(table)
    if n == 0:
        raise MalformedTable("empty table")
    symbols = frozenset(range(n))
    rows = []
    for row in table:
        row = tuple(row)
        if len(row) != n:
            raise MalformedTable(f"table is not square: row of length {len(row)} in an order-{n} table")
        if set(map(type, row)) != {int} or not symbols.issuperset(row):
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                    raise MalformedTable(f"entry {x!r} out of range 0..{n - 1}")
        rows.append(row)

    ident = tuple(range(n))
    identity = next(
        (e for e, row in enumerate(rows) if row == ident and tuple(map(operator.itemgetter(e), rows)) == ident),
        None,
    )
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    if identity != 0:
        rows = _reindexed(rows, identity)
    label = {0: identity, identity: 0}  # errors name the input's own labels

    if any(len(set(row)) != n for row in rows):
        _check_permutations(rows, label)

    for a in _generators(rows):
        row_a = rows[a]
        through_a = operator.itemgetter(*row_a)
        for x, row_x in enumerate(rows):
            row_xa = rows[row_x[a]]
            if row_xa != through_a(row_x):
                _check_permutations(rows, label)  # a bad column comes first
                y = next(y for y in range(n) if row_xa[y] != row_x[row_a[y]])
                x, a, y = (label.get(v, v) for v in (x, a, y))
                raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")

    return FiniteGroup(
        order=n,
        mul=tuple(rows),
        inv=tuple(row.index(0) for row in rows),
        name=name,
    )


CYCLIC_MAX = 2000


@functools.cache
def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n <= ``CYCLIC_MAX``, written additively mod n.

    The bound is checked before the table is built, so a huge n fails at
    once instead of exhausting memory.  Built and validated once per n;
    the group is immutable, so every caller shares it.
    """
    if not 1 <= n <= CYCLIC_MAX:
        raise MalformedTable(f"cyclic(n) supports 1 <= n <= {CYCLIC_MAX}, got {n}")
    return validate_group(_cyclic_table(n), name=f"Z{n}")


def _cyclic_table(n: int) -> list[list[int]]:
    # row i is row 0 rotated left by i: (i + j) mod n without n^2 sums
    r = list(range(n))
    return [r[i:] + r[:i] for i in range(n)]


@functools.cache
def sym(n: int) -> FiniteGroup:
    """Symmetric group on n letters (n <= 5), elements in lexicographic order.

    The product pq applies p first, then q.  Built and validated once per
    n, like ``cyclic``.
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


def validate_hom(source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]) -> GroupHom:
    """Check map[0] = 0, the homomorphism law and surjectivity.

    The law is checked as map(xa) = map(x)map(a) for all x and each a of
    ``_generators(source.mul)``, O(n k) instead of O(n^2).  It is exact
    because the source is associative: if it holds for a and b, then
    map(x(ab)) = map((xa)b) = map(xa)map(b) = map(x)map(a)map(b) =
    map(x)map(ab), and every element is a product of generators.
    """
    m = list(mapping)
    if len(m) != source.order:
        raise NotAHomomorphism(f"map has length {len(m)}, expected {source.order}")
    for b in m:
        if not isinstance(b, int) or isinstance(b, bool) or not 0 <= b < target.order:
            raise NotAHomomorphism(f"image {b!r} out of range 0..{target.order - 1}")
    if m[0] != 0:
        raise NotAHomomorphism("identity must map to identity")
    for a in _generators(source.mul):
        ma = m[a]
        for x, row_x in enumerate(source.mul):
            if m[row_x[a]] != target.mul[m[x]][ma]:
                raise NotAHomomorphism(f"map({x}*{a}) != map({x})*map({a})")
    if set(m) != set(range(target.order)):
        raise NotSurjective("factor map must be onto its target group")
    return GroupHom(source=source, target=target, map=tuple(m))


def identity_hom(group: FiniteGroup) -> GroupHom:
    return GroupHom(source=group, target=group, map=tuple(range(group.order)))


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    """The map killing everything; valid only for a trivial target."""
    return validate_hom(source, target, [0] * source.order)


def subgroup_closure(group: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """The subgroup generated by gens: the closure of {0} under right
    multiplication by the generators, breadth-first.  In a finite group
    the monoid a set generates is the subgroup it generates."""
    gens = sorted(set(gens) - {0})
    for g in gens:
        if not 0 <= g < group.order:
            raise MalformedTable(f"generator {g} out of range")
    mul = group.mul
    closed = {0}
    queue = [0]
    for x in queue:  # grows while the walk reaches new elements
        row = mul[x]
        for g in gens:
            y = row[g]
            if y not in closed:
                closed.add(y)
                queue.append(y)
    return frozenset(closed)


def solve_preimage(hom: GroupHom, b: int) -> int:
    """Smallest source index mapping to b."""
    for g in range(hom.source.order):
        if hom.map[g] == b:
            return g
    raise NoPreimage(f"{b} has no preimage under {hom.source.name} -> {hom.target.name}")

