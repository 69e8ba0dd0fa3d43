"""Shared fixtures: reference systems and a deterministic random corpus."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from freedecomp import (
    FactorSystem,
    IndexBoundExceeded,
    Word,
    build_core,
    canonicalize,
    complete_graph,
    cyclic,
    invert,
    make_system,
    normalize,
    parse_word,
    subgroup_closure,
    sym,
)
from freedecomp.covgraph import CoreGraph

Z2 = cyclic(2)
Z3 = cyclic(3)
Z4 = cyclic(4)
S3 = sym(3)
TRIV = cyclic(1)


# A Latin square with identity 0 (a loop) that is not associative.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def sign_map(n: int) -> list[int]:
    """The sign of each element of ``sym(n)``, as a map onto Z2."""
    perms = sorted(itertools.permutations(range(n)))
    return [sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]) % 2 for p in perms]


def sign_map_s3() -> list[int]:
    return sign_map(3)


def relabel(table, perm) -> list[list[int]]:
    """The table with each element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


@pytest.fixture(scope="session")
def sys_a() -> FactorSystem:
    """G = Z2 * Z2, B = Z2 * 1, first map identity, second trivial."""
    return make_system([Z2, Z2], [Z2, TRIV], [[0, 1], [0, 0]])


@pytest.fixture(scope="session")
def sys_a_gens(sys_a) -> list[Word]:
    return [parse_word(sys_a, "G", "0:1"), parse_word(sys_a, "G", "1:1 0:1 1:1")]


@pytest.fixture(scope="session")
def sys_b() -> FactorSystem:
    """G = Z2 * Z3 with the identity system on the B side."""
    return make_system([Z2, Z3], [Z2, Z3], [[0, 1], [0, 1, 2]])


@pytest.fixture(scope="session")
def sys_b_gens(sys_b) -> list[Word]:
    # kernel of G -> Z3 (a |-> 0, b |-> 1)
    return [parse_word(sys_b, "G", w) for w in ("0:1", "1:1 0:1 1:2", "1:2 0:1 1:1")]


@pytest.fixture(scope="session")
def sys_phase2() -> FactorSystem:
    """Same shape as sys_a; paired with an index-3 subgroup that forces the
    transversal search past single kernel edges."""
    return make_system([Z2, Z2], [Z2, TRIV], [[0, 1], [0, 0]])


@pytest.fixture(scope="session")
def sys_phase2_gens(sys_phase2) -> list[Word]:
    return [parse_word(sys_phase2, "G", "0:1"), parse_word(sys_phase2, "G", "1:1 0:1 1:1 0:1 1:1")]


@dataclass(frozen=True)
class Instance:
    system: FactorSystem
    gens: tuple[Word, ...]
    graph: CoreGraph  # complete, canonical


def _theta_options(g):
    opts = [(g, list(range(g.order))), (TRIV, [0] * g.order)]
    if g.name == "Z4":
        opts.append((Z2, [0, 1, 0, 1]))
    if g.name == "S3":
        opts.append((Z2, sign_map_s3()))
    return opts


def _random_raw_word(rnd: random.Random, factors, maxlen: int):
    length = rnd.randint(1, maxlen)
    syls = []
    prev = -1
    for _ in range(length):
        lam = rnd.choice([i for i in range(len(factors)) if i != prev or len(factors) == 1])
        syls.append((lam, rnd.randint(1, factors[lam].order - 1)))
        prev = lam
    return syls


def make_corpus(seed: int, count: int, max_index: int = 12) -> list[Instance]:
    """Deterministic corpus of systems with finite-index subgroups.

    Factors are drawn from {Z2, Z3, Z4, S3} with at most three factors; the
    factor maps mix identities, collapses and proper quotients.  Systems
    whose subgroup exceeds ``max_index`` are resampled.
    """
    pool = [Z2, Z2, Z2, Z3, Z3, Z4, S3]
    rnd = random.Random(seed)
    out: list[Instance] = []
    while len(out) < count:
        nf = rnd.randint(1, 3)
        factors = [rnd.choice(pool) for _ in range(nf)]
        if sum(g.order - 1 for g in factors) > 10:
            continue
        picks = [rnd.choice(_theta_options(g)) for g in factors]
        system = make_system(factors, [p[0] for p in picks], [p[1] for p in picks])
        k = rnd.randint(1, 3)
        gens = tuple(
            w for w in (normalize(system, "G", _random_raw_word(rnd, factors, 4)) for _ in range(k)) if w
        )
        try:
            graph = complete_graph(system, build_core(system, gens), 5 * max_index)
        except IndexBoundExceeded:
            continue
        if graph.vertex_count > max_index:
            continue
        out.append(Instance(system=system, gens=gens, graph=canonicalize(graph)))
    return out


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    return make_corpus(seed=20250810, count=210)


@pytest.fixture(scope="session")
def small_corpus(corpus) -> list[Instance]:
    return corpus[:40]


@pytest.fixture(scope="session")
def partial_family() -> list:
    return partial_action_family(seed=16, per_shape=15)


@pytest.fixture(scope="session")
def growth() -> list:
    return growth_family(seed=1, per_shape=10)


@pytest.fixture(scope="session")
def eight_shapes() -> dict[int, list]:
    return {seed: eight_shape_family(seed, per_shape=25, max_index=24) for seed in (1, 2, 3, 4)}


@dataclass(frozen=True)
class PointStabilizer:
    """H = the stabiliser of point 0 under a transitive action of Z2 * Z3 on
    ``index`` points, with the Kurosh structure the action determines."""

    system: FactorSystem
    gens: tuple[Word, ...]
    index: int
    pieces: tuple[tuple[int, int], ...]  # sorted (factor, order): one per fixed point
    free_rank: int


def z2z3_point_stabilizer(n: int, seed: int = 1, fixed: tuple[int, int] | None = None) -> PointStabilizer:
    """The scaling family: a random transitive action of Z2 * Z3 = <a> * <b>
    on n points, with ``fixed`` = (fixed points of a, fixed points of b),
    the fewest by default.  H is given by its Schreier generators over a
    breadth-first spanning tree from point 0.  theta is the identity on Z2
    and kills Z3.

    Each fixed point of a (of b) contributes a Z2 (a Z3) piece, and
    chi(H) = n * chi(G) = -n/6 fixes the free rank.
    """
    f2, f3 = fixed if fixed is not None else (n % 2, n % 3)
    assert (n - f2) % 2 == 0 and (n - f3) % 3 == 0
    rnd = random.Random(seed)
    while True:
        pts = list(range(n))
        rnd.shuffle(pts)
        a = list(range(n))
        for i in range(f2, n, 2):
            a[pts[i]], a[pts[i + 1]] = pts[i + 1], pts[i]
        rnd.shuffle(pts)
        b = list(range(n))
        for i in range(f3, n, 3):
            b[pts[i]], b[pts[i + 1]], b[pts[i + 2]] = pts[i + 1], pts[i + 2], pts[i]
        b2 = [b[b[p]] for p in range(n)]
        moves = {(0, 1): a, (1, 1): b, (1, 2): b2}
        word = {0: ()}
        order = [0]
        for u in order:
            for syl, perm in moves.items():
                if perm[u] not in word:
                    word[perm[u]] = word[u] + (syl,)
                    order.append(perm[u])
        if len(order) == n:
            break
    system = make_system([Z2, Z3], [Z2, TRIV], [[0, 1], [0, 0, 0]])
    gens = {}  # a dict keeps the first occurrence of each generator, in order
    for u in order:
        for syl, perm in moves.items():
            s = normalize(system, "G", word[u] + (syl,) + invert(system, "G", word[perm[u]]))
            if s:
                gens.setdefault(s)
    pieces = ((0, 2),) * f2 + ((1, 3),) * f3
    rank = Fraction(1) - Fraction(f2, 2) - Fraction(2 * f3, 3) + Fraction(n, 6)
    assert rank.denominator == 1
    return PointStabilizer(system, tuple(gens), n, pieces, int(rank))


def s5z2_point_stabilizer(seed: int):
    """A system of the shape of the benchmark's S5*Z2 rung: S5 * Z2 onto
    Z2 * Z2 by (sign, identity), and H the stabiliser of point 0 when S5
    acts naturally on 5 points and Z2 by a random involution with one
    fixed point.  H is given by its Schreier generators over a
    breadth-first tree, for a transposition, a 5-cycle and a random
    element of S5 and the involution."""
    rnd = random.Random(seed)
    perms = sorted(itertools.permutations(range(5)))  # sym(5)'s element order
    s5 = [perms.index((1, 0, 2, 3, 4)), perms.index((1, 2, 3, 4, 0)), rnd.randrange(1, 120)]
    pts = rnd.sample(range(5), 5)
    flip = list(range(5))
    for i in (1, 3):
        flip[pts[i]], flip[pts[i + 1]] = pts[i + 1], pts[i]
    moves = {(0, e): perms[e] for e in s5}
    moves[(1, 1)] = flip
    system = make_system([sym(5), Z2], [Z2, Z2], [sign_map(5), [0, 1]])
    word = {0: ()}
    order = [0]
    for u in order:  # grows while the walk discovers points
        for syl, perm in moves.items():
            if perm[u] not in word:
                word[perm[u]] = normalize(system, "G", word[u] + (syl,))
                order.append(perm[u])
    gens = {}
    for u in order:
        for syl, perm in moves.items():
            s = normalize(system, "G", word[u] + (syl,) + invert(system, "G", word[perm[u]]))
            if s:
                gens.setdefault(s)
    return system, tuple(gens)


def dihedral_point_stabilizer(n: int):
    """Z2 * Z2 = <a> * <b> onto Z2 * 1 (identity, trivial map), and H the
    stabiliser of point 0 when a acts on Z/n by i -> -i and b by
    i -> 1 - i.  The coset graph is a path from the base, 0 -b- 1 -a- n-1
    -b- 2 ..., with an a-loop at the base and a loop at the far end, so the
    last coset is n - 1 edges away.  H is given by its Schreier
    generators over a breadth-first tree."""
    a = [-i % n for i in range(n)]
    b = [(1 - i) % n for i in range(n)]
    moves = {(0, 1): a, (1, 1): b}
    system = make_system([Z2, Z2], [Z2, TRIV], [[0, 1], [0, 0]])
    word = {0: ()}
    order = [0]
    for u in order:  # grows while the walk discovers points
        for syl, perm in moves.items():
            if perm[u] not in word:
                word[perm[u]] = word[u] + (syl,)
                order.append(perm[u])
    gens = {}
    for u in order:
        for syl, perm in moves.items():
            s = normalize(system, "G", word[u] + (syl,) + invert(system, "G", word[perm[u]]))
            if s:
                gens.setdefault(s)
    return system, tuple(gens)


def _random_factor_action(rnd: random.Random, group, m: int) -> list[list[int]]:
    """A right action ``act[g][point]`` of ``group`` on m shuffled points,
    orbit by orbit: each orbit is the right-coset action on the subgroup
    that up to two random elements generate, drawn again when it does not
    fit."""
    points = rnd.sample(range(m), m)
    act = [[0] * m for _ in range(group.order)]
    pos = 0
    while pos < m:
        sub = subgroup_closure(group, [rnd.randrange(group.order) for _ in range(rnd.randint(0, 2))])
        if pos + group.order // len(sub) > m:
            continue
        cosets = sorted({frozenset(group.mul[s][x] for s in sub) for x in range(group.order)}, key=min)
        where = {y: i for i, coset in enumerate(cosets) for y in coset}
        for i, coset in enumerate(cosets):
            for g in range(group.order):
                act[g][points[pos + i]] = points[pos + where[group.mul[min(coset)][g]]]
        pos += len(cosets)
    return act


def _maps_onto_b(system: FactorSystem, perms: dict, m: int) -> bool:
    """theta(H) = B for the point stabiliser H exactly when ker(theta) is
    transitive on the points: the smallest G-invariant equivalence that
    relates p to p k for every k in a factor kernel has one class."""
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    pairs = [(p, perm[p]) for (lam, g), perm in perms.items() if system.theta[lam].map[g] == 0 for p in range(m)]
    classes = m
    while pairs:
        a, b = pairs.pop()
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            classes -= 1
            pairs.extend((perm[a], perm[b]) for perm in perms.values())
    return classes == 1


def _point_stabilizers(seed: int, shapes, per_shape: int, max_index: int):
    """Per shape (name, G's factors, B's factors, theta's maps),
    ``per_shape`` subgroups H, each the stabiliser of point 0 under a
    random transitive action on 4 to ``max_index`` points for which H maps
    onto B, given by its Schreier generators over a breadth-first tree.
    Returns (shape, system, generators) triples."""
    rnd = random.Random(seed)
    out = []
    for name, factors, targets, maps in shapes:
        system = make_system(factors, targets, maps)
        drawn = 0
        while drawn < per_shape:
            m = rnd.randint(4, max_index)
            perms = {
                (lam, g): perm
                for lam, group in enumerate(factors)
                for g, perm in enumerate(_random_factor_action(rnd, group, m))
                if g
            }
            word = {0: ()}
            order = [0]
            for u in order:  # grows while the walk discovers points
                for syl, perm in perms.items():
                    if perm[u] not in word:
                        word[perm[u]] = normalize(system, "G", word[u] + (syl,))
                        order.append(perm[u])
            if len(order) < m or not _maps_onto_b(system, perms, m):
                continue
            gens = {}
            for u in order:
                for syl, perm in perms.items():
                    s = normalize(system, "G", word[u] + (syl,) + invert(system, "G", word[perm[u]]))
                    if s:
                        gens.setdefault(s)
            out.append((name, system, tuple(gens)))
            drawn += 1
    return out


def six_shape_family(seed: int, per_shape: int, max_index: int = 12):
    """Six shapes of two factors, each onto Z2 * Z2: S3*S3
    (sign, sign), S3*Z2 (sign, id), S3*Z4 (sign, mod 2), S4*Z2 (sign, id),
    S5*Z2 (sign, id) and Z4*Z4 (mod 2, mod 2), with ``per_shape`` point
    stabilisers each (``_point_stabilizers``)."""
    z4_mod2 = [0, 1, 0, 1]
    shapes = [
        ("S3*S3", [S3, S3], [Z2, Z2], [sign_map(3), sign_map(3)]),
        ("S3*Z2", [S3, Z2], [Z2, Z2], [sign_map(3), [0, 1]]),
        ("S3*Z4", [S3, Z4], [Z2, Z2], [sign_map(3), z4_mod2]),
        ("S4*Z2", [sym(4), Z2], [Z2, Z2], [sign_map(4), [0, 1]]),
        ("S5*Z2", [sym(5), Z2], [Z2, Z2], [sign_map(5), [0, 1]]),
        ("Z4*Z4", [Z4, Z4], [Z2, Z2], [z4_mod2, z4_mod2]),
    ]
    return _point_stabilizers(seed, shapes, per_shape, max_index)


def growth_family(seed: int, per_shape: int, max_index: int = 60):
    """Six shapes whose B grows exponentially or has three factors:
    Z4*Z6 onto Z2*Z3 (mod 2, mod 3), Z6*Z6 onto Z3*Z3 (mod 3, mod 3),
    Z6*Z6 onto Z2*Z3 (mod 2, mod 3), S3*S3*S3 onto Z2*Z2*Z2 (signs),
    Z4*Z4*Z2 onto Z2*Z2*Z2 (mod 2, mod 2, id) and S3*Z4*Z6 onto Z2*Z2*Z3
    (sign, mod 2, mod 3), with ``per_shape`` point stabilisers each
    (``_point_stabilizers``)."""
    z6 = cyclic(6)
    mod2 = [0, 1, 0, 1]
    mod3 = [g % 3 for g in range(6)]
    shapes = [
        ("Z4*Z6", [Z4, z6], [Z2, Z3], [mod2, mod3]),
        ("Z6*Z6/3", [z6, z6], [Z3, Z3], [mod3, mod3]),
        ("Z6*Z6/2", [z6, z6], [Z2, Z3], [[g % 2 for g in range(6)], mod3]),
        ("S3*S3*S3", [S3, S3, S3], [Z2, Z2, Z2], [sign_map(3)] * 3),
        ("Z4*Z4*Z2", [Z4, Z4, Z2], [Z2, Z2, Z2], [mod2, mod2, [0, 1]]),
        ("S3*Z4*Z6", [S3, Z4, z6], [Z2, Z2, Z3], [sign_map(3), mod2, mod3]),
    ]
    return _point_stabilizers(seed, shapes, per_shape, max_index)


def pairing_map() -> list[int]:
    """S4 onto S3: each element of ``sym(4)`` as its action on the three
    pairings {01|23}, {02|13}, {03|12} of {0, 1, 2, 3}, an element of
    ``sym(3)``."""
    pairings = [{frozenset(pair[:2]), frozenset(pair[2:])} for pair in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))]
    s3 = sorted(itertools.permutations(range(3)))
    return [
        s3.index(tuple(pairings.index({frozenset(p[a] for a in part) for part in pairing}) for pairing in pairings))
        for p in sorted(itertools.permutations(range(4)))
    ]


def eight_shape_family(seed: int, per_shape: int, max_index: int = 24):
    """Eight shapes onto a B with a factor of order above 3: S3*S3 onto
    S3*Z2 (id, sign), S4*Z2 onto S3*Z2, S4*Z3 onto S3*Z3, S4*S4 onto S3*S3,
    Z6*S4 onto Z3*S3, Z12*Z6 onto Z4*Z3 (mod 4, mod 3), Z4*Z5 onto Z2*Z5
    (mod 2, id) and S3*S3*Z4 onto S3*Z2*Z2 (id, sign, mod 2), S4 mapping
    by ``pairing_map``, with ``per_shape`` point stabilisers each
    (``_point_stabilizers``)."""
    s4, z5, z6, z12 = sym(4), cyclic(5), cyclic(6), cyclic(12)
    pairs, s3_id, mod2, mod3 = pairing_map(), list(range(6)), [0, 1, 0, 1], [g % 3 for g in range(6)]
    shapes = [
        ("S3*S3", [S3, S3], [S3, Z2], [s3_id, sign_map(3)]),
        ("S4*Z2", [s4, Z2], [S3, Z2], [pairs, [0, 1]]),
        ("S4*Z3", [s4, Z3], [S3, Z3], [pairs, [0, 1, 2]]),
        ("S4*S4", [s4, s4], [S3, S3], [pairs, pairs]),
        ("Z6*S4", [z6, s4], [Z3, S3], [mod3, pairs]),
        ("Z12*Z6", [z12, z6], [Z4, Z3], [[g % 4 for g in range(12)], mod3]),
        ("Z4*Z5", [Z4, z5], [Z2, z5], [mod2, list(range(5))]),
        ("S3*S3*Z4", [S3, S3, Z4], [S3, Z2, Z2], [s3_id, sign_map(3), mod2]),
    ]
    return _point_stabilizers(seed, shapes, per_shape, max_index)


def _partial_factor_action(rnd: random.Random, group, m: int):
    """A saturated partial right action of ``group`` on m shuffled points,
    orbit by orbit: each orbit holds some of the right cosets of the
    subgroup S that up to two random elements generate, with every edge
    between them, so S is the stabiliser of the orbit's first coset.

    Returns ``(act, orbits, pieces, nontrivial)``: ``act[g]`` maps a point
    to its image under g where that is defined, ``orbits`` counts the
    orbits, ``pieces`` lists |S| for every S != 1, and ``nontrivial`` holds
    the points of the orbits with an edge or a loop."""
    points = rnd.sample(range(m), m)
    act: list[dict[int, int]] = [{} for _ in range(group.order)]
    orbits = 0
    pieces = []
    nontrivial = set()
    pos = 0
    while pos < m:
        sub = subgroup_closure(group, [rnd.randrange(group.order) for _ in range(rnd.randint(0, 2))])
        cosets = sorted({frozenset(group.mul[s][x] for s in sub) for x in range(group.order)}, key=min)
        where = {y: coset for coset in cosets for y in coset}
        chosen = rnd.sample(cosets, rnd.randint(1, min(len(cosets), m - pos)))
        at = {coset: points[pos + i] for i, coset in enumerate(chosen)}
        for coset, p in at.items():
            for g in range(1, group.order):
                q = at.get(where[group.mul[min(coset)][g]])
                if q is not None:
                    act[g][p] = q
        orbits += 1
        if len(sub) > 1:
            pieces.append(len(sub))
        if len(chosen) > 1 or len(sub) > 1:
            nontrivial.update(at.values())
        pos += len(chosen)
    return act, orbits, pieces, nontrivial


@dataclass(frozen=True)
class PartialActionSubgroup:
    """H = the stabiliser of point 0 under a saturated partial action of a
    two-factor G on ``graph.vertex_count`` points, of infinite index.  The
    action is H's core: ``moves[(lam, g)]`` maps each point to its image
    where defined, and ``graph`` is the same action as a canonical graph."""

    shape: str
    system: FactorSystem
    gens: tuple[Word, ...]
    moves: dict
    graph: CoreGraph
    pieces: tuple[tuple[int, int], ...]  # sorted (factor, order): one per nontrivial orbit stabiliser
    free_rank: int

    def trace(self, word: Word) -> int | None:
        """The point ``word`` leads point 0 to under the action, or None."""
        p = 0
        for syl in word:
            p = self.moves[syl].get(p)
            if p is None:
                return None
        return p


def partial_action_family(seed: int, per_shape: int, max_points: int = 12) -> list[PartialActionSubgroup]:
    """Four shapes onto Z2 * 1: Z2*Z3 (id, trivial), Z2*S3 (id, trivial),
    S3*Z3 (sign, trivial) and Z4*S3 (mod 2, trivial).  Per shape,
    ``per_shape`` subgroups H, each the stabiliser of point 0 under a random
    saturated partial action on 2 to ``max_points`` points, given by its
    Schreier generators over a breadth-first tree.

    A draw is kept when the action is connected, leaves some edge
    undefined (so H has infinite index), maps H onto B, and is a core:
    every point but 0 lies in orbits with an edge or a loop of both
    factors, so every edge lies on a reduced loop at point 0.  H's pieces
    are then the nontrivial orbit stabilisers, and its free rank is the
    cycle rank m - C + 1 of the graph with the m points and the C orbits
    as nodes and one edge per point and orbit containing it.  H maps onto
    B = Z2 exactly when the parities theta gives the edges cannot be
    written as differences of point labels."""
    z4_mod2 = [0, 1, 0, 1]
    shapes = [
        ("Z2*Z3", [Z2, Z3], [[0, 1], [0, 0, 0]]),
        ("Z2*S3", [Z2, S3], [[0, 1], [0] * 6]),
        ("S3*Z3", [S3, Z3], [sign_map(3), [0, 0, 0]]),
        ("Z4*S3", [Z4, S3], [z4_mod2, [0] * 6]),
    ]
    rnd = random.Random(seed)
    out = []
    for name, factors, maps in shapes:
        system = make_system(factors, [Z2, TRIV], maps)
        drawn = 0
        while drawn < per_shape:
            m = rnd.randint(2, max_points)
            moves, orbits, pieces, degree = {}, 0, [], [0] * m
            for lam, group in enumerate(factors):
                act, count, orders, nontrivial = _partial_factor_action(rnd, group, m)
                orbits += count
                pieces += [(lam, order) for order in orders]
                for p in nontrivial:
                    degree[p] += 1
                moves.update(((lam, g), act[g]) for g in range(1, group.order))
            if min(degree[1:]) < 2 or all(len(perm) == m for perm in moves.values()):
                continue
            word = {0: ()}
            parity = {0: 0}
            onto = False
            order = [0]
            for u in order:  # grows while the walk discovers points
                for (lam, g), perm in moves.items():
                    v = perm.get(u)
                    if v is None:
                        continue
                    step = parity[u] ^ system.theta[lam].map[g]
                    if v in word:
                        onto |= parity[v] != step
                    else:
                        word[v] = normalize(system, "G", word[u] + ((lam, g),))
                        parity[v] = step
                        order.append(v)
            if len(order) < m or not onto:
                continue
            gens = {}
            for u in order:
                for syl, perm in moves.items():
                    if u in perm:
                        s = normalize(system, "G", word[u] + (syl,) + invert(system, "G", word[perm[u]]))
                        if s:
                            gens.setdefault(s)
            rows = tuple({syl: perm[p] for syl, perm in moves.items() if p in perm} for p in range(m))
            graph = canonicalize(CoreGraph(vertex_count=m, action=rows, complete=False))
            out.append(
                PartialActionSubgroup(name, system, tuple(gens), moves, graph, tuple(sorted(pieces)), m - orbits + 1)
            )
            drawn += 1
    return out


def enumerate_ball(system: FactorSystem, maxlen: int):
    """All normal-form words over G of syllable length <= maxlen."""
    factors = system.factors_g
    yield ()
    frontier: list[Word] = [()]
    for _ in range(maxlen):
        nxt = []
        for w in frontier:
            last = w[-1][0] if w else -1
            for lam in range(len(factors)):
                if lam == last:
                    continue
                for e in range(1, factors[lam].order):
                    nw = w + ((lam, e),)
                    nxt.append(nw)
                    yield nw
        frontier = nxt
