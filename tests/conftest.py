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
