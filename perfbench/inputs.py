"""Seeded inputs for the benchmark, built without the code under test.

Every subgroup here is the stabiliser H of point 0 under a transitive
action of G = G_0 * G_1 * ... on m points, given by its Schreier
generators.  The construction fixes the answers the benchmark checks:

* the index [G : H] is m;
* each orbit O of a factor G_lam contributes one Kurosh piece of order
  |G_lam| / |O| when that order is above 1, and the free rank r follows
  from chi(H) = m * chi(G), with chi(A * B) = chi(A) + chi(B) - 1,
  chi(finite A) = 1 / |A| and chi(F_r) = 1 - r;
* H maps onto B exactly when ker(theta) is transitive on the points,
  decided here by a congruence closure on the action.

Groups are multiplication tables with the identity at index 0.  Cyclic
factors are written as the ``cyclic n`` shorthand; symmetric groups as
explicit tables whose non-identity elements are relabelled by the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------- groups


@dataclass(frozen=True)
class Group:
    name: str
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    gens: tuple[int, ...]  # edge labels for Schreier generators: all of Z_n, two generators of S_k
    spec: object  # what the system file holds: "cyclic n" or the table
    subgroups: dict = field(hash=False, compare=False)  # index -> representative subgroup
    sign: tuple[int, ...] = ()  # sign map onto Z2, for symmetric groups

    @property
    def order(self) -> int:
        return len(self.mul)


def cyclic(n: int) -> Group:
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    subgroups = {d: frozenset(range(0, n, d)) for d in range(1, n + 1) if n % d == 0}
    return Group(f"Z{n}", mul, inv, tuple(range(1, n)), f"cyclic {n}", subgroups)


def symmetric(k: int, rnd: random.Random | None = None) -> Group:
    """S_k as an explicit table; the product pq applies p first, then q.

    With ``rnd`` the non-identity elements get a random relabelling.
    Subgroups offered for actions: the whole group, the alternating group
    (index 2) and a point stabiliser (index k).
    """
    perms = sorted(itertools.permutations(range(k)))
    label = list(range(len(perms)))
    if rnd is not None:
        rest = label[1:]
        rnd.shuffle(rest)
        label = [0] + rest
    index = {p: label[i] for i, p in enumerate(perms)}
    n = len(perms)
    mul = [[0] * n for _ in range(n)]
    for p in perms:
        for q in perms:
            mul[index[p]][index[q]] = index[tuple(q[p[x]] for x in range(k))]
    mul_t = tuple(tuple(r) for r in mul)
    inv = tuple(row.index(0) for row in mul_t)
    sign = [0] * n
    for p in perms:
        sign[index[p]] = sum(1 for i in range(k) for j in range(i + 1, k) if p[i] > p[j]) % 2
    transposition = index[(1, 0) + tuple(range(2, k))]
    cycle = index[tuple(range(1, k)) + (0,)]
    subgroups = {
        1: frozenset(range(n)),
        2: frozenset(x for x in range(n) if sign[x] == 0),
        k: frozenset(index[p] for p in perms if p[k - 1] == k - 1),
    }
    return Group(f"S{k}", mul_t, inv, (transposition, cycle), [list(r) for r in mul_t], subgroups, tuple(sign))


# ------------------------------------------------------------------ words


def normalize(groups, syllables) -> tuple:
    out: list[tuple[int, int]] = []
    for lam, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == lam:
            merged = groups[lam].mul[out[-1][1]][e]
            if merged:
                out[-1] = (lam, merged)
            else:
                out.pop()
        else:
            out.append((lam, e))
    return tuple(out)


def invert(groups, w) -> tuple:
    return tuple((lam, groups[lam].inv[e]) for lam, e in reversed(w))


def fmt(w) -> str:
    return " ".join(f"{lam}:{e}" for lam, e in w)


# ---------------------------------------------------------------- actions


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        self.parent[b] = a
        return True


def orbit_action(group: Group, orbit_sizes, points) -> list[list[int]]:
    """Right action of ``group`` on ``points`` with the given orbit sizes.

    The points are taken in order; each orbit is the right-coset action on
    the group's representative subgroup of that index.  Returns
    ``act[g][p]`` for every element g.
    """
    n = len(points)
    act = [[-1] * n for _ in range(group.order)]
    pos = 0
    for size in orbit_sizes:
        sub = group.subgroups[size]
        cosets: list[frozenset[int]] = []
        where: dict[int, int] = {}
        for x in range(group.order):
            if x in where:
                continue
            coset = frozenset(group.mul[s][x] for s in sub)
            for y in coset:
                where[y] = len(cosets)
            cosets.append(coset)
        assert len(cosets) == size
        reps = [min(c) for c in cosets]
        for g in range(group.order):
            for i, x in enumerate(reps):
                act[g][points[pos + i]] = points[pos + where[group.mul[x][g]]]
        pos += size
    assert pos == n
    return act


@dataclass(frozen=True)
class Action:
    """A transitive action of the free product on m points, plus the map."""

    factors_g: tuple[Group, ...]
    factors_b: tuple[Group, ...]
    theta: tuple[tuple[int, ...], ...]
    signature: tuple[tuple[int, ...], ...]  # orbit sizes per factor
    act: tuple  # act[lam][g][point]

    @property
    def points(self) -> int:
        return len(self.act[0][0])


def place(factors_g, factors_b, theta, signature, m: int, rnd: random.Random) -> Action:
    """Random placement of each factor's orbits on the m points."""
    acts = []
    for group, sizes in zip(factors_g, signature):
        pts = list(range(m))
        rnd.shuffle(pts)
        acts.append(tuple(tuple(row) for row in orbit_action(group, sizes, pts)))
    return Action(tuple(factors_g), tuple(factors_b), tuple(tuple(t) for t in theta), tuple(signature), tuple(acts))


def is_transitive(action: Action) -> bool:
    uf = _UnionFind(action.points)
    for group, act in zip(action.factors_g, action.act):
        for g in group.gens:
            for p in range(action.points):
                uf.union(p, act[g][p])
    return len({uf.find(p) for p in range(action.points)}) == 1


def maps_onto_b(action: Action) -> bool:
    """True iff theta(H) = B, i.e. the normal closure of ker(theta) is
    transitive: the smallest G-invariant equivalence containing every
    pair (p, p.k) for k in some ker(theta_lam) has one class."""
    m = action.points
    uf = _UnionFind(m)
    queue = []
    for group, act, th in zip(action.factors_g, action.act, action.theta):
        for k in range(1, group.order):
            if th[k] == 0:
                for p in range(m):
                    if uf.union(p, act[k][p]):
                        queue.append((p, act[k][p]))
    gens = [act[g] for group, act in zip(action.factors_g, action.act) for g in group.gens]
    while queue:
        a, b = queue.pop()
        for perm in gens:
            if uf.union(perm[a], perm[b]):
                queue.append((perm[a], perm[b]))
    return len({uf.find(p) for p in range(m)}) == 1


def draw_action(factors_g, factors_b, theta, signature, m, rnd, tries: int = 5000) -> Action:
    """A random placement that is transitive and maps onto B."""
    for _ in range(tries):
        action = place(factors_g, factors_b, theta, signature, m, rnd)
        if is_transitive(action) and maps_onto_b(action):
            return action
    raise RuntimeError(f"no transitive action onto B with orbit sizes {signature} in {tries} tries")


def schreier_generators(action: Action, rnd: random.Random | None = None) -> list[tuple]:
    """Schreier generators of the stabiliser of point 0, in normal form.

    The spanning tree is a breadth-first search from 0; ``rnd`` shuffles
    the order in which labels are tried.
    """
    groups = action.factors_g
    labels = [(lam, g) for lam, group in enumerate(groups) for g in group.gens]
    if rnd is not None:
        rnd.shuffle(labels)
    word = {0: ()}
    queue = [0]
    for u in queue:
        for lam, g in labels:
            v = action.act[lam][g][u]
            if v not in word:
                word[v] = normalize(groups, word[u] + ((lam, g),))
                queue.append(v)
    gens = []
    seen = set()
    for u in queue:
        for lam, g in labels:
            v = action.act[lam][g][u]
            s = normalize(groups, word[u] + ((lam, g),) + invert(groups, word[v]))
            if s and s not in seen:
                seen.add(s)
                gens.append(s)
    return gens


def expected_structure(action: Action) -> tuple[tuple[tuple[int, int], ...], int]:
    """Kurosh pieces as sorted (factor, order) pairs, and the free rank."""
    pieces = []
    for lam, (group, sizes) in enumerate(zip(action.factors_g, action.signature)):
        for size in sizes:
            if group.order // size > 1:
                pieces.append((lam, group.order // size))
    rank = 1 + sum(Fraction(1, order) - 1 for _, order in pieces) - action.points * chi_of_g(action)
    assert rank.denominator == 1 and rank >= 0, rank
    return tuple(sorted(pieces)), int(rank)


def euler_characteristic(piece_orders, free_rank: int) -> Fraction:
    """chi(P_1 * ... * P_k * F_r) = sum(1/|P_i| - 1) + 1 - r."""
    return sum((Fraction(1, o) - 1 for o in piece_orders), Fraction(0)) + 1 - free_rank


def chi_of_g(action: Action) -> Fraction:
    return sum(Fraction(1, g.order) for g in action.factors_g) - (len(action.factors_g) - 1)


# ---------------------------------------------------------------- systems


@dataclass(frozen=True)
class Case:
    """One generated input: the system JSON plus its known answers."""

    name: str
    system: dict
    index: int
    pieces: tuple[tuple[int, int], ...]
    free_rank: int
    chi_g: Fraction
    groups: tuple[Group, ...] = field(repr=False)


def make_case(name: str, action: Action, rnd: random.Random, nielsen: int = 0) -> Case:
    """System file for the stabiliser of 0, presented by Schreier generators
    after ``nielsen`` random Nielsen moves (which keep the subgroup)."""
    groups = action.factors_g
    gens = schreier_generators(action, rnd)
    for _ in range(nielsen):
        if len(gens) < 2:
            break
        i, j = rnd.sample(range(len(gens)), 2)
        other = gens[j] if rnd.random() < 0.5 else invert(groups, gens[j])
        new = normalize(groups, gens[i] + other)
        if new:
            gens[i] = new
    rnd.shuffle(gens)
    system = {
        "factors_G": [g.spec for g in groups],
        "factors_B": [b.spec for b in action.factors_b],
        "theta": [list(t) for t in action.theta],
        "subgroup": [fmt(w) for w in gens],
    }
    pieces, rank = expected_structure(action)
    return Case(name, system, action.points, pieces, rank, chi_of_g(action), groups)


def write_cases(cases, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = directory / f"{case.name}.json"
        path.write_text(json.dumps(case.system, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------- tampering


def tampered_copies(groups, cert: dict) -> dict[str, dict]:
    """Certificates that must fail verification, built from a valid one:
    ``piece`` lists the first piece twice; ``basis`` appends the product
    of the first and last free-basis words of a factor, so the basis is no
    longer free.  Empty for the trivial subgroup, which has neither."""
    out = {}
    for fc_index, fc in enumerate(cert["factors"]):
        if fc["reps"] and "piece" not in out:
            bad = json.loads(json.dumps(cert))
            for key in ("beta_primes", "g_corrections", "reps", "vertex_groups"):
                bad["factors"][fc_index][key].append(fc[key][0])
            out["piece"] = bad
        if fc["f_basis"] and "basis" not in out:
            bad = json.loads(json.dumps(cert))
            word = normalize(groups, _parse(fc["f_basis"][0]) + _parse(fc["f_basis"][-1]))
            bad["factors"][fc_index]["f_basis"].append(fmt(word))
            out["basis"] = bad
    return out


def _parse(text: str) -> tuple:
    return tuple(tuple(int(x) for x in tok.split(":")) for tok in text.split())


# ---------------------------------------------------------------- families

Z1, Z2, Z3, Z4 = cyclic(1), cyclic(2), cyclic(3), cyclic(4)


def theta_map(kind: str, group: Group) -> tuple[Group, tuple[int, ...]]:
    """Factor map by kind: identity, collapse, Z4 -> Z2, or sign onto Z2."""
    if kind == "id":
        return group, tuple(range(group.order))
    if kind == "collapse":
        return Z1, (0,) * group.order
    if kind == "mod2":
        return Z2, tuple(x % 2 for x in range(group.order))
    if kind == "sign":
        return Z2, group.sign
    raise ValueError(kind)


def _factor(name: str, rnd: random.Random) -> Group:
    if name.startswith("S"):
        return symmetric(int(name[1:]), rnd)
    return cyclic(int(name[1:]))


SHAPES = Path(__file__).resolve().parent / "corpus_shapes.json"


def corpus(seed: int, count: int = 170) -> list[Case]:
    """Systems of the test corpus's shapes (see derive_shapes.py), each a
    fresh random action of that shape drawn from the seed.

    Fixing the shapes keeps per-seed totals comparable: the cost of a
    system follows its shape (its factors, index and Kurosh pieces).
    """
    rnd = random.Random(seed)
    cases = []
    shapes = json.loads(SHAPES.read_text(encoding="utf-8"))[:count]
    for i, (factors, thetas, points, signature) in enumerate(shapes):
        factors_g = [_factor(name, rnd) for name in factors]
        maps = [theta_map(kind, g) for kind, g in zip(thetas, factors_g)]
        action = draw_action(factors_g, [b for b, _ in maps], [t for _, t in maps], signature, points, rnd)
        cases.append(make_case(f"corpus_{i:03d}", action, rnd, nielsen=rnd.randint(0, 2)))
    return cases


def z2z3_signature(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Z2 * Z3 on n points with the fewest fixed points."""
    f2, f3 = n % 2, n % 3
    return (1,) * f2 + (2,) * ((n - f2) // 2), (1,) * f3 + (3,) * ((n - f3) // 3)


def z2z3_case(name: str, n: int, rnd: random.Random) -> Case:
    """The scaling family: theta is the identity on Z2 and kills Z3."""
    action = draw_action([Z2, Z3], [Z2, Z1], [(0, 1), (0, 0, 0)], z2z3_signature(n), n, rnd)
    return make_case(name, action, rnd)


COSET_LADDER = (60, 120, 180, 240, 300)
# The small systems all have index 3, whose costs are close together
# (verify about 0.01 s, within 10%).  Mixed with index 4 (0.1 s) the
# percentiles fall in the gap between the two classes, and index 4 alone
# has a tail (one system in ten takes 1.5 times the median), so either way
# p50 or p90 swings with a single system from seed to seed.
COSET_CERTIFY = (3,)
COSET_INSTANCES = (2, 12)  # actions per ladder rung, per small size: their costs vary by about 10%


def coset_scale(seed: int, ladder=COSET_LADDER) -> tuple[list[Case], list[Case]]:
    """(kurosh-only cases, small cases run through the whole pipeline)."""
    rnd = random.Random(seed)
    big_k, small_k = COSET_INSTANCES
    big = [z2z3_case(f"coset_n{n}_{i}", n, rnd) for n in ladder for i in range(big_k)]
    small = [z2z3_case(f"coset_small_n{n}_{i}", n, rnd) for n in COSET_CERTIFY for i in range(small_k)]
    return big, small


CERTIFY_Z2Z3 = (12,)


def certify_scale(seed: int, z2z3=CERTIFY_Z2Z3, s3z4=(12, (3, 3, 3, 3), (4, 4, 4)),
                  s5z2=(5, (5,), (1, 2, 2))) -> list[Case]:
    """Z2*Z3 rungs, then S3*Z4 (sign, mod 2) and S5*Z2 (sign, identity),
    each given as (points, orbit sizes of the first factor, of the second)."""
    rnd = random.Random(seed)
    cases = [z2z3_case(f"certify_z2z3_n{n}", n, rnd) for n in z2z3]
    s3, s5 = symmetric(3, rnd), symmetric(5, rnd)
    rungs = (("s3z4", [s3, Z4], [s3.sign, (0, 1, 0, 1)], s3z4), ("s5z2", [s5, Z2], [s5.sign, (0, 1)], s5z2))
    for name, groups, theta, (n, sig_a, sig_b) in rungs:
        action = draw_action(groups, [Z2, Z2], theta, (sig_a, sig_b), n, rnd)
        cases.append(make_case(f"certify_{name}_n{n}", action, rnd))
    return cases
