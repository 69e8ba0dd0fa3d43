"""Independent enumerations used only as test oracles.

``NaiveCosetTable`` is classic relator-scanning coset enumeration over the
presentation whose generators are the nonidentity factor elements and whose
relators are the factor multiplication triples.  It shares no code with the
package's fold/saturate builder, so agreement between the two is meaningful
evidence.  ``brute_force_members`` enumerates products of generators,
``rank_formula`` counts the free rank from component sizes, and
``freeness_search`` (with ``free_part_letters``) is the bounded search for
free-product relations that the exact check C7 replaced; it cross-checks
C7 on the corpus.
"""

from __future__ import annotations

import random
from collections import deque

from freedecomp.covgraph import CoreGraph, lambda_components
from freedecomp.freeprod import EMPTY, FactorSystem, Word, invert, multiply


class EnumerationOverflow(Exception):
    pass


class NaiveCosetTable:
    def __init__(self, system, gens, max_cosets=64):
        self.system = system
        self.max_cosets = max_cosets
        self.letters = [
            (lam, g)
            for lam in range(system.num_factors)
            for g in range(1, system.factors_g[lam].order)
        ]
        self.relators = self._relators()
        self.gen_words = [list(w) for w in gens]
        self.table = [dict()]
        self.parent = [0]
        self._run()

    def _relators(self):
        rels = []
        for lam in range(self.system.num_factors):
            group = self.system.factors_g[lam]
            for g in range(1, group.order):
                for h in range(1, group.order):
                    gh = group.mul[g][h]
                    if gh == 0:
                        rels.append([(lam, g), (lam, h)])
                    else:
                        rels.append([(lam, g), (lam, h), (lam, group.inv[gh])])
        return rels

    def _inv(self, letter):
        lam, g = letter
        return (lam, self.system.factors_g[lam].inv[g])

    def rep(self, c):
        while self.parent[c] != c:
            self.parent[c], c = self.parent[self.parent[c]], self.parent[c]
        return c

    def _live(self):
        return [c for c in range(len(self.table)) if self.rep(c) == c]

    def _get(self, c, letter):
        t = self.table[c].get(letter)
        return None if t is None else self.rep(t)

    def _set(self, c, letter, d):
        self.table[c][letter] = d
        self.table[d][self._inv(letter)] = c

    def _new_coset(self):
        if len(self._live()) >= self.max_cosets:
            raise EnumerationOverflow(self.max_cosets)
        c = len(self.table)
        self.table.append(dict())
        self.parent.append(c)
        return c

    def _coincide(self, a, b):
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.rep(a), self.rep(b)
            if a == b:
                continue
            keep, drop = (a, b) if a < b else (b, a)
            self.parent[drop] = keep
            row = self.table[drop]
            self.table[drop] = dict()
            for letter, t in row.items():
                t = self.rep(t)
                cur = self._get(keep, letter)
                if cur is None:
                    self._set(keep, letter, t)
                elif cur != t:
                    queue.append((cur, t))

    def _scan(self, start, word):
        # forward as far as defined, then backward; deduce or coincide
        changed = False
        f, i = self.rep(start), 0
        while i < len(word):
            t = self._get(f, word[i])
            if t is None:
                break
            f, i = t, i + 1
        if i == len(word):
            if f != self.rep(start):
                self._coincide(f, self.rep(start))
                return True
            return False
        b, j = self.rep(start), len(word) - 1
        while j > i:
            t = self._get(b, self._inv(word[j]))
            if t is None:
                break
            b, j = t, j - 1
        if j == i:
            f, b = self.rep(f), self.rep(b)
            existing = self._get(b, self._inv(word[i]))
            if existing is not None and existing != f:
                self._coincide(existing, f)
            else:
                self._set(f, word[i], b)
            return True
        # gap longer than one letter: define the next coset on the path
        c = self._new_coset()
        self._set(self.rep(f), word[i], c)
        return True

    def _run(self):
        while True:
            changed = False
            for w in self.gen_words:
                if w:
                    changed |= self._scan(0, w)
            for c in self._live():
                if self.rep(c) != c:
                    continue
                for rel in self.relators:
                    changed |= self._scan(c, rel)
                    if self.rep(c) != c:
                        break
            if changed:
                continue
            hole = None
            for c in self._live():
                for letter in self.letters:
                    if self._get(c, letter) is None:
                        hole = (c, letter)
                        break
                if hole:
                    break
            if hole is None:
                return
            c, letter = hole
            d = self._new_coset()
            self._set(c, letter, d)

    @property
    def size(self):
        return len(self._live())

    def membership(self, word):
        c = 0
        for letter in word:
            c = self._get(self.rep(c), letter)
            if c is None:
                return False
        return self.rep(c) == 0


def brute_force_members(
    sys: FactorSystem,
    h_gens,
    limit: int | None = None,
    *,
    length_cap: int | None = None,
    state_budget: int = 1_000_000,
    targets=None,
) -> tuple[frozenset[Word], bool]:
    """Products of at most ``limit`` generators/inverses, as normal forms.

    ``length_cap`` prunes products whose normal form grows beyond the cap
    (making the closure finite even without a depth limit), ``targets`` stops
    the search early once every target word has appeared.  Returns the set
    and whether the search ran to completion within the state budget.
    """
    letters = []
    for w in h_gens:
        w = tuple(w)
        if w and w not in letters:
            letters.append(w)
        wi = invert(sys, "G", w)
        if wi and wi not in letters:
            letters.append(wi)
    found = {EMPTY}
    frontier = [EMPTY]
    remaining = set(targets) - found if targets is not None else None
    exhausted = True
    depth = 0
    while frontier and (limit is None or depth < limit):
        if remaining is not None and not remaining:
            break
        nxt = []
        for u in frontier:
            for a in letters:
                v = multiply(sys, "G", u, a)
                if length_cap is not None and len(v) > length_cap:
                    continue
                if v not in found:
                    found.add(v)
                    nxt.append(v)
                    if remaining is not None:
                        remaining.discard(v)
            if len(found) > state_budget:
                exhausted = False
                break
        if not exhausted:
            break
        frontier = nxt
        depth += 1
    return frozenset(found), exhausted


def brute_force_membership(sys: FactorSystem, h_gens, w: Word, limit: int) -> bool:
    """True iff ``w`` equals some product of at most ``limit`` generators."""
    w = tuple(w)
    if w == EMPTY:
        return True
    members, _ = brute_force_members(sys, h_gens, limit, targets={w})
    return w in members


def rank_formula(sys: FactorSystem, graph: CoreGraph) -> int:
    """Sum over components of (size - 1), minus (vertex_count - 1)."""
    total = 0
    for lam in range(sys.num_factors):
        for comp in lambda_components(sys, graph, lam):
            total += len(comp.vertices) - 1
    return total - (graph.vertex_count - 1)


def freeness_search(
    sys: FactorSystem,
    parts: list[tuple[str, list[Word]]],
    max_letters: int,
    budget: int = 200_000,
    seed: int = 0,
    samples: int = 2_000,
) -> tuple[list[Word] | None, bool, int]:
    """Search for an alternating product of nontrivial part elements that
    collapses to the identity.

    Breadth-first over (last part, running product) states with
    deduplication; exhaustive for products of up to ``max_letters`` letters
    when the budget is not hit, otherwise topped up with seeded random
    sampling.  Returns (witness letters or None, exhaustive?, states explored).
    """
    for pid, letters in parts:
        for w in letters:
            if not w:
                return [w], True, 0  # a trivial letter is itself a relation
    letter_sets = []
    for pid, letters in parts:
        unique = []
        for w in letters:
            if w not in unique:
                unique.append(w)
        letter_sets.append((pid, unique))
    start: list[tuple[int, Word, tuple[Word, ...]]] = []
    for i, (_, letters) in enumerate(letter_sets):
        for w in letters:
            start.append((i, w, (w,)))
    seen: set[tuple[int, Word]] = set()
    queue = deque()
    for i, w, hist in start:
        if (i, w) not in seen:
            seen.add((i, w))
            queue.append((i, w, 1, hist))
    exhaustive = True
    while queue:
        i, prod, depth, hist = queue.popleft()
        if prod == EMPTY:
            return list(hist), True, len(seen)
        if depth >= max_letters:
            continue
        for j, (_, letters) in enumerate(letter_sets):
            if j == i:
                continue
            for w in letters:
                nprod = multiply(sys, "G", prod, w)
                if nprod == EMPTY:
                    return list(hist) + [w], True, len(seen)
                if (j, nprod) in seen:
                    continue
                seen.add((j, nprod))
                queue.append((j, nprod, depth + 1, hist + (w,)))
                if len(seen) > budget:
                    exhaustive = False
                    queue.clear()
                    break
            if not exhaustive:
                break
        if not exhaustive:
            break
    if not exhaustive:
        rng = random.Random(seed)
        nonempty = [i for i, (_, letters) in enumerate(letter_sets) if letters]
        if len(nonempty) >= 2:
            for _ in range(samples):
                length = rng.randint(2, max_letters)
                prod = EMPTY
                hist = []
                last = -1
                for _ in range(length):
                    j = rng.choice([k for k in nonempty if k != last])
                    w = rng.choice(letter_sets[j][1])
                    prod = multiply(sys, "G", prod, w)
                    hist.append(w)
                    last = j
                    if prod == EMPTY:
                        return hist, False, len(seen)
    return None, exhaustive, len(seen)


def free_part_letters(sys: FactorSystem, w: Word) -> list[Word]:
    """Letters representing a free-basis part: the element and its square,
    with inverses (exponents past +-2 are left to the sampling stage)."""
    wi = invert(sys, "G", w)
    w2 = multiply(sys, "G", w, w)
    wi2 = invert(sys, "G", w2)
    letters = [w, wi]
    if w2 not in (EMPTY,):
        letters.extend([w2, wi2])
    return letters
