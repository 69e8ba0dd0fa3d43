import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from freedecomp import fingroup
from freedecomp.fingroup import (
    GroupTableError,
    MalformedTable,
    NoIdentity,
    NoPreimage,
    NotAHomomorphism,
    NotAssociative,
    NotInvertible,
    NotSurjective,
    cyclic,
    identity_hom,
    solve_preimage,
    subgroup_closure,
    sym,
    trivial_hom,
    validate_group,
    validate_hom,
)

from conftest import NONASSOC_LOOP, S3, Z2, Z3, Z4, relabel, sign_map, sign_map_s3
from naive_enum import (
    all_pairs_hom,
    cubic_associative,
    entrywise_validate_group,
    frontier_subgroup_closure,
    subgroup_conjugacy_key,
)


def test_validate_z2():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2 and g.inv == (0, 1)


def test_validate_z3():
    g = validate_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert g.order == 3 and g.inv == (0, 2, 1)


def test_not_invertible():
    with pytest.raises(NotInvertible):
        validate_group([[0, 1], [1, 1]])
    # Z4 with its identity at index 3; entry (0, 0) repeats a symbol of row 0.
    table = relabel(cyclic(4).mul, [3, 1, 2, 0])
    table[0][0] = table[0][1]
    with pytest.raises(NotInvertible, match="row 0 is not a permutation"):
        validate_group(table)


def test_no_identity():
    with pytest.raises(NoIdentity):
        validate_group([[0, 0], [0, 0]])


def test_not_associative():
    with pytest.raises(NotAssociative):
        validate_group(NONASSOC_LOOP)


def test_malformed():
    with pytest.raises(MalformedTable):
        validate_group([[0, 1]])
    with pytest.raises(MalformedTable):
        validate_group([[0, 7], [7, 0]])
    with pytest.raises(MalformedTable):
        validate_group([])


def test_identity_reindexed_to_zero():
    # identity sits at index 1; validation must move it to 0
    g = validate_group([[1, 0], [0, 1]])
    assert g.mul[0] == (0, 1) and g.mul[1] == (1, 0)


def test_cyclic_and_sym_constructors():
    assert cyclic(4).mul[1][3] == 0
    s3 = sym(3)
    assert s3.order == 6
    assert s3.mul[0] == (0, 1, 2, 3, 4, 5)
    with pytest.raises(MalformedTable):
        sym(6)
    with pytest.raises(MalformedTable):
        cyclic(0)


def test_group_laws_exhaustive():
    for g in (Z2, Z3, Z4, S3, sym(4)):
        for x in range(g.order):
            assert g.mul[x][g.inv[x]] == 0
            assert g.mul[0][x] == x == g.mul[x][0]


def test_closure_empty_and_cyclic():
    assert subgroup_closure(Z3, set()) == {0}
    assert subgroup_closure(Z3, {1}) == {0, 1, 2}


def test_closure_s3_transposition():
    # lexicographic S3: element 1 is the transposition (0)(1 2)
    closed = subgroup_closure(S3, {1})
    assert closed == {0, 1}


@given(gens=st.sets(st.integers(min_value=0, max_value=5), max_size=4))
def test_closure_idempotent_and_monotone(gens):
    closed = subgroup_closure(S3, gens)
    assert subgroup_closure(S3, closed) == closed
    bigger = subgroup_closure(S3, set(gens) | {3})
    assert closed <= bigger


def test_closure_matches_frontier_oracle():
    # the breadth-first right-multiplication closure gives the subgroup the
    # products-and-inverses frontier loop gives, on random generator sets
    rnd = random.Random(5)
    for group in (S3, sym(4), sym(5), cyclic(12), cyclic(60)):
        for _ in range(60):
            gens = {rnd.randrange(group.order) for _ in range(rnd.randint(0, 3))}
            assert subgroup_closure(group, gens) == frontier_subgroup_closure(group, gens)
    with pytest.raises(MalformedTable, match="generator 6 out of range"):
        subgroup_closure(S3, {1, 6})


def test_solve_preimage_examples():
    assert solve_preimage(identity_hom(Z2), 1) == 1
    assert solve_preimage(trivial_hom(Z3, cyclic(1)), 0) == 0
    mod2 = validate_hom(Z4, Z2, [0, 1, 0, 1])
    assert solve_preimage(mod2, 1) == 1


def test_solve_preimage_roundtrip():
    mod2 = validate_hom(Z4, Z2, [0, 1, 0, 1])
    for g in range(Z4.order):
        assert mod2.map[solve_preimage(mod2, mod2.map[g])] == mod2.map[g]


def test_no_preimage():
    # bypass validation to build a non-surjective map
    from freedecomp.fingroup import GroupHom

    hom = GroupHom(source=cyclic(1), target=Z2, map=(0,))
    with pytest.raises(NoPreimage):
        solve_preimage(hom, 1)


def test_hom_validation():
    assert validate_hom(S3, Z2, sign_map_s3()).map[1] == 1
    with pytest.raises(NotAHomomorphism):
        validate_hom(Z4, Z2, [0, 1, 1, 0])
    with pytest.raises(NotSurjective):
        validate_hom(Z4, Z2, [0, 0, 0, 0])
    with pytest.raises(NotAHomomorphism):
        validate_hom(Z4, Z2, [1, 0, 1, 0])


def test_conjugacy_key():
    # all transpositions of S3 are conjugate; rotations are not transpositions
    keys = {subgroup_conjugacy_key(S3, {t}) for t in (1, 2, 5)}
    assert len(keys) == 1
    assert subgroup_conjugacy_key(S3, {3, 4}) != keys.pop()


def _assert_associativity_agrees(table) -> bool:
    """validate_group raises NotAssociative exactly when the cubic oracle
    finds a failing triple, and the triple it names fails in ``table``;
    otherwise it returns ``table`` re-indexed by the swap of 0 and the
    identity.  ``table`` must be a Latin square with an identity.  Returns
    whether the table is a group."""
    n = len(table)
    try:
        g = validate_group(table)
    except NotAssociative as exc:
        assert cubic_associative(table) is not None
        x, a, y = map(int, re.fullmatch(r"\((\d+)\*(\d+)\)\*(\d+) != .*", str(exc)).groups())
        assert table[table[x][a]][y] != table[x][table[a][y]]
        return False
    assert cubic_associative(table) is None
    e = next(e for e in range(n) if table[e] == list(range(n)))
    swap = list(range(n))
    swap[0], swap[e] = e, 0
    assert g.mul == tuple(map(tuple, relabel(table, swap)))
    assert all(g.mul[x][g.inv[x]] == 0 for x in range(n))
    return True


def _tables(groups):
    return [[list(row) for row in g.mul] for g in groups]


def test_associativity_agrees_with_cubic_oracle_on_known_groups(corpus):
    corpus_groups = {g.mul: g for inst in corpus for g in inst.system.factors_g + inst.system.factors_b}
    named = [sym(n) for n in range(1, 6)] + [cyclic(n) for n in range(1, 41)]
    for table in _tables(list(corpus_groups.values()) + named):
        assert _assert_associativity_agrees(table)


@settings(max_examples=60, deadline=None)
@given(perm=st.permutations(range(24)))
def test_associativity_agrees_on_relabelled_s4(perm):
    assert _assert_associativity_agrees(relabel(sym(4).mul, perm))


@settings(max_examples=4, deadline=None)
@given(perm=st.permutations(range(120)).filter(lambda p: p[0] != 0))
def test_associativity_agrees_on_relabelled_s5(perm):
    assert _assert_associativity_agrees(relabel(sym(5).mul, perm))


def _random_reduced_latin_square(rnd: random.Random, n: int) -> list[list[int]]:
    # Fill cell by cell in row order, trying the free symbols in random order.
    sq = [[j if i == 0 else i if j == 0 else -1 for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(sq[i][:j]) | {sq[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rnd.shuffle(options)
        for v in options:
            sq[i][j] = v
            if fill(k + 1):
                return True
        sq[i][j] = -1
        return False

    assert fill(0)
    return sq


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=5, max_value=8), rnd=st.randoms(use_true_random=False), data=st.data())
def test_associativity_agrees_on_random_loops(n, rnd, data):
    loop = _random_reduced_latin_square(rnd, n)
    perm = data.draw(st.permutations(range(n)))
    _assert_associativity_agrees(relabel(loop, perm))


def _intercalates(table):
    n = len(table)
    return [
        (x, x2, y, y2)
        for x in range(1, n)
        for x2 in range(x + 1, n)
        for y in range(1, n)
        for y2 in range(y + 1, n)
        if table[x][y] == table[x2][y2] and table[x][y2] == table[x2][y]
    ]


@settings(max_examples=100, deadline=None)
@given(group=st.sampled_from([cyclic(4), cyclic(6), cyclic(8), sym(3), sym(4)]), data=st.data())
def test_one_switched_intercalate_is_caught(group, data):
    # Swapping one 2x2 subsquare of a group table away from the identity
    # leaves a loop that is associative almost everywhere (or, for the one
    # such subsquare of Z4, the Klein four-group).
    table = _tables([group])[0]
    x, x2, y, y2 = data.draw(st.sampled_from(_intercalates(table)))
    table[x][y], table[x][y2] = table[x][y2], table[x][y]
    table[x2][y], table[x2][y2] = table[x2][y2], table[x2][y]
    perm = data.draw(st.permutations(range(group.order)))
    _assert_associativity_agrees(relabel(table, perm))


def _outcome(validate, table):
    """The group ``validate`` returns, or the class and message it raises."""
    try:
        return validate(table, name="T")
    except GroupTableError as exc:
        return type(exc), str(exc)


def _assert_matches_entrywise_oracle(table) -> None:
    assert _outcome(validate_group, table) == _outcome(entrywise_validate_group, table)


class _Int(int):
    """An int subclass: accepted as an entry, unlike bool."""


_VALID_TABLES = st.one_of(
    st.sampled_from([cyclic(n) for n in range(1, 41)] + [sym(n) for n in range(1, 6)]).map(
        lambda g: _tables([g])[0]
    ),
    st.permutations(range(24)).filter(lambda p: p[0] != 0).map(lambda p: relabel(sym(4).mul, p)),
    st.permutations(range(120)).filter(lambda p: p[0] != 0).map(lambda p: relabel(sym(5).mul, p)),
)


@settings(max_examples=300, deadline=None)
@given(
    table=_VALID_TABLES,
    corruption=st.sampled_from(["none", "entry", "short", "long", "repeat", "column"]),
    data=st.data(),
)
def test_whole_row_checks_match_the_entrywise_oracle(table, corruption, data):
    # One corruption at a time: the whole-row passes return the same group
    # as the entry-by-entry loops, or raise the same class and message.
    n = len(table)
    x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if corruption in ("repeat", "column"):
        if n == 1:
            return
        y2 = data.draw(st.integers(0, n - 1).filter(lambda v: v != y))
    if corruption == "entry":
        table[x][y] = data.draw(st.sampled_from([True, 1.0, "1", None, -1, n, _Int(table[x][y])]))
    elif corruption == "short":
        table[x].pop()
    elif corruption == "long":
        table[x].append(table[x][y])
    elif corruption == "repeat":
        table[x][y] = table[x][y2]
    elif corruption == "column":  # row x stays a permutation; columns y and y2 do not
        table[x][y], table[x][y2] = table[x][y2], table[x][y]
    _assert_matches_entrywise_oracle(table)


@settings(max_examples=100, deadline=None)
@given(group=st.sampled_from([cyclic(4), cyclic(6), cyclic(8), sym(3), sym(4)]), data=st.data())
def test_whole_row_checks_match_the_entrywise_oracle_on_loops(group, data):
    # the non-associative loop and switched intercalates, relabelled
    if data.draw(st.booleans()):
        table = [list(row) for row in NONASSOC_LOOP]
    else:
        table = _tables([group])[0]
        x, x2, y, y2 = data.draw(st.sampled_from(_intercalates(table)))
        table[x][y], table[x][y2] = table[x][y2], table[x][y]
        table[x2][y], table[x2][y2] = table[x2][y2], table[x2][y]
    perm = data.draw(st.permutations(range(len(table))))
    _assert_matches_entrywise_oracle(relabel(table, perm))


def test_bad_column_of_permutation_rows_is_named_like_the_oracle():
    # every row a permutation, columns 1 and 3 not: Light's test fails and
    # the column pass names the first bad column, in the input's labels
    # (relabelled, the bad columns are 0 and 1, and the identity 3 trades
    # places with 0, so column 1 is checked first)
    table = _tables([cyclic(5)])[0]
    table[2][1], table[2][3] = table[2][3], table[2][1]
    for t in (table, relabel(table, [3, 0, 4, 1, 2])):
        _assert_matches_entrywise_oracle(t)
        with pytest.raises(NotInvertible, match=r"^column 1 is not a permutation$"):
            validate_group(t)


def test_valid_tables_skip_the_column_pass(monkeypatch):
    # a monoid whose rows are permutations is a group, so once Light's test
    # passes no column needs checking
    def column_pass(rows, label):
        raise AssertionError("column pass ran on a valid table")

    monkeypatch.setattr(fingroup, "_check_permutations", column_pass)
    perm = list(range(120))
    random.Random(21).shuffle(perm)
    for table in (relabel(sym(5).mul, perm), fingroup._cyclic_table(400)):
        g = validate_group(table)
        assert all(g.mul[x][g.inv[x]] == 0 for x in range(g.order))


def test_rotated_cyclic_table_is_the_sum_table():
    for n in range(1, 65):
        sums = [[(i + j) % n for j in range(n)] for i in range(n)]
        assert fingroup._cyclic_table(n) == sums
        assert cyclic(n).mul == tuple(map(tuple, sums))


def _assert_law_agrees(source, target, m) -> None:
    """validate_hom accepts m exactly when the all-pairs oracle does, and a
    pair it names breaks the law."""
    law_holds = m[0] == 0 and all_pairs_hom(source, target, m) is None
    try:
        hom = validate_hom(source, target, m)
    except NotSurjective:
        assert law_holds and set(m) != set(range(target.order))
    except NotAHomomorphism as exc:
        assert not law_holds
        named = re.fullmatch(r"map\((\d+)\*(\d+)\) != .*", str(exc))
        assert named or m[0] != 0
        if named:
            x, a = map(int, named.groups())
            assert m[source.mul[x][a]] != target.mul[m[x]][m[a]]
    else:
        assert law_holds and hom.map == tuple(m)


def test_law_agrees_with_all_pairs_oracle_on_known_maps(corpus):
    for inst in corpus:
        for hom in inst.system.theta:
            _assert_law_agrees(hom.source, hom.target, list(hom.map))
    for n in (3, 4, 5):
        _assert_law_agrees(sym(n), Z2, sign_map(n))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), m=st.integers(min_value=1, max_value=12), data=st.data())
def test_law_agrees_on_maps_between_cyclic_groups(n, m, data):
    if data.draw(st.booleans()):
        c = data.draw(st.sampled_from([c for c in range(m) if n * c % m == 0]))
        image = [x * c % m for x in range(n)]
        if n > 1 and data.draw(st.booleans()):
            image[data.draw(st.integers(min_value=1, max_value=n - 1))] = data.draw(st.integers(0, m - 1))
    else:
        image = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    _assert_law_agrees(cyclic(n), cyclic(m), image)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 5]), data=st.data())
def test_law_agrees_on_maps_from_symmetric_groups_to_z2(n, data):
    source = sym(n)
    if data.draw(st.booleans()):
        image = sign_map(n)
        flips = data.draw(st.sets(st.integers(min_value=1, max_value=source.order - 1), max_size=2))
        for x in flips:
            image[x] ^= 1
    else:
        image = data.draw(st.lists(st.integers(0, 1), min_size=source.order, max_size=source.order))
    _assert_law_agrees(source, Z2, image)
