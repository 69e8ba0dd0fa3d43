import pytest
from hypothesis import given, strategies as st

from freedecomp.fingroup import (
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
    subgroup_conjugacy_key,
    sym,
    trivial_hom,
    validate_group,
    validate_hom,
)

from conftest import S3, Z2, Z3, Z4, sign_map_s3

NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_validate_z2():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2 and g.inv == (0, 1)


def test_validate_z3():
    g = validate_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert g.order == 3 and g.inv == (0, 2, 1)


def test_not_invertible():
    with pytest.raises(NotInvertible):
        validate_group([[0, 1], [1, 1]])


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
