import pytest
from hypothesis import given, strategies as st

from freedecomp.freeprod import (
    EMPTY,
    FactorSystem,
    conjugate,
    format_word,
    invert,
    is_normal_form,
    make_system,
    multiply,
    normalize,
    parse_word,
    theta_word,
)

from conftest import S3, TRIV, Z2, Z3, Z4


def w(sys, text):
    return parse_word(sys, "G", text)


@pytest.fixture(scope="module")
def z2z3():
    return make_system([Z2, Z3], [Z2, Z3], [[0, 1], [0, 1, 2]])


@pytest.fixture(scope="module")
def z2z2():
    return make_system([Z2, Z2], [Z2, Z2], [[0, 1], [0, 1]])


def test_multiply_identity(z2z3):
    word = w(z2z3, "0:1 1:2")
    assert multiply(z2z3, "G", EMPTY, word) == word
    assert multiply(z2z3, "G", word, EMPTY) == word


def test_multiply_aba_aba_cancels(z2z2):
    aba = w(z2z2, "0:1 1:1 0:1")
    assert multiply(z2z2, "G", aba, aba) == EMPTY


def test_multiply_seam_cascade(z2z3):
    assert multiply(z2z3, "G", w(z2z3, "0:1 1:1"), w(z2z3, "1:2 0:1")) == EMPTY


def test_invert(z2z3, z2z2):
    assert invert(z2z3, "G", EMPTY) == EMPTY
    assert invert(z2z3, "G", w(z2z3, "0:1 1:1")) == w(z2z3, "1:2 0:1")
    assert invert(z2z2, "G", w(z2z2, "0:1")) == w(z2z2, "0:1")


def test_conjugate(z2z2, z2z3):
    word = w(z2z2, "0:1 1:1")
    assert conjugate(z2z2, word, EMPTY) == word
    assert conjugate(z2z2, w(z2z2, "0:1"), w(z2z2, "1:1")) == w(z2z2, "1:1 0:1 1:1")
    assert conjugate(z2z3, w(z2z3, "1:1"), w(z2z3, "1:1")) == w(z2z3, "1:1")


def test_theta_identity_maps(z2z3):
    word = w(z2z3, "1:2 0:1 1:1")
    assert theta_word(z2z3, word) == word


@pytest.fixture(scope="module")
def sys_a_local():
    return make_system([Z2, Z2], [Z2, TRIV], [[0, 1], [0, 0]])


def test_theta_collapse(sys_a_local):
    assert theta_word(sys_a_local, w(sys_a_local, "1:1 0:1 1:1")) == ((0, 1),)
    assert theta_word(sys_a_local, w(sys_a_local, "0:1 1:1 0:1")) == EMPTY


def test_parse_and_format(z2z3):
    assert parse_word(z2z3, "G", "") == EMPTY
    assert parse_word(z2z3, "G", "0:1 0:1") == EMPTY  # constructor normalizes
    assert parse_word(z2z3, "G", "1:1 1:1") == ((1, 2),)
    assert format_word(w(z2z3, "0:1 1:2")) == "0:1 1:2"
    with pytest.raises(ValueError):
        parse_word(z2z3, "G", "0:9")
    with pytest.raises(ValueError):
        parse_word(z2z3, "G", "nonsense")


def _reference_parse(sys, side, text):
    """``parse_word`` as it was before its token memo: every token goes
    through ``int`` and ``normalize`` checks every syllable."""
    text = text.strip()
    if not text:
        return EMPTY
    syllables = []
    for token in text.split():
        parts = token.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad word token {token!r}, expected 'factor:element'")
        try:
            syllables.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"bad word token {token!r}: {exc}") from exc
    return normalize(sys, side, syllables)


def _outcome(parse, sys, side, text):
    try:
        return parse(sys, side, text)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_parse_word_spellings_and_errors():
    sys = make_system([Z4, Z3], [Z2, Z3], [[0, 1, 0, 1], [0, 1, 2]])
    for _ in range(2):  # the second round reads what the first memoised
        for text in ("+0:1", "00:1", "0:01", "0:\u0661", " 0:1 ", "0:1", "0:0 1:2", "+1:+2 1:1"):
            assert parse_word(sys, "G", text) == _reference_parse(sys, "G", text)
        assert parse_word(sys, "G", "+0:1") == parse_word(sys, "G", "00:1") == ((0, 1),)
        # messages as before, raised on every parse, the first bad token in
        # word order after every token has been read
        for text, message in (
            ("0:9", "element 9 out of range for factor 0"),
            ("2:1", "factor index 2 out of range"),
            ("-1:1", "factor index -1 out of range"),
            ("0:1 nonsense", "bad word token 'nonsense', expected 'factor:element'"),
            ("0:x", "bad word token '0:x': invalid literal for int() with base 10: 'x'"),
            ("0:9 1:1 zz", "bad word token 'zz', expected 'factor:element'"),
            ("0:1 1:3 0:4", "element 3 out of range for factor 1"),
        ):
            with pytest.raises(ValueError) as info:
                parse_word(sys, "G", text)
            assert str(info.value) == message, text
    # only the plain spelling of a checked token is kept
    assert set(sys._token_memo["G"]) <= {f"{lam}:{e}" for lam, g in enumerate(sys.factors_g) for e in range(g.order)}
    assert "+0:1" not in sys._token_memo["G"] and "0:\u0661" not in sys._token_memo["G"]
    assert "0:1" in sys._token_memo["G"]


def test_parse_word_memo_is_kept_per_side():
    # 0:3 is an element of G_0 = Z4 but not of B_0 = Z2
    sys = make_system([Z4], [Z2], [[0, 1, 0, 1]])
    assert parse_word(sys, "G", "0:3") == ((0, 3),)
    for _ in range(2):
        with pytest.raises(ValueError, match="element 3 out of range for factor 0"):
            parse_word(sys, "B", "0:3")
    assert parse_word(sys, "G", "0:3 0:3") == ((0, 2),)
    assert parse_word(sys, "B", "0:1") == ((0, 1),)


@given(data=st.data())
def test_parse_word_matches_reference(data):
    # random spellings, junk and out-of-range tokens, parsed twice so the
    # second parse reads the memo: same words and same errors as before
    sys = data.draw(st.sampled_from(SYSTEMS))
    side = data.draw(st.sampled_from(["G", "B"]))
    number = st.sampled_from(["0", "1", "2", "3", "5", "6", "00", "01", "+1", "-1", "x", ""])
    token = st.one_of(st.builds(lambda a, b: f"{a}:{b}", number, number), st.sampled_from(["1", "0:1:1", ":"]))
    text = " ".join(data.draw(st.lists(token, max_size=6)))
    expected = _outcome(_reference_parse, sys, side, text)
    assert _outcome(parse_word, sys, side, text) == expected
    assert _outcome(parse_word, sys, side, text) == expected


def test_system_validation():
    with pytest.raises(ValueError):
        make_system([Z2], [Z2, Z3], [[0, 1]])
    with pytest.raises(ValueError):
        FactorSystem(factors_g=(), factors_b=(), theta=())


SYSTEMS = [
    make_system([Z2, Z3], [Z2, Z3], [[0, 1], [0, 1, 2]]),
    make_system([Z2, Z2], [Z2, TRIV], [[0, 1], [0, 0]]),
    make_system([Z4, S3], [Z2, S3], [[0, 1, 0, 1], list(range(6))]),
]


@st.composite
def system_and_words(draw, n_words):
    sys = draw(st.sampled_from(SYSTEMS))
    words = []
    for _ in range(n_words):
        raw = draw(
            st.lists(
                st.tuples(st.integers(0, 1), st.integers(0, 5)),
                max_size=8,
            )
        )
        raw = [(lam, e % sys.factors_g[lam].order) for lam, e in raw]
        words.append(normalize(sys, "G", raw))
    return sys, words


@given(sw=system_and_words(3))
def test_multiply_associative(sw):
    sys, (u, v, x) = sw
    lhs = multiply(sys, "G", multiply(sys, "G", u, v), x)
    rhs = multiply(sys, "G", u, multiply(sys, "G", v, x))
    assert lhs == rhs


@given(sw=system_and_words(1))
def test_invert_involution_and_inverse_law(sw):
    sys, (u,) = sw
    assert invert(sys, "G", invert(sys, "G", u)) == u
    assert multiply(sys, "G", u, invert(sys, "G", u)) == EMPTY


@given(sw=system_and_words(2))
def test_results_in_normal_form_and_length_bound(sw):
    sys, (u, v) = sw
    prod = multiply(sys, "G", u, v)
    assert is_normal_form(sys, "G", prod)
    assert len(prod) <= len(u) + len(v)


@given(sw=system_and_words(2))
def test_theta_is_homomorphism(sw):
    sys, (u, v) = sw
    lhs = theta_word(sys, multiply(sys, "G", u, v))
    rhs = multiply(sys, "B", theta_word(sys, u), theta_word(sys, v))
    assert lhs == rhs
