"""Normal-form word arithmetic in free products of finite groups.

A word is a tuple of syllables ``(factor, element)`` with nonidentity
elements and no two consecutive syllables in the same factor; the empty
tuple is the identity.  All operations return normal forms, so word
equality is plain tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fingroup import FiniteGroup, GroupHom, identity_hom, validate_hom

Syllable = tuple[int, int]
Word = tuple[Syllable, ...]

EMPTY: Word = ()


@dataclass(frozen=True)
class FactorSystem:
    """The two free products G and B over a shared factor index set, plus the
    factor-wise maps G_i -> B_i (each surjective)."""

    factors_g: tuple[FiniteGroup, ...]
    factors_b: tuple[FiniteGroup, ...]
    theta: tuple[GroupHom, ...]
    _token_memo: dict[str, dict[str, Syllable]] = field(
        default_factory=lambda: {"G": {}, "B": {}}, init=False, repr=False, compare=False
    )
    """Per side, the word tokens ``parse_word`` has checked, in their plain
    spelling ``lam:e``, with their syllables: at most one entry per factor
    element, filled as tokens are first seen."""

    def __post_init__(self) -> None:
        k = len(self.factors_g)
        if k < 1:
            raise ValueError("need at least one factor")
        if len(self.factors_b) != k or len(self.theta) != k:
            raise ValueError("factors_G, factors_B and theta must have equal length")
        for i, hom in enumerate(self.theta):
            if hom.source is not self.factors_g[i] or hom.target is not self.factors_b[i]:
                raise ValueError(f"theta[{i}] does not map factor {i} of G onto factor {i} of B")

    @property
    def num_factors(self) -> int:
        return len(self.factors_g)

    def groups(self, side: str) -> tuple[FiniteGroup, ...]:
        if side == "G":
            return self.factors_g
        if side == "B":
            return self.factors_b
        raise ValueError(f"side must be 'G' or 'B', got {side!r}")

    def b_identity_system(self) -> "FactorSystem":
        """B viewed as its own free product, with identity factor maps.

        Lets the graph machinery run on the B side unchanged.
        """
        return FactorSystem(
            factors_g=self.factors_b,
            factors_b=self.factors_b,
            theta=tuple(identity_hom(b) for b in self.factors_b),
        )

    def description(self) -> dict:
        """Canonical JSON-able description (used for hashing)."""
        return {
            "factors_G": [{"name": g.name, "table": [list(r) for r in g.mul]} for g in self.factors_g],
            "factors_B": [{"name": b.name, "table": [list(r) for r in b.mul]} for b in self.factors_b],
            "theta": [list(h.map) for h in self.theta],
        }


def make_system(factors_g, factors_b, theta_maps) -> FactorSystem:
    """Assemble a validated system from groups and raw theta value tables."""
    fg = tuple(factors_g)
    fb = tuple(factors_b)
    if len(fg) != len(fb) or len(fg) != len(theta_maps):
        raise ValueError("factors_G, factors_B and theta must have equal length")
    homs = tuple(validate_hom(fg[i], fb[i], theta_maps[i]) for i in range(len(fg)))
    return FactorSystem(factors_g=fg, factors_b=fb, theta=homs)


def _push(groups: tuple[FiniteGroup, ...], out: list[Syllable], syl: Syllable) -> None:
    lam, e = syl
    if e == 0:
        return
    if out and out[-1][0] == lam:
        merged = groups[lam].mul[out[-1][1]][e]
        if merged == 0:
            out.pop()
        else:
            out[-1] = (lam, merged)
    else:
        out.append((lam, e))


def normalize(sys: FactorSystem, side: str, syllables) -> Word:
    """Reduce an arbitrary syllable sequence to normal form."""
    groups = sys.groups(side)
    out: list[Syllable] = []
    for lam, e in syllables:
        _check_syllable(groups, lam, e)
        _push(groups, out, (lam, e))
    return tuple(out)


def _check_syllable(groups: tuple[FiniteGroup, ...], lam: int, e: int) -> None:
    if not 0 <= lam < len(groups):
        raise ValueError(f"factor index {lam} out of range")
    if not 0 <= e < groups[lam].order:
        raise ValueError(f"element {e} out of range for factor {lam}")


def multiply(sys: FactorSystem, side: str, u: Word, v: Word) -> Word:
    groups = sys.groups(side)
    out = list(u)
    for syl in v:
        _push(groups, out, syl)
    return tuple(out)


def invert(sys: FactorSystem, side: str, w: Word) -> Word:
    groups = sys.groups(side)
    return tuple((lam, groups[lam].inv[e]) for lam, e in reversed(w))


def conjugate(sys: FactorSystem, w: Word, x: Word) -> Word:
    """x^-1 w x over G."""
    return multiply(sys, "G", multiply(sys, "G", invert(sys, "G", x), w), x)


def theta_word(sys: FactorSystem, w: Word) -> Word:
    """Apply the factor-wise map syllable by syllable and re-reduce over B."""
    groups_b = sys.factors_b
    out: list[Syllable] = []
    for lam, e in w:
        _push(groups_b, out, (lam, sys.theta[lam].map[e]))
    return tuple(out)


def syllable_word(lam: int, e: int) -> Word:
    """Single-syllable word, or the identity when e = 0."""
    return ((lam, e),) if e != 0 else EMPTY


def is_normal_form(sys: FactorSystem, side: str, w: Word) -> bool:
    groups = sys.groups(side)
    prev = -1
    for lam, e in w:
        if not 0 <= lam < len(groups) or not 1 <= e < groups[lam].order:
            return False
        if lam == prev:
            return False
        prev = lam
    return True


def parse_word(sys: FactorSystem, side: str, text: str) -> Word:
    """Parse the ``lam:elem`` token syntax; the empty string is the identity.

    A token checked before in its plain spelling on this side of this
    system is read from the system's token memo; any other token is parsed
    and checked, and remembered when it is plainly spelled.  A bad token
    raises on every parse, and the first out-of-range syllable raises only
    after every token has been parsed, as ``normalize`` would.
    """
    tokens = text.split()
    if not tokens:
        return EMPTY
    groups = sys.groups(side)
    memo = sys._token_memo[side]
    out: list[Syllable] = []
    bad = None
    for token in tokens:
        syl = memo.get(token)
        if syl is None:
            parts = token.split(":")
            if len(parts) != 2:
                raise ValueError(f"bad word token {token!r}, expected 'factor:element'")
            try:
                syl = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"bad word token {token!r}: {exc}") from exc
            lam, e = syl
            if not (0 <= lam < len(groups) and 0 <= e < groups[lam].order):
                bad = bad or syl
                continue
            # "a:b" with one ASCII character each side is plain once int() took it
            if len(token) == 3 and token.isascii() or token == "%d:%d" % syl:
                memo[token] = syl
        if bad is None:
            _push(groups, out, syl)
    if bad is not None:
        _check_syllable(groups, *bad)
    return tuple(out)


def format_word(w: Word) -> str:
    return " ".join(f"{lam}:{e}" for lam, e in w)
