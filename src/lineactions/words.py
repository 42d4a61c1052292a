"""Symbolic engine for the groups BS(m, n) = <t, a | t a^m t^-1 = a^n>.

Words are syllable sequences over the stable letter t (exponent +-1 per
syllable) and the base letter a (arbitrary integer exponents).  Britton
reduction rewrites pinches t a^{mk} t^-1 -> a^{nk} and t^-1 a^{nk} t ->
a^{mk} until none remain; a nonempty pinch-free word is nontrivial, which
solves the word problem.

Written order is algebraic order: the leftmost syllable acts last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import PreconditionError

Syllable = tuple[str, int]  # ('t', +-1) or ('a', nonzero int)


def _push_a(out: list[Syllable], exp: int) -> None:
    """Append a^exp to a merged syllable list, merging it into a trailing a-power."""
    if out and out[-1][0] == 'a':
        exp += out.pop()[1]
    if exp != 0:
        out.append(('a', exp))


def _merge(tokens: Sequence[Syllable]) -> tuple[Syllable, ...]:
    out: list[Syllable] = []
    for kind, exp in tokens:
        if kind == 'a':
            _push_a(out, exp)
        elif kind == 't':
            if exp not in (1, -1):
                raise PreconditionError(f"t-syllables carry exponent +-1, got {exp}")
            out.append(('t', exp))
        else:
            raise PreconditionError(f"unknown letter {kind!r}")
    return tuple(out)


def _pinch_between(left_exp: int, r: int, right_exp: int, m: int, n: int) -> bool:
    """Whether t^left_exp a^r t^right_exp is a pinch of BS(m, n)."""
    if left_exp == 1 and right_exp == -1:
        return r % m == 0
    if left_exp == -1 and right_exp == 1:
        return r % n == 0
    return False


@dataclass(frozen=True)
class BSWord:
    """A word in BS(m, n); syllables are stored merged but not Britton-reduced."""

    m: int
    n: int
    syllables: tuple[Syllable, ...]

    def __post_init__(self):
        if not (1 <= self.m and 1 <= self.n):
            raise PreconditionError(f"need m, n >= 1, got ({self.m}, {self.n})")
        object.__setattr__(self, "syllables", _merge(self.syllables))

    # -- construction -----------------------------------------------------
    @staticmethod
    def parse(m: int, n: int, text: str) -> "BSWord":
        """Parse whitespace-separated tokens: t, t^-1, t^K, a, a^-1, a^K."""
        tokens: list[Syllable] = []
        for tok in text.split():
            match = re.fullmatch(r"([ta])(?:\^(-?\d+))?", tok)
            if not match:
                raise PreconditionError(f"bad token {tok!r}")
            letter, exp_s = match.groups()
            exp = int(exp_s) if exp_s is not None else 1
            if letter == 't':
                sign = 1 if exp > 0 else -1
                tokens.extend([('t', sign)] * abs(exp))
            else:
                tokens.append(('a', exp))
        return BSWord(m, n, tuple(tokens))

    @staticmethod
    def identity(m: int, n: int) -> "BSWord":
        return BSWord(m, n, ())

    # -- word algebra ------------------------------------------------------
    def __mul__(self, other: "BSWord") -> "BSWord":
        self._match(other)
        return BSWord(self.m, self.n, self.syllables + other.syllables)

    def inverse(self) -> "BSWord":
        return BSWord(self.m, self.n,
                      tuple((k, -e) for k, e in reversed(self.syllables)))

    def _match(self, other: "BSWord"):
        if (self.m, self.n) != (other.m, other.n):
            raise PreconditionError(
                f"parameter mismatch: BS({self.m},{self.n}) vs BS({other.m},{other.n})")

    # -- inspection ---------------------------------------------------------
    @property
    def t_count(self) -> int:
        return sum(1 for k, _ in self.syllables if k == 't')

    @property
    def a_total(self) -> int:
        return sum(e for k, e in self.syllables if k == 'a')

    def max_a_exponent(self) -> int:
        return max((abs(e) for k, e in self.syllables if k == 'a'), default=0)

    def is_pinch_free(self) -> bool:
        # merged syllables put at most one a-power between consecutive t's
        syl = self.syllables
        ts = [i for i, (kind, _) in enumerate(syl) if kind == 't']
        return not any(_pinch_between(syl[i][1], syl[i + 1][1] if j > i + 1 else 0,
                                      syl[j][1], self.m, self.n)
                       for i, j in zip(ts, ts[1:]))

    def __str__(self):
        if not self.syllables:
            return "1"
        parts = []
        for kind, exp in self.syllables:
            if exp == 1:
                parts.append(kind)
            else:
                parts.append(f"{kind}^{exp}")
        return " ".join(parts)


@dataclass(frozen=True)
class NormalForm:
    """A Britton-reduced (pinch-free) word."""

    word: BSWord

    def __post_init__(self):
        if not self.word.is_pinch_free():
            raise PreconditionError("NormalForm requires a pinch-free word")

    def __str__(self):
        return str(self.word)


_RULES = {1: "t a^{mk} t^-1 -> a^{nk}", -1: "t^-1 a^{nk} t -> a^{mk}"}


def reduce(w: BSWord, trace: bool = False):
    """Britton-reduce w; returns NormalForm, or (NormalForm, steps) with trace.

    One left-to-right pass over a stack that holds the reduced, merged prefix.
    The prefix is pinch-free, so a pinch closed by an arriving t-syllable is
    the leftmost pinch of the current word: the steps are those of rewriting
    leftmost first, and ``position`` is the index of the pinch's left t.  Each
    step removes two t-syllables; the result represents the same element.
    """
    m, n, syl = w.m, w.n, w.syllables
    stack: list[Syllable] = []
    steps = []
    for j, (kind, exp) in enumerate(syl):
        if kind == 'a':
            _push_a(stack, exp)
            continue
        r = stack[-1][1] if stack and stack[-1][0] == 'a' else 0
        i = len(stack) - (2 if r else 1)   # the t below the arriving one
        if i < 0 or not _pinch_between(stack[i][1], r, exp, m, n):
            stack.append((kind, exp))
            continue
        left = stack[i][1]
        if trace:
            before = str(BSWord(m, n, tuple(stack) + syl[j:]))
        del stack[i:]
        _push_a(stack, n * (r // m) if left == 1 else m * (r // n))
        if trace:
            steps.append({"position": i, "rule": _RULES[left], "before": before,
                          "after": str(BSWord(m, n, tuple(stack) + syl[j + 1:]))})
    nf = NormalForm(BSWord(m, n, tuple(stack)))
    return (nf, steps) if trace else nf


def is_trivial(w: BSWord) -> bool:
    """Word-problem decision: trivial iff the Britton reduction is empty."""
    return not reduce(w).word.syllables


def equal(w1: BSWord, w2: BSWord) -> bool:
    w1._match(w2)
    return is_trivial(w1 * w2.inverse())


# ---------------------------------------------------------------------------
# obstruction words


def obstruction_commutator(m: int, n: int, p: int, q: int):
    """The commutator [t^q a^p t^-q, a^p] with its nontriviality certificate.

    Requires p not divisible by m and not divisible by n; otherwise the word
    would contain a pinch and the construction says nothing.
    """
    if q < 1:
        raise PreconditionError(f"need q >= 1, got {q}")
    bad = []
    if p % m == 0:
        bad.append(f"{p} is divisible by m={m}")
    if p % n == 0:
        bad.append(f"{p} is divisible by n={n}")
    if bad:
        raise PreconditionError("hypothesis failure: " + " and ".join(bad))
    tokens: list[Syllable] = []
    tokens += [('t', 1)] * q
    tokens.append(('a', -p))
    tokens += [('t', -1)] * q
    tokens.append(('a', -p))
    tokens += [('t', 1)] * q
    tokens.append(('a', p))
    tokens += [('t', -1)] * q
    tokens.append(('a', p))
    word = BSWord(m, n, tuple(tokens))
    nf, steps = reduce(word, trace=True)
    cert = {
        "word": str(word),
        "pinch_free": word.is_pinch_free(),
        "t_syllables": word.t_count,
        "rewrite_steps": steps,
        "nontrivial": not is_trivial(word),
    }
    return word, cert


def interval_case_commutator(m: int, n: int) -> BSWord:
    """[t a t^-1, a] = t a^-1 t^-1 a^-1 t a t^-1 a, the expansion of c^-1 a^-1 c a
    with c = t a t^-1; pinch-free, hence nontrivial, whenever m >= 2."""
    return BSWord.parse(m, n, "t a^-1 t^-1 a^-1 t a t^-1 a")


# ---------------------------------------------------------------------------
# enumeration of pinch-free words


def _token_rank(tok: Syllable) -> int:
    kind, exp = tok
    if kind == 't':
        return 0 if exp == 1 else 1
    return 2 + 2 * (abs(exp) - 1) + (0 if exp > 0 else 1)


def enumerate_reduced(m: int, n: int, max_syllables: int,
                      exponent_bound: int) -> Iterator[NormalForm]:
    """Yield every nonempty pinch-free word with at most ``max_syllables``
    t-syllables and all |a-exponents| <= exponent_bound, exactly once.

    Order is length-lexicographic: total syllable count first, then the token
    ranking t < t^-1 < a < a^-1 < a^2 < a^-2 < ...
    """
    if max_syllables < 0 or exponent_bound < 1:
        raise PreconditionError("bounds must be >= 1 (max_syllables may be 0)")

    a_exps = sorted((e for e in range(-exponent_bound, exponent_bound + 1) if e != 0),
                    key=lambda e: _token_rank(('a', e)))
    t_exps = (1, -1)

    def extensions(prefix: list[Syllable], t_used: int):
        toks: list[Syllable] = []
        last = prefix[-1] if prefix else None
        if t_used < max_syllables:
            for e in t_exps:
                if (last and last[0] == 't'
                        and _pinch_between(last[1], 0, e, m, n)):
                    continue
                if (len(prefix) >= 2 and prefix[-1][0] == 'a'
                        and prefix[-2][0] == 't'
                        and _pinch_between(prefix[-2][1], prefix[-1][1], e, m, n)):
                    continue
                toks.append(('t', e))
        if last is None or last[0] == 't':
            toks.extend(('a', e) for e in a_exps)
        return sorted(toks, key=_token_rank)

    def dfs(prefix: list[Syllable], t_used: int, remaining: int):
        if remaining == 0:
            yield NormalForm(BSWord(m, n, tuple(prefix)))
            return
        for tok in extensions(prefix, t_used):
            prefix.append(tok)
            yield from dfs(prefix, t_used + (tok[0] == 't'), remaining - 1)
            prefix.pop()

    max_len = 2 * max_syllables + 1
    for length in range(1, max_len + 1):
        yield from dfs([], 0, length)


def bs1n_affine(n: int, w: BSWord) -> tuple[Fraction, Fraction]:
    """Image (slope, offset) of w under the faithful affine model of BS(1, n):
    t acts as x -> n x and a as x -> x + 1."""
    if w.m != 1 or w.n != n:
        raise PreconditionError(f"affine model is for BS(1,{n}), word lives in BS({w.m},{w.n})")
    slope, offset = Fraction(1), Fraction(0)
    for kind, exp in w.syllables:
        if kind == 't':
            s = Fraction(n) if exp == 1 else Fraction(1, n)
            o = Fraction(0)
        else:
            s, o = Fraction(1), Fraction(exp)
        slope, offset = slope * s, slope * o + offset
    return slope, offset


def count_pinch_free(m: int, n: int, max_syllables: int, exponent_bound: int) -> dict[int, int]:
    """Independent count of pinch-free words per t-syllable count (transfer matrix).

    Words with k t-syllables correspond bijectively to exponent tuples
    (r_k, ..., r_0) in [-b, b]^{k+1} with the interior pinch exclusions.
    """
    b = exponent_bound
    full = 2 * b + 1
    cnt_plus_minus = 2 * b - 2 * (b // m)   # between t ... t^-1: r not in mZ
    cnt_minus_plus = 2 * b - 2 * (b // n)   # between t^-1 ... t: r not in nZ
    counts = {0: 2 * b}
    if max_syllables == 0:
        return counts
    # vec[e] = weighted count of sign strings e_k ... e_i read left to right
    for k in range(1, max_syllables + 1):
        vec = {1: 1, -1: 1}
        for _ in range(k - 1):
            nxt = {}
            nxt[1] = vec[1] * full + vec[-1] * cnt_minus_plus
            nxt[-1] = vec[1] * cnt_plus_minus + vec[-1] * full
            # transfer reads pairs (left=e_{i+1}, right=e_i); vec indexes the left sign
            vec = {1: nxt[1], -1: nxt[-1]}
        counts[k] = (vec[1] + vec[-1]) * full * full
    return counts
