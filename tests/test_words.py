import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineactions.errors import PreconditionError
from lineactions.words import (BSWord, NormalForm, bs1n_affine,
                               count_pinch_free, enumerate_reduced, equal,
                               interval_case_commutator, is_trivial,
                               obstruction_commutator, reduce)


def w23(text):
    return BSWord.parse(2, 3, text)


# random BS(2,3) words as token lists
tokens = st.lists(
    st.one_of(st.tuples(st.just('t'), st.sampled_from((1, -1))),
              st.tuples(st.just('a'), st.integers(-6, 6))),
    max_size=14)


def test_defining_relation_rewrites():
    nf, steps = reduce(w23("t a^2 t^-1"), trace=True)
    assert str(nf) == "a^3"
    assert len(steps) == 1 and steps[0]["rule"].startswith("t a^{mk}")


def test_zero_power_is_identity():
    assert is_trivial(w23("a^0"))
    assert str(reduce(w23("a^0"))) == "1"


def test_commutator_is_already_reduced():
    w = w23("t a^-1 t^-1 a^-1 t a t^-1 a")
    assert w.is_pinch_free()
    assert str(reduce(w)) == str(w)
    assert not is_trivial(w)
    assert str(interval_case_commutator(2, 3)) == str(w)


def test_is_trivial_examples():
    assert is_trivial(BSWord.identity(2, 3))
    assert not is_trivial(w23("t a t^-1 a^-1"))
    for k in range(1, 6):
        assert is_trivial(w23(f"t a^{2 * k} t^-1 a^{-3 * k}"))


def test_equal_examples():
    w = w23("t a t^-1 a")
    assert equal(w, w)
    assert equal(w23("t a^2 t^-1"), w23("a^3"))
    assert not equal(w23("a"), w23("t"))
    with pytest.raises(PreconditionError, match="mismatch"):
        equal(w23("a"), BSWord.parse(2, 5, "a"))


@given(tokens)
@settings(max_examples=120, deadline=None)
def test_reduce_idempotent_and_t_monotone(toks):
    w = BSWord(2, 3, tuple(toks))
    nf = reduce(w)
    assert reduce(nf.word).word.syllables == nf.word.syllables
    assert nf.word.t_count <= w.t_count
    if not w.is_pinch_free():
        assert nf.word.t_count < w.t_count


@given(tokens)
@settings(max_examples=100, deadline=None)
def test_reduction_is_sound_in_the_affine_model(toks):
    w = BSWord(1, 2, tuple(toks))
    assert bs1n_affine(2, w) == bs1n_affine(2, reduce(w).word)


def test_normal_form_guard():
    with pytest.raises(PreconditionError):
        NormalForm(w23("t a^2 t^-1"))


def test_obstruction_commutator():
    word, cert = obstruction_commutator(2, 3, 5, 1)
    assert word.t_count == 4
    assert cert["pinch_free"] and cert["nontrivial"]
    assert cert["rewrite_steps"] == []
    word2, cert2 = obstruction_commutator(2, 3, 5, 2)
    assert word2.t_count == 8 and cert2["nontrivial"]


def test_obstruction_divisibility_errors():
    with pytest.raises(PreconditionError, match="divisible by m=2 and .* divisible by n=3"):
        obstruction_commutator(2, 3, 6, 1)
    with pytest.raises(PreconditionError, match="divisible by m=2"):
        obstruction_commutator(2, 4, 2, 1)


def test_enumerate_zero_syllables():
    words = [str(nf) for nf in enumerate_reduced(2, 3, 0, 3)]
    assert words == ["a", "a^-1", "a^2", "a^-2", "a^3", "a^-3"]


def test_enumerate_matches_bruteforce_filter():
    # brute force: all syllable tuples with <= 2 t-syllables, exponents <= 2
    def all_words():
        alphabet = [('t', 1), ('t', -1)] + [('a', e) for e in (-2, -1, 1, 2)]
        for length in range(1, 6):
            for combo in itertools.product(alphabet, repeat=length):
                w = BSWord(2, 3, combo)
                if (len(w.syllables) == length and w.t_count <= 2
                        and w.max_a_exponent() <= 2 and w.is_pinch_free()):
                    yield w.syllables

    brute = set(all_words())
    enumerated = [nf.word.syllables for nf in enumerate_reduced(2, 3, 2, 2)]
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == brute


def test_enumerate_counts_match_transfer_matrix():
    for (m, n, k, b) in [(2, 3, 2, 2), (2, 3, 3, 1), (1, 2, 2, 2), (2, 5, 2, 3)]:
        got = {}
        for nf in enumerate_reduced(m, n, k, b):
            got[nf.word.t_count] = got.get(nf.word.t_count, 0) + 1
        assert got == count_pinch_free(m, n, k, b)


def test_enumerate_outputs_are_nontrivial_and_ordered():
    out = list(enumerate_reduced(2, 3, 1, 1))
    assert all(not is_trivial(nf.word) for nf in out)
    lengths = [len(nf.word.syllables) for nf in out]
    assert lengths == sorted(lengths)
    assert [str(w) for w in out[:4]] == ["t", "t^-1", "a", "a^-1"]


def test_exhaustive_affine_oracle_small_radius():
    # every <= 5-letter string: triviality agrees with the affine model
    letters = [('t', 1), ('t', -1), ('a', 1), ('a', -1)]
    seen = set()
    for length in range(6):
        for combo in itertools.product(letters, repeat=length):
            w = BSWord(1, 2, combo)
            if w.syllables in seen:
                continue
            seen.add(w.syllables)
            assert is_trivial(w) == (bs1n_affine(2, w) == (1, 0)), str(w)


def test_pairwise_equal_agrees_with_affine_small_radius():
    letters = [('t', 1), ('t', -1), ('a', 1), ('a', -1)]
    words = []
    seen = set()
    for length in range(4):
        for combo in itertools.product(letters, repeat=length):
            w = BSWord(1, 2, combo)
            if w.syllables not in seen:
                seen.add(w.syllables)
                words.append(w)
    rng = random.Random(5)
    for w1, w2 in rng.sample(list(itertools.combinations(words, 2)), 800):
        assert equal(w1, w2) == (bs1n_affine(2, w1) == bs1n_affine(2, w2))


def test_word_parsing_grammar():
    w = BSWord.parse(2, 3, "t^2 a^-3 t^-1 a")
    assert w.syllables == (('t', 1), ('t', 1), ('a', -3), ('t', -1), ('a', 1))
    with pytest.raises(PreconditionError):
        BSWord.parse(2, 3, "b^2")
    assert str(BSWord.parse(2, 3, "a^2 a^-2")) == "1"


def test_long_relator_product_reduces_in_linear_time():
    # ~20,000 letters of conjugated BS(1,2) relators g (t a^k t^-1 a^-2k) g^-1;
    # rescanning from the left after every pinch took seconds here
    rng = random.Random(5)
    toks = []
    while sum(abs(e) for _, e in toks) < 20000:
        k = rng.randint(1, 5)
        g = [rng.choice([('t', 1), ('t', -1), ('a', 1), ('a', -1)])
             for _ in range(rng.randint(2, 10))]
        toks += g + [('t', 1), ('a', k), ('t', -1), ('a', -2 * k)]
        toks += [(kind, -e) for kind, e in reversed(g)]
    w = BSWord(1, 2, tuple(toks))
    t0 = time.perf_counter()
    assert is_trivial(w)
    assert time.perf_counter() - t0 < 1.0
