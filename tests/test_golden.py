"""Byte-identity gate for the exact rational certificates.

The digests below pin the canonical JSON (sorted keys) of a fixed set of
rational certify_word certificates and sweep summaries, of the 256-harmonic
Fourier-smoothed lifts of Theta_2 and Theta_3 that the analytic action is
built from, of the relation residual records at the criterion-1 points and
at piece-boundary rationals, and of the Britton normal forms, rewrite traces
and word-problem verdicts of a seeded set of words.  A change to the map or
certification layers that is meant to leave the exact arithmetic alone must
leave the digests unchanged; a deliberate change of the certificate format or
of the rational results must update them and say so.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from lineactions.action import build_action, certify_word, sweep_certify
from lineactions.maps import build_theta, fourier_smooth
from lineactions.words import BSWord, enumerate_reduced, is_trivial, reduce

PAIRS = [(1, 2), (2, 3), (2, 5), (3, 4)]

CERTIFICATES_SHA256 = "aee7203ce83f12d8c9f583ca761f3264b554133239ddd0e0b29f60dd54523d38"
SWEEPS_SHA256 = "bade3aa2a95d01952f37e20982615fe1eb47257d4a1573741236ecc6d9520647"
RESIDUALS_SHA256 = "cfb26ade75df19ff293c2f2b09459fe218e1aa3a6f5dbe06b147bd307b2a514e"
REDUCTIONS_SHA256 = "fc67bca33031bf1a776fb6a4202e5ded888b6738bb043bbffac35aed928eef00"
SMOOTHED_SHA256 = {
    2: "f323c9902866c51edffad09f19367d2cf2a4f1ac2e4d2d493d4dc9915f4a242f",
    3: "e5f0940c77fe058c0e4bed7f2d2d241ba1c859b820b16f3d5bda7d9fc1a09e28",
}


@pytest.fixture(scope="module")
def actions():
    return {(m, n): build_action(m, n) for m, n in PAIRS}


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_rational_certificates_are_byte_identical(actions):
    records = [certify_word(actions[(m, n)], nf, F(3, 4)).to_json()
               for m, n in PAIRS
               for nf in list(enumerate_reduced(m, n, 2, 2))[::8]]
    assert _digest(records) == CERTIFICATES_SHA256


def test_rational_sweeps_are_byte_identical(actions):
    records = [sweep_certify(actions[pair], 2, 2, F(7, 10)).to_json() for pair in PAIRS]
    assert _digest(records) == SWEEPS_SHA256


def test_relation_residual_records_are_byte_identical(actions):
    # the criterion-1 points and k/d on [-2, 3) for five d, which include
    # every piece join of the lifts (all multiples of 1/20)
    points = [F(3 * i, 999) for i in range(1000)] + [
        F(k, d) for d in (20, 40, 60, 80, 120) for k in range(-2 * d, 3 * d)]
    records = [actions[pair].relation_residual_exact(points) for pair in PAIRS]
    assert _digest(records) == RESIDUALS_SHA256


@pytest.mark.parametrize("j", sorted(SMOOTHED_SHA256))
def test_smoothed_lifts_are_byte_identical(j):
    # the samples of the rational Theta_j fix the coefficients bit for bit
    assert _digest(fourier_smooth(build_theta(j), j, 256).to_spec()) == SMOOTHED_SHA256[j]


def _seeded_words():
    """150 words per pair: random syllables with a-powers that are often
    multiples of m or n, a third of them followed by their own inverse."""
    rng = random.Random(8)
    for m, n in PAIRS:
        for _ in range(150):
            toks = [('t', rng.choice((1, -1))) if rng.random() < 0.5
                    else ('a', rng.choice((1, m, n)) * rng.randint(-3, 3))
                    for _ in range(rng.randint(0, 24))]
            w = BSWord(m, n, tuple(toks))
            yield w * w.inverse() if rng.random() < 0.3 else w


def test_reductions_are_byte_identical():
    records = []
    for w in _seeded_words():
        nf, steps = reduce(w, trace=True)
        records.append([str(w), str(nf), steps, is_trivial(w)])
    assert _digest(records) == REDUCTIONS_SHA256
