"""Independent checkers for the benchmark's outputs.

Nothing here imports lineactions: every expected value comes from the
benchmark's own models (a word count by explicit enumeration of exponent
gaps, the affine model of BS(1, n), the ping-pong windows written out from
their definition) or from a property the method must have.  Each checker
raises CheckFailure with a message naming what was wrong.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

TAU_SLACK = 1e-12          # float rounding allowed on top of the 2/N bracket


class CheckFailure(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# words: syllables are (letter, exponent) pairs in written order


def pinches(m: int, n: int, syllables) -> int:
    """Number of subwords t a^{mk} t^-1 or t^-1 a^{nk} t (k may be 0)."""
    found = 0
    for i, (kind, exp) in enumerate(syllables):
        if kind != 't':
            continue
        j, r = i + 1, 0
        if j < len(syllables) and syllables[j][0] == 'a':
            r, j = syllables[j][1], j + 1
        if j < len(syllables) and syllables[j] == ('t', -exp):
            if r % (m if exp == 1 else n) == 0:
                found += 1
    return found


def t_count(syllables) -> int:
    return sum(1 for kind, _ in syllables if kind == 't')


def count_words(m: int, n: int, t_syllables: int, bound: int) -> int:
    """Pinch-free words with exactly this many t-syllables and every
    a-exponent in [-bound, bound], counted gap by gap over all sign strings."""
    if t_syllables == 0:
        return 2 * bound                       # a^r, r != 0
    exps = range(-bound, bound + 1)
    total = 0
    for signs in itertools.product((1, -1), repeat=t_syllables):
        ways = len(exps) ** 2                  # the two outer a-powers
        for left, right in zip(signs, signs[1:]):
            modulus = m if (left, right) == (1, -1) else n if (left, right) == (-1, 1) else None
            ways *= sum(1 for r in exps if modulus is None or r % modulus != 0)
        total += ways
    return total


def check_sweep(m: int, n: int, depth: int, bound: int, counts: dict,
                inconclusive: int, nontrivial: int) -> None:
    expected = {k: count_words(m, n, k, bound) for k in range(depth + 1)}
    require(inconclusive == 0, f"BS({m},{n}) box {depth}/{bound}: {inconclusive} inconclusive")
    require(dict(counts) == expected,
            f"BS({m},{n}) box {depth}/{bound}: counts {dict(counts)} != {expected}")
    require(nontrivial == sum(expected.values()),
            f"BS({m},{n}) box {depth}/{bound}: {nontrivial} certified of {sum(expected.values())}")


def affine_image(n: int, syllables) -> tuple[Fraction, Fraction]:
    """(slope, offset) of the word in the faithful affine model of BS(1, n):
    t is x -> n x, a is x -> x + 1, and the leftmost syllable acts last."""
    slope, offset = Fraction(1), Fraction(0)
    for kind, exp in syllables:
        if kind == 't':
            slope *= Fraction(n) ** exp
        else:
            offset += slope * exp
    return slope, offset


def check_answer(kind: str, got: bool, expected: bool) -> None:
    require(got is expected, f"{kind}: answered {got}, expected {expected}")


# ---------------------------------------------------------------------------
# ping-pong certificates


def in_lattice_window(lo, hi, w_lo, w_hi, modulus: int) -> bool:
    k = math.floor((Fraction(lo) - w_lo) / modulus)
    return w_lo + k * modulus <= lo and hi <= w_hi + k * modulus


def check_certificate(m: int, n: int, a: Fraction, x0: Fraction, verdict: str,
                      lo, hi) -> None:
    """A nontrivial verdict whose final enclosure lies in (A^s + nZ) u
    (B^s + mZ), with A^s = [-a, 0] and B^s = A^s + 1/2, and misses x0."""
    require(verdict == "nontrivial", f"certificate verdict {verdict}")
    half = Fraction(1, 2)
    inside = (in_lattice_window(lo, hi, -a, Fraction(0), n)
              or in_lattice_window(lo, hi, half - a, half, m))
    require(inside, f"final enclosure [{float(lo)}, {float(hi)}] outside (A^s+{n}Z) u (B^s+{m}Z)")
    require(hi < x0 or lo > x0, f"final enclosure [{float(lo)}, {float(hi)}] contains x0 = {x0}")


# ---------------------------------------------------------------------------
# dynamics


def check_translation(estimate: float, iterates: int, tau: Fraction) -> None:
    require(abs(estimate - float(tau)) <= 2.0 / iterates + TAU_SLACK,
            f"translation estimate {estimate!r} is more than 2/{iterates} from {tau}")


def check_mean_translation(tau_f: Fraction, tau_g: Fraction, tau_fg: Fraction,
                           expected_f: Fraction, expected_g: Fraction) -> None:
    require(tau_f == expected_f and tau_g == expected_g,
            f"tau_mu {tau_f}, {tau_g} != {expected_f}, {expected_g}")
    require(tau_fg == tau_f + tau_g, f"tau_mu not additive: {tau_fg} != {tau_f} + {tau_g}")


def check_conjugacy(n: int, tol: float, verdict: str, residual_g: float,
                    residual_h: float, ratios, sup_error: float,
                    sup_tol: float) -> None:
    """Converged within tol, close to the known conjugator, contracting at
    about 1/n per iteration."""
    require(verdict == "converged", f"conjugacy verdict {verdict}")
    require(residual_g <= tol and residual_h <= tol,
            f"conjugacy residuals {residual_g:.3g}, {residual_h:.3g} exceed {tol:.3g}")
    require(sup_error <= sup_tol, f"sup |phi - psi| = {sup_error:.3g} exceeds {sup_tol:.3g}")
    tail = list(ratios[1:])
    require(bool(tail) and all(0 < r <= 1 / n + 0.05 for r in tail),
            f"contraction ratios {tail} not within (0, 1/{n} + 0.05]")


def check_classification(got: str, expected: str) -> None:
    require(got == expected, f"classified {got}, expected {expected}")
