"""Fast tests of the benchmark's own checkers and input generation.

Each checker must accept a correct output and reject a corrupted one.
"""

from fractions import Fraction

import pytest

import checks
import workloads
from checks import CheckFailure

A = workloads.A
X0 = Fraction(3, 4)


def test_word_counts_by_hand_and_corrupted():
    assert checks.count_words(1, 2, 0, 3) == 6
    assert checks.count_words(1, 2, 1, 1) == 18
    # (+,+) and (-,-) allow r in {-1, 0, 1}; (+,-) pinches for every r when
    # m = 1; (-,+) allows the odd r only: (3 + 3 + 0 + 2) * 3 * 3
    assert checks.count_words(1, 2, 2, 1) == 72
    counts = {k: checks.count_words(2, 3, k, 2) for k in range(3)}
    checks.check_sweep(2, 3, 2, 2, counts, 0, sum(counts.values()))
    wrong = {**counts, 2: counts[2] - 1}
    with pytest.raises(CheckFailure, match="counts"):
        checks.check_sweep(2, 3, 2, 2, wrong, 0, sum(counts.values()))
    with pytest.raises(CheckFailure, match="inconclusive"):
        checks.check_sweep(2, 3, 2, 2, counts, 1, sum(counts.values()))


def test_triviality_answers_against_the_affine_model():
    x = [('t', 1), ('a', 1), ('t', -1)]
    y = [('a', 2)]
    commutator = workloads.inverse(x) + workloads.inverse(y) + x + y
    assert checks.affine_image(2, commutator) == (1, 0)
    assert checks.affine_image(2, [('t', 1), ('a', 1), ('t', -1), ('a', -2)]) == (1, 0)
    assert checks.affine_image(3, [('t', 1), ('a', 1)]) != (1, 0)
    checks.check_answer("triviality", True, True)
    with pytest.raises(CheckFailure, match="expected True"):
        checks.check_answer("triviality", False, checks.affine_image(2, commutator) == (1, 0))


def test_pinch_detection():
    assert checks.pinches(2, 3, [('t', 1), ('a', 4), ('t', -1)]) == 1
    assert checks.pinches(2, 3, [('t', 1), ('a', 3), ('t', -1)]) == 0
    assert checks.pinches(2, 3, [('t', -1), ('a', 3), ('t', 1)]) == 1
    assert checks.pinches(2, 3, [('t', 1), ('t', -1)]) == 1


def test_certificate_window_and_separation():
    checks.check_certificate(2, 3, A, X0, "nontrivial", Fraction(-1, 20), Fraction(-1, 30))
    checks.check_certificate(2, 3, A, X0, "nontrivial", Fraction(3, 1) - Fraction(1, 20),
                             Fraction(3, 1) - Fraction(1, 30))          # A^s + 3
    checks.check_certificate(2, 3, A, X0, "nontrivial", Fraction(9, 20) + 2,
                             Fraction(19, 40) + 2)                      # B^s + 2
    with pytest.raises(CheckFailure, match="outside"):                  # straddles 0
        checks.check_certificate(2, 3, A, X0, "nontrivial", Fraction(-1, 20), Fraction(1, 20))
    with pytest.raises(CheckFailure, match="outside"):                  # A^s + 1, not + 3Z
        checks.check_certificate(2, 3, A, X0, "nontrivial", Fraction(19, 20), Fraction(29, 30))
    with pytest.raises(CheckFailure, match="verdict"):
        checks.check_certificate(2, 3, A, X0, "inconclusive", Fraction(-1, 20), Fraction(-1, 30))


def test_translation_bracket():
    n = 1000
    checks.check_translation(1 / 3 + 1.9 / n, n, Fraction(1, 3))
    with pytest.raises(CheckFailure, match="more than 2/1000"):
        checks.check_translation(1 / 3 + 2.1 / n, n, Fraction(1, 3))
    checks.check_mean_translation(Fraction(1, 3), Fraction(2, 3), Fraction(1),
                                  Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(CheckFailure, match="additive"):
        checks.check_mean_translation(Fraction(1, 3), Fraction(2, 3), Fraction(0),
                                      Fraction(1, 3), Fraction(2, 3))


def test_conjugacy_verdicts():
    good = dict(n=2, tol=1e-8, verdict="converged", residual_g=1e-9, residual_h=1e-12,
                ratios=[0.3, 0.25, 0.5], sup_error=1e-5, sup_tol=1e-4)
    checks.check_conjugacy(**good)
    for field, value, match in (("verdict", "diverged", "verdict"),
                                ("residual_g", 1e-7, "residuals"),
                                ("sup_error", 1e-3, "sup"),
                                ("ratios", [0.3, 0.7], "contraction")):
        with pytest.raises(CheckFailure, match=match):
            checks.check_conjugacy(**dict(good, **{field: value}))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    assert cls(7).next_round() == cls(7).next_round()
    assert cls(7).next_round() != cls(8).next_round()


def test_real_outputs_pass_and_corrupted_ones_fail():
    wl = workloads.Queries(3)
    wl.lib = workloads.import_program()
    for _ in range(3):
        for op in wl.next_round():
            if op[0] in ("random_1n", "equal_1n", "relators", "long", "autfn"):
                answer = wl.run(op)
                wl.check(op, answer)
                with pytest.raises(CheckFailure):
                    wl.check(op, not answer)
