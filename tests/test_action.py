import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lineactions import action
from lineactions.action import (BSAction, PingPongTable, _dyadic_cell, build_action,
                                certify_word, find_g_fixed_point, locate_in_lattice,
                                rotation_obstruction, sweep_certify, verify_inclusions,
                                Window)
from lineactions.errors import PreconditionError
from lineactions.maps import DEFAULT_INVERSE_WIDTH, AffineMap, Enclosure, rat
from lineactions.words import BSWord, count_pinch_free, enumerate_reduced, reduce


@pytest.fixture(scope="module")
def act23():
    act = build_action(2, 3)
    verify_inclusions(act)
    return act


def test_relation_at_sample_point(act23):
    g = act23.g
    lhs = g.eval_float(0.75 + 2)
    rhs = g.eval_float(0.75) + 3
    assert abs(lhs - rhs) < 1e-12


def test_relation_float_residual_all_pairs():
    for m, n in [(1, 2), (2, 3), (2, 5), (3, 4)]:
        act = build_action(m, n)
        assert act.relation_residual(200) <= 1e-12


def test_relation_exact_on_linear_paths(act23):
    pts = [F(k, 37) for k in range(0, 111)]
    records = act23.relation_residual_exact(pts)
    exact = [r for r in records if r["exact_path"]]
    assert exact, "expected at least one all-linear evaluation path"
    assert all(r["residual"] == "0" for r in exact)
    for r in records:
        if not r["exact_path"]:
            assert float(r["residual_bound"]) < 1e-3


def test_relation_exact_through_a_forward_cubic_join(act23):
    # g_m^-1(383/800) lands on an affine piece of Theta_2 and Theta_3 then
    # evaluates its cubic join, exactly on a rational: an exact record
    assert act23.relation_residual_exact([F(383, 800)]) == [
        {"x": "383/800", "exact_path": True, "residual": "0"}]


def test_bs12_action():
    act = build_action(1, 2)
    # h-orbit of 0 is the integers; g conjugates h to h^2
    assert [act.h.eval_float(float(k)) for k in range(3)] == [1.0, 2.0, 3.0]
    assert act.relation_residual(300) <= 1e-12


def test_build_action_guards():
    with pytest.raises(PreconditionError):
        build_action(3, 2)
    with pytest.raises(PreconditionError):
        build_action(2, 2)


def test_verify_inclusions_pairs():
    for m, n in [(1, 2), (2, 3), (2, 5), (3, 4)]:
        table = verify_inclusions(build_action(m, n))
        assert table.verified, (m, n)
        ids = {f["id"] for f in table.facts}
        assert {"eqn1", "eqn2", "eqn3", "eqn4", "eqn5", "eqn6", "eqn7"} <= ids
        assert table.tiling_ok()


def test_verify_inclusions_broken_parameter():
    table = verify_inclusions(build_action(2, 3, a=F(2, 5)))
    assert not table.verified
    assert any(f["verdict"] in ("Outside", "Inconclusive") for f in table.facts)


def test_smoothed_action_passes_at_documented_threshold():
    act = build_action(2, 3, fourier_harmonics=256)
    table = verify_inclusions(act)
    assert table.verified and table.mode == "float"
    assert verify_inclusions(act, mode="float").verified
    with pytest.raises(PreconditionError, match="float, not rational"):
        sweep_certify(act, 1, 1, mode="rational")


def test_mode_keyword_must_name_the_action_arithmetic(act23):
    assert sweep_certify(act23, 1, 1, mode="rational").inconclusive == 0
    with pytest.raises(PreconditionError, match="rational, not float"):
        verify_inclusions(act23, mode="float")
    with pytest.raises(PreconditionError, match="rational, not float"):
        sweep_certify(act23, 1, 1, mode="float")


def test_locate_in_lattice_never_rounds_to_inside():
    win = Window(F(0), F(1, 10), "A^u")
    verdict, s = locate_in_lattice(Enclosure(F(1, 20), F(1, 20)), win, 1)
    assert verdict == "Inside" and s == 0
    straddle = Enclosure(F(1, 10) - F(1, 10**14), F(1, 10) + F(1, 10**14))
    verdict, _ = locate_in_lattice(straddle, win, 1)
    assert verdict == "Inconclusive"
    verdict, _ = locate_in_lattice(Enclosure(F(2, 10), F(3, 10)), win, 1)
    assert verdict == "Outside"


def test_certify_base_cases(act23):
    cert = certify_word(act23, BSWord.parse(2, 3, "t"))
    assert cert.verdict == "nontrivial" and cert.final_tag == "A^s + nZ"
    cert = certify_word(act23, BSWord.parse(2, 3, "t^-1"))
    assert cert.verdict == "nontrivial" and cert.final_tag == "B^s + mZ"


def test_certify_chained_word(act23):
    cert = certify_word(act23, BSWord.parse(2, 3, "t a t^-1 a"))
    assert cert.verdict == "nontrivial"
    tags = [s["tag"] for s in cert.steps if "half" in s]
    assert tags == ["A^u + Z", "B^s + mZ", "B^u + Z", "A^s + nZ"]


def test_certify_preconditions(act23):
    with pytest.raises(PreconditionError, match="pinch-free"):
        certify_word(act23, BSWord.parse(2, 3, "t a^2 t^-1"))
    with pytest.raises(PreconditionError, match="x0"):
        certify_word(act23, BSWord.parse(2, 3, "t"), x0=F(1, 2))
    with pytest.raises(PreconditionError, match="empty"):
        certify_word(act23, BSWord.identity(2, 3))
    with pytest.raises(PreconditionError, match="lives in"):
        certify_word(act23, BSWord.parse(2, 5, "t"))


def test_certify_pure_powers(act23):
    cert = certify_word(act23, BSWord.parse(2, 3, "a^-3"))
    assert cert.verdict == "nontrivial"
    assert cert.final_enclosure.lo == F(3, 4) - 3


def test_certificates_chain_and_separate(act23):
    sep = None
    for text in ("t a t^-1 a", "t^-1 a^2 t a^-1", "a^2 t^2 a^-1 t^-1 a"):
        w = reduce(BSWord.parse(2, 3, text))
        cert = certify_word(act23, w)
        assert cert.verdict == "nontrivial"
        sep = cert.separation
        assert sep == F(3, 20)
        # the final point really is displaced by at least the separation
        final = cert.final_enclosure
        assert final.hi < F(3, 4) - sep or final.lo > F(3, 4) + sep


def test_certify_steps_replay(act23):
    """Each stored enclosure equals an independent recomputation."""
    from lineactions.maps import invert
    w = reduce(BSWord.parse(2, 3, "t a^2 t a^-1 t^-1"))
    cert = certify_word(act23, w)
    gm_inv, gn = invert(act23.g_m), act23.g_n
    gn_inv, gm = invert(act23.g_n), act23.g_m
    enc = Enclosure.point(F(3, 4))
    replay = []
    conj = BSWord.parse(2, 3, cert.conjugated_word)
    for kind, exp in reversed(conj.syllables):
        if kind == 'a':
            enc = enc.shift(exp)
            replay.append(enc)
        elif exp == 1:
            enc = gm_inv.eval_enclosure(enc)
            replay.append(enc)
            enc = gn.eval_enclosure(enc)
            replay.append(enc)
        else:
            enc = gn_inv.eval_enclosure(enc)
            replay.append(enc)
            enc = gm.eval_enclosure(enc)
            replay.append(enc)
    recorded = [s["enclosure"] for s in cert.steps]
    assert len(recorded) == len(replay)
    for rec, enc in zip(recorded, replay):
        assert rec["lo"] == (f"{enc.lo.numerator}/{enc.lo.denominator}"
                             if enc.lo.denominator != 1 else str(enc.lo.numerator))


def test_sweep_matches_per_word(act23):
    summary = sweep_certify(act23, 2, 2)
    per_word = {}
    for nf in enumerate_reduced(2, 3, 2, 2):
        cert = certify_word(act23, nf)
        assert cert.verdict == "nontrivial"
        if nf.word.t_count >= 1:
            assert cert.final_tag in ("A^s + nZ", "B^s + mZ")
        per_word[nf.word.t_count] = per_word.get(nf.word.t_count, 0) + 1
    assert per_word == summary.counts_by_syllables
    assert summary.inconclusive == 0
    assert summary.counts_match()


def test_sweep_counts_other_parameters():
    act = build_action(2, 5)
    summary = sweep_certify(act, 3, 2)
    assert summary.counts_by_syllables == count_pinch_free(2, 5, 3, 2)
    assert summary.inconclusive == 0


@given(lo=st.fractions(F(-3, 20), F(1, 20), max_denominator=10**9),
       width=st.fractions(0, F(1, 50), max_denominator=10**9),
       bits=st.integers(0, 16), as_float=st.booleans())
@example(lo=F(-1, 10), width=F(0), bits=3, as_float=False)
@example(lo=F(-1, 10), width=F(1, 20), bits=10, as_float=True)
def test_dyadic_cell_rounds_out_to_the_grid_inside_the_window(lo, width, bits, as_float):
    window = PingPongTable.windows_for(F(1, 10))["A^s"]
    enc = Enclosure(lo, lo + width)
    if as_float:
        enc = Enclosure(float(enc.lo), float(enc.hi))
    cell = _dyadic_cell(enc, window, bits)
    assert type(cell.lo) is type(enc.lo) and type(cell.hi) is type(enc.hi)
    assert cell.lo <= enc.lo and enc.hi <= cell.hi
    grid = (F(math.floor(F(enc.lo) * 2**bits), 2**bits),
            F(math.ceil(F(enc.hi) * 2**bits), 2**bits))
    if window.lo <= grid[0] and grid[1] <= window.hi:
        assert (F(cell.lo), F(cell.hi)) == grid
    else:
        assert cell == enc


def test_sweep_refuses_an_action_whose_table_does_not_verify():
    # affine "lifts" keep the x0 window of a = 1/10 but break the inclusions
    act = BSAction.from_lifts(2, 3, F(1, 10), AffineMap(3, 0), AffineMap(2, 0))
    with pytest.raises(PreconditionError, match="does not verify"):
        sweep_certify(act, 1, 1)
    assert act.table is not None and not act.table.verified


@pytest.mark.parametrize("m, n, harmonics, cell_bits", [
    (1, 2, None, 10), (2, 3, None, 10), (3, 4, None, 11), (2, 5, None, 11), (2, 3, 256, 11)])
def test_sweep_widths_follow_the_least_slack(m, n, harmonics, cell_bits, monkeypatch):
    act = build_action(m, n, fourier_harmonics=harmonics)
    table = verify_inclusions(act)
    assert table.least_slack == min(F(f["slack"]) for f in table.facts if f["slack"])
    widths = []
    step = action._pingpong_step

    def spy(act, windows, enc, sign, inverse_width=DEFAULT_INVERSE_WIDTH):
        widths.append(inverse_width)
        return step(act, windows, enc, sign, inverse_width)

    monkeypatch.setattr(action, "_pingpong_step", spy)
    summary = sweep_certify(act, 2, 2)
    assert summary.cell_width == F(1, 2**cell_bits)
    assert summary.cell_width <= table.least_slack / 4 < 2 * summary.cell_width
    assert set(widths) == {summary.cell_width / 16} and max(widths) < table.least_slack
    widths.clear()
    certify_word(act, BSWord.parse(m, n, "t^-1 a t"))
    assert set(widths) == {DEFAULT_INVERSE_WIDTH}


@pytest.mark.parametrize("m, n, depth, bound", [(2, 3, 12, 4), (3, 4, 8, 6)])
def test_sweep_deep_boxes(m, n, depth, bound):
    summary = sweep_certify(build_action(m, n), depth, bound)
    assert summary.counts_match() and summary.inconclusive == 0


def test_sweep_agrees_with_random_big_box_words(act23):
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randint(1, 6)
        signs = [rng.choice((1, -1)) for _ in range(k)]
        toks = []
        toks.append(('a', rng.randint(-4, 4)))
        for i in range(k):
            toks.append(('t', signs[i]))
            if i < k - 1:
                left, right = signs[i + 1], signs[i]
                choices = [r for r in range(-4, 5)
                           if not (left == 1 and right == -1 and r % 2 == 0)
                           and not (left == -1 and right == 1 and r % 3 == 0)]
                toks.append(('a', rng.choice(choices)))
        toks.append(('a', rng.randint(-4, 4)))
        word = BSWord(2, 3, tuple(reversed(toks)))
        assert word.is_pinch_free()
        cert = certify_word(act23, word)
        assert cert.verdict == "nontrivial"
        assert cert.final_tag in ("A^s + nZ", "B^s + mZ")


def test_rotation_obstruction_values():
    assert rotation_obstruction(1, 2)["admissible"] == [F(0)]
    assert rotation_obstruction(2, 5)["admissible"] == [F(0), F(1, 3), F(2, 3)]
    for m in range(1, 6):
        assert rotation_obstruction(m, m + 1)["admissible"] == [F(0)]
    with pytest.raises(PreconditionError, match="degenerate"):
        rotation_obstruction(3, 3)


def test_find_g_fixed_point_standard():
    res = find_g_fixed_point(AffineMap(2, 0), 1)
    assert res["fixed_point"] == 0.0 and res["width"] == 0.0


def test_find_g_fixed_point_constructed(act23):
    res = find_g_fixed_point(act23.g, act23.m)
    assert res["width"] <= 1e-9
    assert res["residual"] <= 1e-9


@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (2, 5), (3, 4)])
def test_find_g_fixed_point_to_adjacent_floats(m, n):
    res = find_g_fixed_point(build_action(m, n).g, m)
    lo, hi = res["bracket"]
    assert res["residual"] <= 1e-12
    assert res["k_bracket"] == (0, 1) and 0 < lo < hi < m
    assert res["width"] == hi - lo and lo <= res["fixed_point"] <= hi


def test_find_g_fixed_point_error_path():
    with pytest.raises(PreconditionError, match="no sign change"):
        find_g_fixed_point(AffineMap(1, 1), 1, search_bound=20)


def test_table_serialization_roundtrip(act23):
    data = act23.table.to_json()
    assert data["verified"] is True
    assert data["windows"]["A^s"]["lo"] == "-1/10"
    assert len([f for f in data["facts"] if f["id"] == "eqn4"]) == 1
