import math
import random
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineactions.errors import ConstructionError, PreconditionError
from lineactions.maps import (DEFAULT_INVERSE_WIDTH, FLOAT_INVERSE_WIDTH, AffineMap,
                              Enclosure, HermitePiece, TranslateConjugate, TrigPolyLift,
                              build_theta, compose, decimal_down, decimal_up,
                              fixed_points, fourier_smooth, from_grid, from_knots,
                              from_spec, identity, invert, iterate, relation_residual,
                              sine_lift)
from lineactions.pieces import _image

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=997)
floats = st.floats(min_value=-2, max_value=2)


def test_theta_endpoint_values():
    th3 = build_theta(3)
    assert th3.eval_exact(0).lo == 0
    assert th3.eval_exact(1).lo == 3


def test_theta_extension_rule():
    th2 = build_theta(2)
    assert th2.eval_float(0.2) + 2 == th2.eval_float(1.2)
    x = F(17, 64)
    assert th2.eval_exact(x + 1).lo - th2.eval_exact(x).lo == 2


def test_theta_contracts_As_into_itself():
    # linear piece: image of A^s = [-1/10, 0] is [-1/200, 0]
    th2 = build_theta(2)
    img = th2.eval_enclosure(Enclosure(F(-1, 10), F(0)))
    assert img.lo == F(-1, 200) and img.hi == 0


def test_invert_identity_and_affine():
    assert invert(identity()).eval_float(0.37) == 0.37
    inv = invert(AffineMap(2, 1))
    assert inv.eval_exact(3).lo == 1


def test_roundtrip_enclosures():
    th3 = build_theta(3)
    rt = compose(th3, invert(th3))
    x = F(37, 100)
    enc = rt.eval_enclosure(Enclosure.point(x))
    assert enc.contains(x)
    assert float(enc.width) < 1e-25
    assert abs(rt.eval_float(0.37) - 0.37) < 1e-12


def test_roundtrip_random_rationals():
    th2 = build_theta(2)
    rt = compose(invert(th2), th2)
    rng = random.Random(7)
    exact_seen = 0
    for _ in range(100):
        x = F(rng.randint(-2000, 2000), 1000)
        enc = rt.eval_enclosure(Enclosure.point(x))
        assert enc.contains(x)
        if enc.exact:
            assert enc.lo == x
            exact_seen += 1
        else:
            assert float(enc.width) < 1e-12
    assert exact_seen > 0


@given(x=rationals)
@settings(max_examples=60, deadline=None)
def test_theta_equivariance_exact(x):
    th = build_theta(2)
    assert th.eval_exact_point(x + 1) - th.eval_exact_point(x) == 2


@given(x=rationals, y=rationals)
@settings(max_examples=60, deadline=None)
def test_strict_monotonicity(x, y):
    th = build_theta(3)
    if x == y:
        return
    lo, hi = min(x, y), max(x, y)
    assert th.eval_exact_point(lo) < th.eval_exact_point(hi)


def test_eval_interval_examples():
    assert identity().eval_enclosure(Enclosure(F(1, 10), F(1, 5))).inside(F(1, 10), F(1, 5))
    got = AffineMap(3, 0).eval_enclosure(Enclosure(F(-1), F(1)))
    assert got.lo == -3 and got.hi == 3
    th2 = build_theta(2)
    img = th2.eval_enclosure(Enclosure(F(0), F(1, 10)))
    assert img.lo == 0 and img.hi == F(2) - F(9, 200)
    assert img.inside(F(0), F(2) - F(9, 200))


def test_float_shift_rounds_outward():
    enc = Enclosure(0.1, 0.1000001).shift(3)
    assert isinstance(enc.lo, float) and isinstance(enc.hi, float)
    assert enc.lo <= F(0.1) + 3 and F(0.1000001) + 3 <= enc.hi
    exact = Enclosure.point(F(1, 10)).shift(3)
    assert (exact.lo, exact.hi, exact.exact) == (F(31, 10), F(31, 10), True)


def test_exactness_is_read_off_the_endpoints():
    # exact means one rational endpoint pair, however the enclosure was made
    assert Enclosure(F(1, 3), F(1, 3)).exact and Enclosure.point(3).exact
    assert not Enclosure(F(1, 10), F(1, 5)).exact
    assert not Enclosure.point(0.1).exact and not Enclosure(0.5, 0.5).exact
    wide = Enclosure(F(1, 10), F(1, 5)).shift(3)
    assert (wide.lo, wide.hi, wide.exact) == (F(31, 10), F(16, 5), False)


TH2, TH3 = build_theta(2), build_theta(3)
AFF = AffineMap(F(5, 2), F(-1, 3))
HALF = F(1, 2)


def _point(v):
    return v, v


# tree kind -> (tree, rational x -> (lo, hi) bracketing the true value, lo == hi
# where it is rational); cubic inverses are bracketed 10^10 times tighter than
# the enclosures they check
TREE_KINDS = {
    "theta": (TH3, lambda x: _point(TH3.eval_exact_point(x))),
    "inverse theta": (invert(TH2), lambda x: TH2.invert_exact(x, x, F(1, 10**40))),
    "affine": (AFF, lambda x: _point(F(5, 2) * x - F(1, 3))),
    "translate conjugate": (TranslateConjugate(HALF, TH2),
                            lambda x: _point(TH2.eval_exact_point(x - HALF) + HALF)),
    "compose": (compose(TH3, invert(TH2)),
                lambda x: tuple(TH3.eval_exact_point(v)
                                for v in TH2.invert_exact(x, x, F(1, 10**40)))),
}


@pytest.mark.parametrize("kind", TREE_KINDS)
@given(x=rationals, xf=floats)
@settings(max_examples=40, deadline=None)
def test_enclosure_arithmetic_follows_endpoints(kind, x, xf):
    tree, bracket = TREE_KINDS[kind]
    lo, hi = bracket(x)
    enc = tree.eval_enclosure(Enclosure.point(x))
    assert isinstance(enc.lo, F) and isinstance(enc.hi, F)
    if lo == hi:
        assert enc.exact and enc.lo == enc.hi == lo
    else:
        # a cubic inverse of width <= 10^-30, stretched by at most Theta_3's slope
        assert enc.lo <= lo and hi <= enc.hi and enc.width < 1000 * DEFAULT_INVERSE_WIDTH
    lo, hi = bracket(F(xf))
    enc = tree.eval_enclosure(Enclosure.point(xf))
    assert isinstance(enc.lo, float) and isinstance(enc.hi, float) and not enc.exact
    assert enc.lo <= lo and hi <= enc.hi


PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")


def _trig_lift_value(lift: TrigPolyLift, x: F) -> Decimal:
    """lift(x) to about 40 digits.  x is reduced mod 1 exactly, cos and sin of
    2 pi r come from their Taylor series, and those of the higher harmonics
    from the angle-addition formulas."""
    with localcontext() as ctx:
        ctx.prec = 60
        r = x - math.floor(x)
        t = 2 * PI_50 * Decimal(r.numerator) / Decimal(r.denominator)
        cos1 = sin1 = Decimal(0)
        term, i = Decimal(1), 0
        while abs(term) > Decimal(10) ** -55:
            if i % 2 == 0:
                cos1 += term if i % 4 == 0 else -term
            else:
                sin1 += term if i % 4 == 1 else -term
            i += 1
            term = term * t / i
        total = Decimal(lift.a0)
        cos_k, sin_k = Decimal(1), Decimal(0)
        for a, b in zip(lift.cos_coeffs, lift.sin_coeffs):
            cos_k, sin_k = cos_k * cos1 - sin_k * sin1, sin_k * cos1 + cos_k * sin1
            total += Decimal(a) * cos_k + Decimal(b) * sin_k
        return lift.degree * Decimal(x.numerator) / Decimal(x.denominator) + total


@given(x=rationals, xf=floats)
@settings(max_examples=40, deadline=None)
def test_sine_lift_enclosure_contains_true_value(x, xf):
    s = sine_lift("1/100")
    for point, exact_x in ((x, x), (xf, F(xf))):
        enc = s.eval_enclosure(Enclosure.point(point))
        assert isinstance(enc.lo, float) and not enc.exact
        value = _trig_lift_value(s, exact_x)
        assert Decimal(enc.lo) <= value <= Decimal(enc.hi)


@pytest.fixture(scope="module")
def trig_lifts():
    return {"sine": sine_lift("1/100"), "sine 1/20": sine_lift("1/20"),
            "fejer theta_2": fourier_smooth(TH2, 2, 256),
            "fejer theta_3": fourier_smooth(TH3, 3, 256),
            "fejer theta_2 (8)": fourier_smooth(TH2, 2, 8),
            "fejer theta_3 (8)": fourier_smooth(TH3, 3, 8)}


LARGE = [98765.4321, -100000.3, 3000000.123, -2999999.77]


@pytest.mark.parametrize("x", LARGE)
@pytest.mark.parametrize("name", ["sine", "fejer theta_3"])
def test_trig_enclosure_contains_true_value_at_large_x(trig_lifts, name, x):
    # the rounding of degree*x and of the phases 2 pi k x grows with |x|
    lift = trig_lifts[name]
    enc = lift.eval_enclosure(Enclosure.point(x))
    value = _trig_lift_value(lift, F(x))
    assert Decimal(enc.lo) <= value <= Decimal(enc.hi)
    # the floor of the pad, and so every enclosure, is unchanged near 0
    assert lift.eval_enclosure(Enclosure.point(0.3)).hi == lift.eval_float(0.3) + 1e-12


@pytest.mark.parametrize("y", LARGE)
@pytest.mark.parametrize("name", ["sine", "fejer theta_3"])
def test_trig_inverse_enclosure_contains_true_inverse_at_large_y(trig_lifts, name, y):
    # Newton stops within 1e-14*|y|, so a fixed pad cannot cover large |y|;
    # F increasing and F(lo) <= y <= F(hi) put the true inverse in [lo, hi]
    lift = trig_lifts[name]
    enc = invert(lift).eval_enclosure(Enclosure.point(y))
    assert _trig_lift_value(lift, F(enc.lo)) <= Decimal(y) <= _trig_lift_value(lift, F(enc.hi))
    assert enc.hi - enc.lo < 1e-14 * abs(y)


def _assert_newton_stopped(lift, y, x):
    """x meets one of invert_float's stopping tests: |F(x) - y| within
    1e-14 max(1, |y|), or a bracket of width FLOAT_INVERSE_WIDTH max(1, |x|)
    around x in which F crosses y."""
    if abs(lift.eval_float(x) - y) <= 1e-14 * max(1.0, abs(y)):
        return
    w = FLOAT_INVERSE_WIDTH * max(1.0, abs(x))
    assert lift.eval_float(x - w) <= y <= lift.eval_float(x + w)


def _evaluations(lift, monkeypatch, y) -> tuple:
    """(x, n): invert_float(y) and the number of _value_slope calls it made."""
    calls = _count_calls(monkeypatch, lift, "_value_slope")
    x = lift.invert_float(y)
    monkeypatch.undo()
    return x, len(calls)


def _rounds(lift, monkeypatch, ys) -> tuple:
    """(xs, n): invert_array(ys) and the number of _series rounds it made."""
    calls = _count_calls(monkeypatch, lift, "_series")
    xs = lift.invert_array(np.array(ys, dtype=float))
    monkeypatch.undo()
    return xs, len(calls)


def _assert_reference_bits(reference_inverse, lift, ys):
    invert_float, invert_array = reference_inverse
    ys = np.array(ys, dtype=float)
    want = [invert_float(lift, float(y)).hex() for y in ys]
    assert [lift.invert_float(float(y)).hex() for y in ys] == want
    assert lift.invert_array(ys).tobytes() == invert_array(lift, ys).tobytes()


@given(amplitude=st.floats(min_value=1e-3, max_value=0.1),
       phase=st.floats(min_value=0, max_value=1),
       ys=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_inverse_bits_match_the_reference_on_sine_lifts(reference_inverse, phase_sine_lift,
                                                       amplitude, phase, ys):
    _assert_reference_bits(reference_inverse, phase_sine_lift(amplitude, phase), ys)


@pytest.mark.parametrize("name", ["sine", "sine 1/20", "fejer theta_2", "fejer theta_3",
                                  "fejer theta_2 (8)", "fejer theta_3 (8)"])
def test_inverse_bits_match_the_reference_at_the_bracket_edges(reference_inverse, trig_lifts,
                                                              name):
    lift = trig_lifts[name]
    _assert_reference_bits(reference_inverse, lift, _bracket_edges(lift) + LARGE + [0.3, -2.71, 17.25])


def _accepted_steps(lift, monkeypatch, ys) -> list:
    """(y, x, xn) for each y whose inverse xn was accepted on the step bound
    from the last evaluated iterate x, with no evaluation at xn."""
    out = []
    for y in ys:
        calls = _count_calls(monkeypatch, lift, "_value_slope")
        xn = lift.invert_float(y)
        monkeypatch.undo()
        if calls[-1][0] != xn:
            out.append((y, calls[-1][0], xn))
    return out


@pytest.mark.parametrize("amplitude", ["1/1000", "1/100", "3/100", "1/20"])
def test_step_bound_dominates_the_true_residual(amplitude, monkeypatch):
    # the bound on the evaluated |F(xn) - y| covers the true one as well,
    # near 0 and at large |y|, where the rounding of the phases dominates
    lift = sine_lift(amplitude)
    rng = random.Random(15)
    ys = LARGE + [rng.uniform(-3, 3) for _ in range(40)] + [rng.uniform(-1e6, 1e6)
                                                            for _ in range(40)]
    accepted = _accepted_steps(lift, monkeypatch, ys)
    # the rest stop at the start, where F(start) == y already
    assert len(accepted) >= len(ys) // 2
    for y, x, xn in accepted:
        bound = lift._h2 * (xn - x) ** 2 + lift._e0 + lift._e1 * abs(x)
        assert bound <= 1e-14 * max(1.0, abs(y))
        assert abs(_trig_lift_value(lift, F(xn)) - Decimal(y)) <= Decimal(bound)
        assert abs(lift.eval_float(xn) - y) <= bound


def test_steep_joins_fall_back_to_the_loop(reference_inverse, trig_lifts, monkeypatch):
    # on the smoothed Theta_3 (8) the bound never accepts a step: the loop
    # evaluates exactly where the reference does, and no more often
    lift = trig_lifts["fejer theta_3 (8)"]
    ys = [lift.eval_float(float(j) + k + off) for j in sorted(set(TH3._breaks_exact))
          for k in (-3, 0, 5)
          for off in (-1e-3, 0.0, 1e-3)]
    assert not _accepted_steps(lift, monkeypatch, ys)
    for y in ys:
        calls = _count_calls(monkeypatch, lift, "_value_slope")
        reference_inverse[0](lift, y)
        want = list(calls)
        calls.clear()
        lift.invert_float(y)
        monkeypatch.undo()
        assert calls == want and len(calls) >= 2


@given(amplitude=st.floats(min_value=0.005, max_value=0.03),
       phase=st.floats(min_value=0, max_value=1),
       k=st.integers(min_value=-10**6, max_value=10**6),
       frac=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=80, deadline=None)
def test_newton_from_the_affine_guess(phase_sine_lift, amplitude, phase, k, frac):
    # a sine lift moves the inverse by at most its amplitude off the affine
    # guess (y - a0)/degree; the table start is within the interpolation
    # error of the root, so one Newton step lands there and the step bound
    # accepts it, out to |y| = 1e6: one evaluation (none past the start
    # where the start is exact, as at x = 1/2 with phase 0)
    lift = phase_sine_lift(amplitude, phase)
    y = lift.eval_float(k + frac)
    with pytest.MonkeyPatch.context() as monkeypatch:
        x, evaluations = _evaluations(lift, monkeypatch, y)
        xs, rounds = _rounds(lift, monkeypatch, [y])
    assert evaluations == 1 and rounds == 1
    _assert_newton_stopped(lift, y, x)
    _assert_newton_stopped(lift, y, float(xs[0]))


@pytest.mark.parametrize("harmonics", [8, 16])
@pytest.mark.parametrize("x0", [0.01, 0.02, -3.99, 7.015, 0.5])
def test_newton_from_the_midpoint(harmonics, x0, monkeypatch):
    # the smoothed Theta_2 is nearly flat just past each integer, where the
    # affine guess falls a third of a period below the bracket; the start
    # is read off the table instead, and needs at most two Newton steps
    lift = fourier_smooth(TH2, 2, harmonics)
    y = lift.eval_float(x0)
    x, evaluations = _evaluations(lift, monkeypatch, y)
    xs, rounds = _rounds(lift, monkeypatch, [y])
    assert abs(x - x0) < 1e-12 * max(1.0, abs(x0))
    assert evaluations <= 3 and rounds <= 3
    _assert_newton_stopped(lift, y, x)
    _assert_newton_stopped(lift, y, float(xs[0]))


def _bracket_edges(lift):
    """F(0) + degree*k, where the one-period bracket of the inverse changes,
    and its two float neighbours, for k in [-50, 50] and out to |y| = 1e6."""
    ks = list(range(-50, 51)) + [s * k for s in (1, -1)
                                 for k in (10**3, 10**5, 10**6 // lift.degree)]
    edges = [lift._f0 + lift.degree * k for k in ks]
    return [z for y in edges
            for z in (math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf))]


@pytest.mark.parametrize("name", ["sine", "sine 1/20", "fejer theta_2", "fejer theta_3",
                                  "fejer theta_2 (8)", "fejer theta_3 (8)"])
def test_newton_at_the_bracket_edges(trig_lifts, name):
    # the bracket is read off F(0) + degree*k, which may differ from the
    # float F(k) by rounding, so y at an edge may sit just outside it
    lift = trig_lifts[name]
    ys = _bracket_edges(lift)
    for y, x in zip(ys, lift.invert_array(np.array(ys))):
        _assert_newton_stopped(lift, y, lift.invert_float(y))
        _assert_newton_stopped(lift, y, float(x))


@pytest.mark.parametrize("name", ["sine", "fejer theta_3", "fejer theta_2 (8)"])
def test_newton_keeps_the_bracket_edges(trig_lifts, name, monkeypatch):
    # a root on or next to F(0) + degree*k, where the closed bracket's edge
    # is the start or an iterate; an open bracket would bisect here (up to
    # 47 evaluations on the sine lift)
    lift = trig_lifts[name]
    ys = [lift._f0 + lift.degree * k + off for k in range(-20, 21)
          for off in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)]
    most = 0
    for y in ys:
        x, evaluations = _evaluations(lift, monkeypatch, y)
        assert evaluations <= 3, y
        _assert_newton_stopped(lift, y, x)
        most = max(most, evaluations)
    xs, rounds = _rounds(lift, monkeypatch, ys)
    assert rounds <= most
    for y, x in zip(ys, xs):
        _assert_newton_stopped(lift, y, float(x))


def test_newton_step_counts(trig_lifts, monkeypatch):
    # one evaluation (the start, whose Newton step the bound accepts) on sine
    # lifts of amplitude up to 0.03, and one array round; at most four on the
    # steep joins of the smoothed Theta_3, where the bound never accepts
    rng = random.Random(14)
    ys = [rng.uniform(-20, 20) for _ in range(2000)]
    for lift, allowed in ((trig_lifts["sine"], {1}), (sine_lift("3/100"), {1}),
                          (trig_lifts["fejer theta_3"], {1, 2, 3, 4})):
        counts = {_evaluations(lift, monkeypatch, y)[1] for y in ys}
        assert counts <= allowed, counts
        assert _rounds(lift, monkeypatch, ys)[1] <= max(allowed)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trig_inverse_rejects_non_finite_y(trig_lifts, bad):
    _assert_rejected(trig_lifts["sine"], bad)


# lifts of degree >= 5, where degree * max/4 alone overflows, and of degree
# 30 > 8 pi, where the phase limit degree * max/(8 pi) passes max/4
HIGH_DEGREE = {"degree 5": TrigPolyLift(5, 0.0, (0.01,), (0.02,)),
               "fejer theta_5 (8)": fourier_smooth(build_theta(5), 5, 8),
               "degree 30": TrigPolyLift(30, 0.0, (0.01,), (0.02,))}


@pytest.mark.parametrize("name", ["sine", "fejer theta_3", *HIGH_DEGREE])
def test_trig_inverse_rejects_huge_y(trig_lifts, name):
    # past min(max/4, degree * max/(8 pi N)), N harmonics, the phases
    # 2 pi k x or degree*a would overflow: math.cos raised a bare ValueError,
    # and the array form warned and returned y
    lift = HIGH_DEGREE[name] if name in HIGH_DEGREE else trig_lifts[name]
    past = math.nextafter(lift._y_max, math.inf)
    bads = [y for y in (2.9e307, 1e308, -1e308, past, -past, math.inf, -math.inf, math.nan)
            if not abs(y) <= lift._y_max]
    assert len(bads) >= 5
    for bad in bads:
        _assert_rejected(lift, bad)


def _assert_rejected(lift, bad):
    with pytest.raises(PreconditionError, match=re.escape(repr(bad))):
        lift.invert_float(bad)
    with pytest.raises(PreconditionError, match=re.escape(repr(bad))):
        lift.invert_array(np.array([0.25, bad, 1.5]))
    with pytest.raises(PreconditionError, match=re.escape(repr(bad))):
        invert(lift).eval_float(bad)


@pytest.mark.parametrize("lift", [sine_lift("1/100"), TrigPolyLift(3, 0.0, (0.01,), (0.02,)),
                                  fourier_smooth(TH3, 3, 256), *HIGH_DEGREE.values()])
def test_trig_inverse_at_huge_y(lift):
    # where floats no longer resolve degree*k, the bracket F(0) + degree*k
    # cannot be walked to one step at a time (9.1e27 needed about 10^12
    # steps at degree 3); up to the largest y taken, both forms finish
    # within rounding of each other, with no overflow
    ys = np.array([9.1e27, -2.9e69, 1e300, lift._y_max, -lift._y_max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = [lift.invert_float(float(y)) for y in ys]
        xa = lift.invert_array(ys)
    for y, x, z in zip(ys, xs, xa):
        assert abs(x - z) <= 1e-14 * abs(x)
        assert abs(x - y / lift.degree) <= 1e-14 * abs(x)


@pytest.mark.parametrize("name", ["sine", "fejer theta_3", *HIGH_DEGREE])
def test_trig_lift_rejects_huge_x(trig_lifts, name):
    # past _y_max / degree the phases 2 pi k x overflow: math.cos raised a
    # bare ValueError in eval_float and eval_enclosure, and eval_array warned
    lift = HIGH_DEGREE[name] if name in HIGH_DEGREE else trig_lifts[name]
    forms = (lift.eval_float, lambda x: lift.eval_enclosure(Enclosure.point(x)),
             lambda x: lift.eval_array(np.array([0.25, x])))
    past = math.nextafter(lift._x_max, math.inf)
    for bad in (1e308, -1e308, past, -past, math.inf, -math.inf, math.nan):
        for form in forms:
            with pytest.raises(PreconditionError, match=re.escape(f"x = {bad!r}")):
                form(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (lift._x_max, -lift._x_max):
            enc = lift.eval_enclosure(Enclosure.point(x))
            values = [lift.eval_float(x), enc.lo, enc.hi, *lift.eval_array(np.array([x]))]
            assert all(math.isfinite(v) for v in values)


def _forbidden(*args):
    raise AssertionError("the trig inverse evaluated F outside its Newton steps")


@pytest.mark.parametrize("name", ["sine", "fejer theta_3", "fejer theta_2 (8)"])
def test_trig_inverse_bracket_needs_no_forward_evaluation(trig_lifts, name, monkeypatch):
    lift = trig_lifts[name]
    ys = [0.3, -2.71, 17.25, 12345.678, lift._f0 + 4 * lift.degree]
    want_float = [lift.invert_float(y) for y in ys]
    want_array = lift.invert_array(np.array(ys))
    monkeypatch.setattr(lift, "eval_float", _forbidden)
    monkeypatch.setattr(lift, "eval_array", _forbidden)
    assert [lift.invert_float(y) for y in ys] == want_float
    assert np.array_equal(lift.invert_array(np.array(ys)), want_array)


def test_trig_inverse_of_a_float_point_inverts_once(monkeypatch):
    inv = invert(sine_lift("1/100"))
    seen = []
    invert_float = TrigPolyLift.invert_float
    monkeypatch.setattr(TrigPolyLift, "invert_float",
                        lambda self, y: seen.append(y) or invert_float(self, y))
    enc = inv.eval_enclosure(Enclosure.point(0.25))
    assert seen == [0.25]
    # the enclosure an inversion per end gave
    assert (enc.lo.hex(), enc.hi.hex()) == ("0x1.eb8f6ccd544d6p-3", "0x1.eb8f6ccd9aabcp-3")


# invert_float away from every bracket edge, recorded with the start read
# off the per-period table; the bits are those of whichever iterate first
# met the stopping test, checked again below
INVERSE_HEX = {
    ("sine", 0.3): "0x1.29496e0b377fap-2",
    ("sine", -2.71): "-0x1.5c231626e2543p+1",
    ("sine", 17.25): "0x1.13d71ed99aef0p+4",
    ("sine", 12345.678): "0x1.81cd7f73ac2bcp+13",
    ("sine", -98765.4321): "-0x1.81cd6d7e92d22p+16",
    ("fejer theta_2 (8)", 0.3): "0x1.bde161fadf49fp-6",
    ("fejer theta_2 (8)", -2.71): "-0x1.e7fbf57a7d7adp+0",
    ("fejer theta_2 (8)", 17.25): "0x1.02ebb7a4d6607p+3",
    ("fejer theta_2 (8)", 12345.678): "0x1.81c2003fd83b6p+12",
    ("fejer theta_2 (8)", -98765.4321): "-0x1.81cde69f582e6p+15",
    ("fejer theta_3 (8)", 0.3): "0x1.ca0bc86e5560dp-7",
    ("fejer theta_3 (8)", -2.71): "-0x1.f9699e2077c50p-1",
    ("fejer theta_3 (8)", 17.25): "0x1.46e45d8f67135p+2",
    ("fejer theta_3 (8)", 12345.678): "0x1.0130a70c04956p+12",
    ("fejer theta_3 (8)", -98765.4321): "-0x1.0133ee42b43cdp+15",
    ("fejer theta_3", 0.3): "0x1.e46aaa24e5a52p-5",
    ("fejer theta_3", -2.71): "-0x1.e1d306d84c067p-1",
    ("fejer theta_3", 17.25): "0x1.45677be2897ebp+2",
    ("fejer theta_3", 12345.678): "0x1.01310adfdf85bp+12",
    ("fejer theta_3", -98765.4321): "-0x1.0133df715dab8p+15",
}


@pytest.mark.parametrize("name, y", INVERSE_HEX)
def test_trig_inverse_bits_away_from_the_edges(trig_lifts, name, y):
    x = trig_lifts[name].invert_float(y)
    assert x.hex() == INVERSE_HEX[name, y]
    _assert_newton_stopped(trig_lifts[name], y, x)


KNOTS = from_knots([(F(-1, 3), F(-1, 5)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 5))], 1)
SMALL_TRIG = TrigPolyLift(1, 0.01, (0.01, -0.005), (0.02, 0.003))
BIG_TRIG = fourier_smooth(build_theta(2), 2, 16)

# tree kind -> (tree, True when every leaf is rational)
ARRAY_TREES = {
    "affine": (AFF, True),
    "theta": (TH3, True),
    "knots": (KNOTS, True),
    "trig <= 8 harmonics": (SMALL_TRIG, False),
    "trig > 8 harmonics": (BIG_TRIG, False),
    "inverse affine": (invert(AFF), True),
    "inverse theta": (invert(TH3), True),
    "inverse knots": (invert(KNOTS), True),
    "inverse trig <= 8": (invert(SMALL_TRIG), False),
    "inverse trig > 8": (invert(BIG_TRIG), False),
    "compose": (compose(TH3, invert(TH2), AFF), True),
    "compose trig": (compose(invert(SMALL_TRIG), AffineMap(2, 0), SMALL_TRIG), False),
    "translate conjugate": (TranslateConjugate(HALF, TH2), True),
    "translate conjugate trig": (TranslateConjugate(F(-1, 3), invert(BIG_TRIG)), False),
}

# piece joins of the fundamental-domain leaves in x and in value, moved by
# integers (so x_lo + k is among them), and large |x|
_JOINS = sorted({float(v) for f in (TH2, TH3, KNOTS)
                 for v in f._breaks_exact + f._value_breaks})
SPECIAL_XS = [b + k for b in _JOINS for k in range(-7, 8)] + [
    -1e6, -98765.4321, -0.0, 98765.4321, 1e6 - 0.5]


@pytest.mark.parametrize("kind", ARRAY_TREES)
@given(xs=st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=40))
@settings(max_examples=25, deadline=None)
def test_eval_array_agrees_with_eval_float(kind, xs):
    tree, rational = ARRAY_TREES[kind]
    xs = np.array(SPECIAL_XS + xs)
    got = tree.eval_array(xs)
    want = np.array([tree.eval_float(float(x)) for x in xs])
    if rational:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(xs)))


def test_interval_soundness_through_inverse():
    g = compose(build_theta(3), invert(build_theta(2)))
    X = Enclosure(F(1, 4), F(3, 4))
    hull = g.eval_enclosure(X)
    rng = random.Random(3)
    for _ in range(1000):
        x = F(rng.randint(250, 750), 1000)
        v = g.eval_enclosure(Enclosure.point(x))
        assert hull.lo <= v.lo and v.hi <= hull.hi


def _count_calls(monkeypatch, obj, name) -> list:
    """Wrap obj.name so that each call appends its arguments to the list returned."""
    method, calls = getattr(obj, name), []

    def counted(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(obj, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["theta", "knots", "inverse theta"])
@pytest.mark.parametrize("point", [F(7, 100), F(-22, 7), F(1), F(299, 100), 0.3, 1000.07])
def test_point_enclosure_evaluates_the_leaf_once(monkeypatch, kind, point):
    tree = ARRAY_TREES[kind][0]
    enc, q = Enclosure.point(point), F(point)
    # the value of evaluating the point at the leaf directly
    if kind == "inverse theta":
        leaf, name = tree.inner, "invert_exact"
        width = F(1, 2**52) if isinstance(point, float) else DEFAULT_INVERSE_WIDTH
        want = _image(enc, *leaf.invert_exact(q, q, width))
    else:
        leaf, name = tree, "eval_exact_point"
        want = _image(enc, leaf.eval_exact_point(q), leaf.eval_exact_point(q))
    calls = _count_calls(monkeypatch, leaf, name)
    got = tree.eval_enclosure(enc)
    assert len(calls) == 1
    assert got == want and type(got.lo) is type(want.lo)


@pytest.mark.parametrize("x", [0.3, -2.71, 98765.4321])
def test_trig_point_enclosure_evaluates_once(monkeypatch, x):
    lift = SMALL_TRIG
    want = Enclosure(lift.eval_float(x) - lift._pad(x), lift.eval_float(x) + lift._pad(x))
    calls = _count_calls(monkeypatch, lift, "eval_float")
    assert lift.eval_enclosure(Enclosure.point(x)) == want
    assert len(calls) == 1


def test_degree_multiplies_under_composition():
    th2, th3 = build_theta(2), build_theta(3)
    comp = compose(th2, th3)
    x = F(1, 7)
    assert comp.eval_exact(x + 1).lo - comp.eval_exact(x).lo == 6


def test_compose_iterate_and_inverse_normalization():
    th2 = build_theta(2)
    tree = invert(compose(th2, AffineMap(2, 1)))
    x = 0.31
    y = compose(th2, AffineMap(2, 1)).eval_float(x)
    assert abs(tree.eval_float(y) - x) < 1e-12
    five = iterate(AffineMap(1, F(1, 3)), 5)
    assert five.eval_exact(0).lo == F(5, 3)
    assert iterate(AffineMap(1, 1), -2).eval_exact(0).lo == -2


def test_hermite_monotonicity_guard():
    with pytest.raises(ConstructionError):
        HermitePiece(F(0), F(1), F(0), F(1, 100), F(1), F(1, 10))


# the cubic joins of Theta_2..Theta_5 and a piece whose left slope sits on the
# Fritsch-Carlson bound 3*secant (secant 10/3) while its right one is nearly 0
HERMITE_PIECES = [build_theta(j, a).pieces[1]
                  for j in range(2, 6) for a in (F(1, 10), F(1, 8), F(1, 6))] + [
    HermitePiece(F(1, 5), F(1, 2), F(-1, 3), F(2, 3), F(10), F(1, 1000))]
HERMITE_WIDTHS = [F(1, 10**30), F(1, 2**52), F(1, 10**6), F(1), "h"]


@given(piece=st.sampled_from(HERMITE_PIECES), width=st.sampled_from(HERMITE_WIDTHS),
       t=st.one_of(st.sampled_from([F(0), F(1), F(-1, 10**40), F(1) + F(1, 10**40), F(-3), F(4)]),
                   st.integers(-10**39, 11 * 10**39).map(lambda n: F(n, 10**40))),
       hit=st.none() | st.integers(1, 63))
@settings(max_examples=150, deadline=None)
def test_hermite_inversion_contract(piece, width, t, hit):
    # y = value_lo + t (value_hi - value_lo): t in [0, 1] inside the range,
    # its ends at value_lo and value_hi, outside it otherwise; or y = F at
    # lo + hit h / 64, a point the bisection visits
    h = piece.hi - piece.lo
    width = h if width == "h" else width
    y = (piece.eval(piece.lo + hit * h / 64) if hit else
         piece.value_lo + t * (piece.value_hi - piece.value_lo))
    a, b = piece.invert_enclosure(y, y, width)
    # the fewest halvings of [lo, hi] that reach the width: b - a = h / 2^N
    halvings = h / (b - a)
    assert halvings.denominator == 1 and halvings.numerator & (halvings.numerator - 1) == 0
    if width >= h:
        assert (a, b) == (piece.lo, piece.hi)
    else:
        assert b - a <= width < 2 * (b - a)
    # both ends on the grid lo + k h / 2^N
    assert ((a - piece.lo) / (b - a)).denominator == 1
    # F(a) <= y < F(b), except where y leaves the range and the bracket is
    # clamped to an end of the piece
    if y >= piece.value_lo:
        assert piece.eval(a) <= y
    else:
        assert a == piece.lo
    if y < piece.value_hi:
        assert y < piece.eval(b)
    else:
        assert b == piece.hi


def _bisect(piece, y, width):
    """One-end reference: the bisection bracket (a, b) of y in the piece and
    the midpoints visited on the way."""
    a, b, visited = piece.lo, piece.hi, []
    while b - a > width:
        m = (a + b) / 2
        visited.append(m)
        if piece.eval(m) <= y:
            a = m
        else:
            b = m
    return a, b, visited


@given(piece=st.sampled_from(HERMITE_PIECES), width=st.sampled_from(HERMITE_WIDTHS),
       t=st.one_of(st.sampled_from([F(0), F(1), F(-3), F(4)]),
                   st.integers(-10**39, 11 * 10**39).map(lambda n: F(n, 10**40))),
       gap=st.one_of(st.sampled_from([F(0), F(1, 10**45), F(1, 10**30), F(5)]),
                     st.integers(0, 10**40).map(lambda n: F(n, 10**40))),
       grid=st.none() | st.fractions(0, 1))
@settings(max_examples=150, deadline=None)
def test_two_ended_inversion_is_one_bisection_per_end(piece, width, t, gap, grid):
    # y_lo = value_lo + t (value_hi - value_lo), inside the range, at its ends
    # or outside it, and y_hi = y_lo + gap; or, with grid, F at two adjacent
    # points of the finest grid the bisection reaches
    h = piece.hi - piece.lo
    width = h if width == "h" else width
    if grid is None:
        y_lo = piece.value_lo + t * (piece.value_hi - piece.value_lo)
        y_hi = y_lo + gap
    else:
        step = h
        while step > width:
            step /= 2
        k = math.floor(grid * (h / step - 1))
        y_lo, y_hi = (piece.eval(piece.lo + i * step) for i in (k, k + 1))
    want = _bisect(piece, y_lo, width)[0], _bisect(piece, y_hi, width)[1]
    assert piece.invert_enclosure(y_lo, y_hi, width) == want


@pytest.mark.parametrize("width", [DEFAULT_INVERSE_WIDTH, F(1, 2**52)])
@pytest.mark.parametrize("y_lo, y_hi", [
    (F(-1, 1000), F(3, 5)),              # linear piece -> cubic join
    (F(3, 5), F(74, 25)),                # cubic join -> ramp
    (F(1, 10), F(1, 10) + F(1, 10**40)),  # two ends on the join
    (F(74, 25), F(3001, 1000)),          # ramp -> next period's linear piece
    (F(3, 5), F(3, 5) + 3),              # the join in two periods
    (F(-20), F(7, 3))])                  # many periods apart
def test_invert_exact_across_breaks_and_periods(width, y_lo, y_hi):
    lo, hi = TH3.invert_exact(y_lo, y_hi, width)
    assert (lo, hi) == (TH3.invert_exact(y_lo, y_lo, width)[0],
                        TH3.invert_exact(y_hi, y_hi, width)[1])
    assert TH3.eval_exact_point(lo) <= y_lo and y_hi <= TH3.eval_exact_point(hi)


def test_ends_that_never_part_share_every_evaluation(monkeypatch):
    # two ends 10^-45 apart on Theta_3's join, one period up: a bisection per
    # end evaluates the cubic twice at each of the N midpoints, a shared one once
    join = TH3.pieces[1]
    y_lo = join.eval(join.lo + (join.hi - join.lo) / 3)
    y_hi = y_lo + F(1, 10**45)
    a, _, visited = _bisect(join, y_lo, DEFAULT_INVERSE_WIDTH)
    _, b, visited_hi = _bisect(join, y_hi, DEFAULT_INVERSE_WIDTH)
    assert visited == visited_hi  # the ends never part
    calls = _count_calls(monkeypatch, HermitePiece, "eval")
    enc = invert(TH3).eval_enclosure(Enclosure(y_lo + 3, y_hi + 3))
    assert (enc.lo, enc.hi) == (a + 1, b + 1)
    assert len(calls) == len(visited)


@pytest.mark.parametrize("width", [F(0), F(-1, 10**6)])
def test_inverse_width_must_be_positive(width):
    # a bisection to a non-positive width would never end
    th3 = build_theta(3)
    join = th3.pieces[1]
    y = (join.value_lo + join.value_hi) / 2
    with pytest.raises(PreconditionError):
        invert(th3).eval_enclosure(Enclosure.point(y), inverse_width=width)
    with pytest.raises(PreconditionError):
        y = th3.pieces[0].value_lo
        th3.invert_exact(y, y, width)


def test_theta_parameter_guards():
    with pytest.raises(PreconditionError):
        build_theta(2, F(1, 2))
    with pytest.raises(PreconditionError):
        build_theta(0)


def test_from_knots_period3_map():
    tree = from_knots([(F(1, 10), F(4, 10)), (F(4, 10), F(7, 10)),
                       (F(7, 10), F(11, 10))], 1)
    assert tree.eval_exact(F(1, 10)).lo == F(4, 10)
    assert tree.eval_exact(F(7, 10)).lo == F(11, 10)
    with pytest.raises(PreconditionError):
        from_knots([(0, F(1, 2)), (F(1, 2), F(1, 4))], 1)


def test_grid_maps_are_exact():
    tree = from_grid([0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.35, 0.6, 0.85, 1.1], 1)
    assert tree.eval_exact(F(1, 4)).lo == F(0.35)


def test_trigpoly_monotone_certificate():
    s = sine_lift("1/100")
    assert s.monotonicity_margin() > 0.9
    with pytest.raises(ConstructionError):
        TrigPolyLift(1, 0.0, (), (0.5,))
    enc = s.eval_enclosure(Enclosure.point(F(1, 3)))
    assert enc.to_json()["rounding"] == "outward-float"
    assert enc.contains(s.eval_float(1 / 3))


def test_fourier_smooth_tracks_theta():
    th2 = build_theta(2)
    smooth = fourier_smooth(th2, 2, 1024)
    assert smooth.monotonicity_margin() > 0
    err = max(abs(smooth.eval_float(i / 257) - th2.eval_float(i / 257))
              for i in range(258))
    assert err < 1e-2


def test_spec_roundtrip_and_json():
    th = build_theta(3)
    trees = [
        th,
        AffineMap(F(5, 2), F(-1, 3)),
        compose(th, invert(build_theta(2))),
        from_spec({"kind": "translate_conjugate", "shift": "1/2",
                   "of": {"kind": "theta", "j": 2, "a": "1/10"}}),
        sine_lift("1/100"),
        from_knots([(0, F(1, 10)), (F(1, 2), F(3, 5))], 1),
    ]
    for tree in trees:
        clone = from_spec(tree.to_spec())
        for xi in (-0.7, 0.0, 0.31, 1.46):
            assert abs(clone.eval_float(xi) - tree.eval_float(xi)) < 1e-12


def test_decimal_rounding_directions():
    assert decimal_down(F(1, 3)).endswith("3")
    assert decimal_up(F(1, 3)).endswith("4")
    assert decimal_down(F(-1, 3)).endswith("4")
    assert decimal_down(F(1, 2)) == "0.5" == decimal_up(F(1, 2))
    assert decimal_down(F(0)) == "0"


def test_integer_endpoints_are_labelled_exact():
    enc = Enclosure.point(3)
    assert enc.exact and enc.to_json()["rounding"] == "exact"
    assert Enclosure(1, 2).to_json()["rounding"] == "outward-rational"


def test_fixed_points_brackets():
    th2 = build_theta(2)
    # grid zero, then a midpoint zero, and nothing where f(x) - x keeps its sign
    assert fixed_points(AffineMap(2, 0), [-1.0, 0.0, 1.0]) == [(0.0, 0.0)]
    assert fixed_points(AffineMap(2, 0), [-1.0, 1.0]) == [(0.0, 0.0)]
    assert fixed_points(AffineMap(1, 1), np.linspace(-5, 5, 11)) == []
    # Theta_2's three fixed points near 0, left to right; away from 0 each
    # sign change is bisected down to adjacent floats
    brackets = fixed_points(th2, np.linspace(-1.5, 0.5, 41))
    assert len(brackets) == 3 and brackets == sorted(brackets)
    for lo, hi in brackets[::2]:
        assert hi == math.nextafter(lo, 1.0)
        assert (th2.eval_float(lo) - lo) * (th2.eval_float(hi) - hi) < 0


def test_relation_residual_samples_the_bs_relation():
    g, h, xs = AffineMap(2, 0), AffineMap(1, 1), np.linspace(-3, 3, 7)
    assert relation_residual(g, h, 1, 2, xs) == 0.0
    assert relation_residual(g, h, 1, 3, xs) == 1.0
    assert relation_residual(AffineMap(3, 0), h, 2, 6, xs) == 0.0


@pytest.mark.parametrize("spec, field", [
    ({"kind": "theta"}, "missing field 'j'"),
    ({"kind": "affine", "slope": "abc"}, "bad field 'slope'"),
    ({"kind": "affine", "slope": "1/0"}, "bad field 'slope'"),
    ({"kind": "trigpoly", "degree": 1, "sin": ["x"]}, "bad field 'sin'"),
    ({"kind": "knots", "degree": 1, "points": [[0]]}, "bad field 'points'"),
    ({"kind": "compose", "of": [{"kind": "inverse"}]}, "missing field 'of'"),
    ({"slope": 2}, "missing field 'kind'"),
    ([1, 2], "expected a JSON object"),
])
def test_malformed_spec_names_the_field(spec, field):
    with pytest.raises(PreconditionError, match=field):
        from_spec(spec)
