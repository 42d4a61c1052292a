import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lineactions.circle import (AtomicCircleMeasure, MonotoneRealMap,
                                SampledIntervalMap, audit_aba,
                                audit_commuting_fixsets,
                                equal_on_support_check, fixed_components,
                                mean_translation_number, nu, rigid_rotation,
                                translation_number_estimate)
from lineactions.errors import PreconditionError, RepresentationError
from lineactions.maps import (AffineMap, Enclosure, FundamentalDomainMap,
                              TranslateConjugate, TrigPolyLift, build_theta, compose,
                              from_knots, invert, iterate, sine_lift)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=499)


def period3_attracting_map():
    """Orbit 1/10 -> 4/10 -> 7/10 -> 11/10 with slope 1/2 near the atoms,
    so the third iterate contracts by 1/8 along the orbit."""
    atoms = [F(1, 10), F(4, 10), F(7, 10)]
    d, s = F(1, 20), F(1, 2)
    knots = []
    for i, p in enumerate(atoms):
        q = atoms[(i + 1) % 3] + (1 if i == 2 else 0)
        knots += [(p - d, q - s * d), (p, q), (p + d, q + s * d)]
    return MonotoneRealMap(from_knots(knots, 1, "period3"), 1), atoms


# -- the degree of a lift -----------------------------------------------------

THETA2_HALF_TURN = compose(build_theta(2), AffineMap(1, F(1, 2)), invert(build_theta(2)))


def test_building_a_lift_evaluates_no_leaf(monkeypatch):
    per3, _ = period3_attracting_map()
    psi = sine_lift("1/100")
    trees = [(per3.tree, 1), (compose(invert(psi), AffineMap(1, F(1, 3)), psi), 1),
             (build_theta(3), 3), (compose(invert(build_theta(2)), AffineMap(2, 0)), 1),
             (TranslateConjugate(F(1, 2), compose(build_theta(2), psi)), 2),
             (iterate(compose(invert(psi), per3.tree, psi), 3), 1), (AffineMap(1, 2), 1)]
    calls = []
    for cls in (AffineMap, FundamentalDomainMap, TrigPolyLift):
        for name in ("eval_enclosure", "eval_float", "eval_array"):
            monkeypatch.setattr(cls, name, lambda self, *args, name=name: calls.append(name))
    for tree, degree in trees:
        assert MonotoneRealMap(tree, degree).degree == degree
    assert calls == []


def test_theta_conjugated_half_turn_is_no_lift():
    # Theta_2 T_1/2 Theta_2^-1 is increasing, and the product of its nodes'
    # degrees is 1, but F(x + 1) - F(x) is about 1.996 at -1 and 0.004 at 0
    ends = [THETA2_HALF_TURN.eval_exact(x).rational_ends for x in (-1, 0, 1)]
    (lo, hi), (lo0, hi0), (lo1, hi1) = ends
    assert 1.99 < lo0 - hi <= hi0 - lo < 2 and 0 < lo1 - hi0 <= hi1 - lo0 < 0.01
    assert THETA2_HALF_TURN.shift_image(1) is None
    for degree in (1, 2):
        with pytest.raises(RepresentationError, match="equivariance"):
            MonotoneRealMap(THETA2_HALF_TURN, degree)


def test_shift_rules_of_each_node():
    theta3 = build_theta(3)
    assert AffineMap(F(3, 2), 5).shift_image(F(2, 3)) == 1
    assert theta3.shift_image(2) == 6 and theta3.shift_image(F(1, 2)) is None
    assert sine_lift("1/50").shift_image(-1) == -1
    assert invert(theta3).shift_image(6) == 2 and invert(theta3).shift_image(1) is None
    assert TranslateConjugate(F(1, 3), theta3).shift_image(1) == 3
    # folded right to left: 1 -> 3 under Theta_3, then 3/2 under x/2
    assert compose(AffineMap(F(1, 2), 0), theta3).shift_image(1) == F(3, 2)
    with pytest.raises(RepresentationError, match="integer"):
        MonotoneRealMap(compose(AffineMap(F(1, 2), 0), theta3), F(3, 2))


@st.composite
def _knot_lifts(draw):
    degree, n = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    xs, ys = (sorted(draw(st.lists(st.integers(0, top - 1), min_size=n, max_size=n,
                                   unique=True))) for top in (12, 12 * degree))
    return from_knots([(F(x, 12), F(y, 12)) for x, y in zip(xs, ys)], degree)


_leaves = st.one_of(
    _knot_lifts(),
    st.integers(1, 30).map(lambda a: sine_lift(F(a, 1000))),
    st.fractions(-2, 2, max_denominator=12).map(lambda r: AffineMap(1, r)),
    st.integers(1, 3).map(build_theta))

_trees = st.recursive(_leaves, lambda kids: st.one_of(
    kids.map(invert),
    st.tuples(st.fractions(-1, 1, max_denominator=12), kids).map(
        lambda t: TranslateConjugate(*t)),
    st.tuples(kids, kids).map(lambda t: compose(*t))), max_leaves=4)


@given(tree=_trees, x=rationals, k=st.integers(-3 * 2**10, 3 * 2**10))
@settings(max_examples=150, deadline=None)
def test_a_proved_degree_holds_at_every_point(tree, x, k):
    degree = tree.shift_image(1)
    assume(degree is not None)
    # enclosures at a rational x: points exactly the degree apart where no
    # cubic inverse is on the path, and differences holding it everywhere
    (lo, hi), (lo1, hi1) = (tree.eval_exact(p).rational_ends for p in (x, x + 1))
    assert lo1 - hi <= degree <= hi1 - lo
    if lo == hi and lo1 == hi1:
        assert lo1 - lo == degree
    # float enclosures, at a dyadic x where x + 1 is a float too
    xf = k / 2**10
    (lo, hi), (lo1, hi1) = (tree.eval_enclosure(Enclosure.point(p)).rational_ends
                            for p in (xf, xf + 1.0))
    assert lo1 - hi <= degree <= hi1 - lo
    assert MonotoneRealMap(tree, degree).degree == degree


# -- translation numbers -----------------------------------------------------

def test_rigid_rotation_estimate():
    est = translation_number_estimate(rigid_rotation(F(1, 3)), 0, 10**6)
    assert abs(est.estimate - 1 / 3) < 1e-12
    assert est.error_bound == 2e-6


def test_translate_shifts_tau_by_integers():
    # identity lift composed with two full turns
    est = translation_number_estimate(MonotoneRealMap(AffineMap(1, 2), 1), 0, 100)
    assert est.estimate == 2.0


def test_attracting_fixed_point_forces_tau_zero():
    lift = MonotoneRealMap(sine_lift("1/10"), 1)
    n = 4000
    est = translation_number_estimate(lift, 0.3, n)
    assert abs(est.estimate) <= 2 / n
    # independent oracle: the orbit really converges to the fixed point 1/2
    x = 0.3
    for _ in range(n):
        x = lift.eval_float(x)
    assert abs(x - 0.5) < 1e-6


def test_tau_of_powers_scales():
    base = MonotoneRealMap(sine_lift("1/50"), 1)
    n = 3000
    tau1 = translation_number_estimate(base, 0.1, n)
    for k in range(2, 6):
        pk = MonotoneRealMap(iterate(base.tree, k), 1)
        tk = translation_number_estimate(pk, 0.1, n)
        assert abs(tk.estimate - k * tau1.estimate) <= k * tau1.error_bound + tk.error_bound


def test_tau_conjugacy_invariance():
    per3, _ = period3_attracting_map()
    conj = sine_lift("1/25")
    conjugated = MonotoneRealMap(compose(invert(conj), per3.tree, conj), 1)
    n = 20000
    t1 = translation_number_estimate(per3, 0.0, n)
    t2 = translation_number_estimate(conjugated, 0.0, n)
    assert abs(t1.estimate - t2.estimate) <= t1.error_bound + t2.error_bound


def test_degree_guard_and_bad_maps():
    with pytest.raises(RepresentationError):
        translation_number_estimate(MonotoneRealMap(build_theta(2), 2), 0, 10)
    with pytest.raises(RepresentationError):
        MonotoneRealMap(AffineMap(1, 1), 2)  # wrong declared degree
    with pytest.raises(PreconditionError):
        translation_number_estimate(rigid_rotation(0), 0, 0)


def test_richardson_field():
    est = translation_number_estimate(rigid_rotation(F(1, 7)), 0, 1000,
                                      richardson=True)
    assert est.richardson is not None
    assert abs(est.richardson - 1 / 7) < 1e-9


# -- nu and the mean translation number --------------------------------------

def test_nu_spec_values():
    mu = AtomicCircleMeasure([(F(0), F(1, 2)), (F(1, 2), F(1, 2))])
    assert nu(mu, F(1, 5), F(1, 5)) == 0
    assert nu(mu, F(-1, 4), F(3, 4)) == 1
    assert nu(mu, F(3, 4), F(-1, 4)) == -1


def test_nu_counts_lifted_atoms_against_bruteforce():
    mu = AtomicCircleMeasure([(F(1, 8), F(1, 4)), (F(1, 2), F(1, 4)),
                              (F(2, 3), F(1, 2))])
    rng = random.Random(11)
    for _ in range(50):
        x = F(rng.randint(-400, 400), 100)
        y = F(rng.randint(-400, 400), 100)
        brute = F(0)
        for p, w in mu.atoms:
            for k in range(-10, 10):
                q = p + k
                if x <= q < y:
                    brute += w
                elif y <= q < x:
                    brute -= w
        assert nu(mu, x, y) == brute


@given(x=rationals, y=rationals, z=rationals)
@settings(max_examples=80, deadline=None)
def test_nu_additivity(x, y, z):
    mu = AtomicCircleMeasure([(F(0), F(1, 3)), (F(1, 4), F(1, 3)),
                              (F(7, 9), F(1, 3))])
    assert nu(mu, x, y) + nu(mu, y, z) == nu(mu, x, z)


def test_mean_translation_rotation_half():
    mu = AtomicCircleMeasure([(F(0), F(1, 2)), (F(1, 2), F(1, 2))])
    assert mean_translation_number(rigid_rotation(F(1, 2)), mu) == F(1, 2)


def test_mean_translation_fixed_atoms_gives_zero():
    mu = AtomicCircleMeasure([(F(0), F(1, 2)), (F(1, 2), F(1, 2))])
    tree = from_knots([(F(0), F(0)), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)),
                       (F(3, 4), F(7, 8))], 1)
    assert mean_translation_number(MonotoneRealMap(tree, 1), mu) == 0


def test_mean_translation_period3():
    per3, atoms = period3_attracting_map()
    mu = AtomicCircleMeasure.uniform(atoms)
    assert mean_translation_number(per3, mu) == F(1, 3)
    # brute-force oracle: displacement counted atom by atom along the orbit
    for p in atoms:
        img = per3.eval_exact(p).lo
        count = sum(F(1, 3) for q in atoms for k in range(-3, 4)
                    if p <= q + k < img)
        assert count == F(1, 3)


def test_mean_translation_matches_estimator():
    per3, atoms = period3_attracting_map()
    mu = AtomicCircleMeasure.uniform(atoms)
    tau_mu = mean_translation_number(per3, mu)
    est = translation_number_estimate(per3, float(atoms[0]), 9999)
    assert abs(float(tau_mu) - est.estimate) <= est.error_bound


def test_mean_translation_additive_on_compositions():
    atoms = [F(1, 10), F(4, 10), F(7, 10)]
    mu = AtomicCircleMeasure.uniform(atoms)

    def advance(j):
        knots = [(p, atoms[(i + j) % 3] + (i + j) // 3) for i, p in enumerate(atoms)]
        return MonotoneRealMap(from_knots(knots, 1), 1)

    f, g = advance(1), advance(2)
    comp = MonotoneRealMap(compose(f.tree, g.tree), 1)
    assert (mean_translation_number(comp, mu)
            == mean_translation_number(f, mu) + mean_translation_number(g, mu))


def test_invariance_error_names_the_atom():
    per3, _ = period3_attracting_map()
    bad = AtomicCircleMeasure.uniform([F(1, 10), F(1, 2)])
    with pytest.raises(PreconditionError, match="not invariant"):
        mean_translation_number(per3, bad)


def test_near_invariant_rotation_is_not_invariant():
    # the rotation moves each atom 10^-15 off the other: exactly no atom
    near_half = rigid_rotation(F(1, 2) - F(1, 10**15))
    mu = AtomicCircleMeasure.uniform([F(1, 4), F(3, 4)])
    with pytest.raises(PreconditionError, match="not invariant"):
        mean_translation_number(near_half, mu)


def test_lift_checks_on_float_trees():
    psi = sine_lift("1/100")
    half, quarter, stretch = (compose(invert(psi), f, psi) for f in (
        AffineMap(1, F(1, 2)), AffineMap(1, F(1, 4)), AffineMap(F(101, 100), 0)))
    lift = MonotoneRealMap(half, 1)
    with pytest.raises(RepresentationError, match="equivariance"):
        MonotoneRealMap(half, 2)
    with pytest.raises(RepresentationError, match="equivariance"):
        MonotoneRealMap(stretch, 1)
    # the sine lift fixes 0 and 1/2, so the conjugated half turn swaps them;
    # each float enclosure holds one lifted atom, which is then F there
    mu = AtomicCircleMeasure.uniform([0, F(1, 2)])
    assert lift.eval_exact(0).width > 0
    assert mean_translation_number(lift, mu) == F(1, 2)
    assert mean_translation_number(lift, mu, F(1, 3)) == F(1, 2)
    finding = equal_on_support_check(lift, rigid_rotation(F(1, 2)), mu)
    assert finding["applicable"] and finding["mismatches"] == []
    # a quarter turn moves the atoms to 1/4 and 3/4, outside every enclosure
    with pytest.raises(PreconditionError, match="not invariant"):
        mean_translation_number(MonotoneRealMap(quarter, 1), mu)


def test_mean_translation_encloses_once_per_point(monkeypatch):
    per3, atoms = period3_attracting_map()
    mu = AtomicCircleMeasure.uniform(atoms)
    calls = []
    leaf = type(per3.tree)
    enclose = leaf.eval_enclosure
    monkeypatch.setattr(leaf, "eval_enclosure",
                        lambda self, enc, *rest: calls.append(enc) or enclose(self, enc, *rest))
    assert mean_translation_number(per3, mu) == F(1, 3)
    assert len(calls) == len(atoms) + 1
    calls.clear()
    assert mean_translation_number(per3, mu, F(1, 5)) == F(1, 3)
    assert len(calls) == len(atoms) + 2


def test_equal_on_support_check():
    mu = AtomicCircleMeasure([(F(0), F(1, 2)), (F(1, 2), F(1, 2))])
    f = rigid_rotation(F(1, 2))
    g_tree = from_knots([(F(0), F(1, 2)), (F(1, 4), F(4, 5)),
                         (F(1, 2), F(1))], 1)
    g = MonotoneRealMap(g_tree, 1)
    finding = equal_on_support_check(f, g, mu)
    assert finding["applicable"] and finding["mismatches"] == []


# -- audits -------------------------------------------------------------------

def test_audit_commute_identity():
    ident = SampledIntervalMap.from_callable(lambda x: x)
    report = audit_commuting_fixsets(ident, ident, tol=1e-9)
    assert report.verdict == "consistent"
    assert report.findings["fix_f_components"] == [(0.0, 1.0)]


def test_audit_commute_powers_of_square():
    f = SampledIntervalMap.from_callable(lambda x: x * x, 4001)
    g = SampledIntervalMap.from_callable(lambda x: x ** 4, 4001)
    # oracle: g really is f o f, hence commutes with f
    xs = np.linspace(0, 1, 101)
    assert np.max(np.abs(f(f(xs)) - g(xs))) < 1e-7
    report = audit_commuting_fixsets(f, g, tol=1e-6)
    assert report.verdict == "consistent"
    assert report.findings["fix_f_components"] == [(0.0, 0.0), (1.0, 1.0)]
    assert report.findings["fix_g_components"] == [(0.0, 0.0), (1.0, 1.0)]
    assert report.caveat  # smoothness is never certified


def test_audit_commute_detects_moved_boundary():
    f = SampledIntervalMap.from_callable(
        lambda x: x + 0.08 * math.sin(2 * math.pi * x) ** 2 * (0.5 - x), 2001)
    # f fixes 0, 1/2, 1; g moves 1/2
    g = SampledIntervalMap.from_callable(lambda x: x ** 2, 2001)
    report = audit_commuting_fixsets(f, g, tol=1e-7)
    assert report.verdict == "violations"
    locations = [v["location"] for v in report.violations
                 if v["check"] == "boundary_in_other_fix"]
    assert any(abs(loc - 0.5) < 1e-2 for loc in locations)
    assert report.warnings  # they do not commute either


def test_fixed_components_registers_isolated_points():
    f = SampledIntervalMap.from_callable(lambda x: x ** 2, 101)
    comps = fixed_components(f, 1e-12)
    assert comps == [(0.0, 0.0), (1.0, 1.0)]


@given(moves=st.lists(st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 1e-4, -1e-4]),
                      min_size=0, max_size=40),
       tol=st.sampled_from([0.0, 1e-9, 1e-3]))
@settings(max_examples=150, deadline=None)
def test_fixed_components_match_a_scan_of_the_grid(moves, tol):
    xs = np.linspace(0, 1, len(moves) + 2)
    f = SampledIntervalMap(xs, xs + np.array([0.0, *moves, 0.0]))
    # the reference: one pass over the grid, run by run
    want, i = [], 0
    for hit, run in itertools.groupby(np.abs(f.ys - f.xs) <= tol):
        n = len(list(run))
        if hit:
            want.append((float(f.xs[i]), float(f.xs[i + n - 1])))
        i += n
    assert fixed_components(f, tol) == want


def _compactify(tree):
    """Conjugate a line map into a map of (0,1) via the logistic chart."""
    def fn(t):
        if t <= 0:
            return 0.0
        if t >= 1:
            return 1.0
        x = math.log(t / (1 - t))
        y = tree.eval_float(x)
        return 1 / (1 + math.exp(-y))
    return fn


def test_audit_aba_identity_branch():
    a = SampledIntervalMap.from_callable(lambda x: x)
    b = SampledIntervalMap.from_callable(lambda x: x)
    report = audit_aba(a, b, (1, 1, -1, 2, 0, 0), (0.4, 0.6), tol=1e-9)
    assert report.verdict == "J_subset_Fix_b"


def test_audit_aba_disjoint_branch():
    # honest relation data: F(x+1) = F(x) + 2 with F = id near 0, and the
    # unit translation; they satisfy a b a^-1 = b^2 exactly on the line
    F_line = from_knots([(F(-1, 5), F(-1, 5)), (F(1, 5), F(1, 5)),
                         (F(4, 5), F(9, 5))], 2)
    h_line = AffineMap(1, 1)
    lhs = compose(F_line, h_line, invert(F_line))
    for x in (-0.7, 0.0, 0.4, 1.3):
        assert abs(lhs.eval_float(x) - (x + 2)) < 1e-12
    a = SampledIntervalMap.from_callable(_compactify(F_line), 6001)
    b = SampledIntervalMap.from_callable(_compactify(h_line), 6001)
    j_lo, j_hi = 1 / (1 + math.exp(0.1)), 1 / (1 + math.exp(-0.1))
    report = audit_aba(a, b, (1, 1, -1, 2, 0, 0), (j_lo, j_hi), tol=1e-3)
    assert report.verdict == "J_disjoint_Fix_b"
    assert report.findings["min_displacement_on_J"] > 0.01


def test_audit_aba_error_paths():
    a = SampledIntervalMap.from_callable(lambda x: x)
    b = SampledIntervalMap.from_callable(lambda x: x ** 2)
    with pytest.raises(PreconditionError, match="m1 \\+ m2"):
        audit_aba(a, b, (1, 1, 0, 1, 1, 0), (0.4, 0.6))
    with pytest.raises(PreconditionError, match="relation residual"):
        audit_aba(a, b, (1, 1, -1, 2, 0, 0), (0.4, 0.6), tol=1e-9)
    moving = SampledIntervalMap.from_callable(lambda x: x ** 2)
    with pytest.raises(PreconditionError, match="not inside Fix"):
        audit_aba(moving, b, (1, 1, -1, 2, 0, 0), (0.4, 0.6), tol=1e-9)
