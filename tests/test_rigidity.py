import math
from fractions import Fraction as F

import numpy as np
import pytest

from lineactions.errors import InconclusiveError, PreconditionError
from lineactions.maps import (AffineMap, build_theta, compose, invert,
                              sine_lift)
from lineactions.rigidity import (ConjugacyResult, detect_nonstandard,
                                  solve_conjugacy)


def standard(n=2):
    return AffineMap(n, 0), AffineMap(1, 1)


def conjugated_standard(n=2, amplitude="1/100"):
    psi = sine_lift(amplitude)
    g0, h0 = standard(n)
    return (compose(invert(psi), g0, psi), compose(invert(psi), h0, psi), psi)


def test_standard_action_is_its_own_conjugacy():
    g0, h0 = standard()
    res = solve_conjugacy(g0, h0, 2, window=5.0)
    assert res.verdict == "converged"
    assert res.iterations == 1
    assert res.residual_g == 0.0 and res.residual_h == 0.0
    assert np.allclose(res.phi, res.xs)


def test_recovers_sine_conjugator():
    g, h, psi = conjugated_standard()
    res = solve_conjugacy(g, h, 2, window=5.0, grid_step=1e-3, tol=1e-6)
    assert res.verdict == "converged"
    xs = np.linspace(-4.5, 4.5, 501)
    sup = max(abs(res.phi_at(x) - psi.eval_float(x)) for x in xs)
    assert sup < 1e-4
    assert res.monotone_all_iterations
    # measured contraction tracks the theoretical ratio 1/n
    assert max(res.contraction_ratios[1:]) <= 0.5 + 0.05
    # idempotence at the fixed point: the last sweep moved phi by <= tol
    assert res.deviations[-1] <= 1e-6


def test_equivariant_extension_at_boundaries():
    g, h, _ = conjugated_standard()
    res = solve_conjugacy(g, h, 2, window=5.0, grid_step=1e-3, tol=1e-6)
    for x in (4.2, -4.7):
        assert abs(res.phi_at(h.eval_float(x) - 1) - res.phi_at(x)) < 1e-4


def test_relation_violation_rejected():
    g0, _ = standard()
    h_bad = sine_lift("1/8")  # g0 h g0^-1 != h^2 by a visible margin
    with pytest.raises(PreconditionError, match="relation residual"):
        solve_conjugacy(g0, h_bad, 2)


def test_not_in_perturbation_regime():
    with pytest.raises(PreconditionError, match="perturbation regime"):
        solve_conjugacy(build_theta(2), AffineMap(1, 1), 2)


def test_escape_guard_when_h_does_not_move_points():
    # h = identity never brings g's image of the grid back into the window
    with pytest.raises(PreconditionError, match="back into the window"):
        solve_conjugacy(AffineMap(2, 0), AffineMap(1, 0), 2, window=1.0, grid_step=0.1)


def test_divergence_verdict_when_starved_of_iterations():
    g, h, _ = conjugated_standard()
    res = solve_conjugacy(g, h, 2, window=5.0, grid_step=1e-2, tol=1e-12,
                          max_iters=3)
    assert res.verdict == "diverged"


def test_detect_standard_consistent():
    g0, h0 = standard()
    report = detect_nonstandard(g0, h0, 2)
    assert report["classification"] == "consistent_with_standard"
    types = {fp["type"] for fp in report["fixed_points"]}
    assert types == {"repelling"}


def test_detect_attracting_profile():
    # degree-2 lift with slope 1/20 at its fixed point 0, paired with the
    # unit translation: the relation holds exactly, yet conjugacy to 2x is
    # impossible because 0 attracts
    g = build_theta(2)
    h = AffineMap(1, 1)
    report = detect_nonstandard(g, h, 2)
    assert report["classification"] == "not_conjugate_to_standard"
    assert abs(report["witness"]) < 1e-9


def test_detect_identity_is_rejected():
    with pytest.raises(PreconditionError, match="relation residual"):
        detect_nonstandard(AffineMap(1, 0), AffineMap(1, 1), 2)


def test_detect_inconclusive_without_fixed_points():
    g = AffineMap(2, 5)   # fixed point at -5, outside the window
    h = AffineMap(1, 1)
    with pytest.raises(InconclusiveError, match="no fixed point"):
        detect_nonstandard(g, h, 2, window=3.0)


# detect_nonstandard's fixed points of Theta_n, pinned bit for bit
THETA_FIXED_POINTS = {
    (2, F(1, 10)): ("-0x1.d8be0db562778p-1", "0x1.ffffffffffffap-62", "0x1.c1978fc1c4cb4p-5"),
    (2, F(1, 8)): ("-0x1.cea870927fcc4p-1", "0x0.0p+0", "0x1.1c20c953ef566p-4"),
    (2, F(1, 6)): ("-0x1.bd9b8939f2fc8p-1", "0x0.0p+0", "0x1.8105fb28879eep-4"),
    (3, F(1, 10)): ("-0x1.d604c364c0a08p-1", "0x1.ffffffffffffap-62", "0x1.b99a4c259d94cp-5"),
    (3, F(1, 8)): ("-0x1.cb4e7740b039ep-1", "0x0.0p+0", "0x1.166f6bec85b48p-4"),
    (3, F(1, 6)): ("-0x1.b941ff8cb4928p-1", "0x0.0p+0", "0x1.7800243f187c4p-4"),
    (4, F(1, 10)): ("-0x1.d49026e233ce4p-1", "0x1.ffffffffffffap-62", "0x1.b5011951eed0ep-5"),
    (4, F(1, 8)): ("-0x1.c9847a572608ep-1", "0x0.0p+0", "0x1.132d9bc5279f8p-4"),
    (4, F(1, 6)): ("-0x1.b6f0c0438b5aap-1", "0x0.0p+0", "0x1.72e32c754efccp-4"),
}


@pytest.mark.parametrize("n, a", sorted(THETA_FIXED_POINTS))
def test_detect_fixed_points_are_pinned(n, a):
    report = detect_nonstandard(build_theta(n, a), AffineMap(1, 1), n)
    assert tuple(fp["x"].hex() for fp in report["fixed_points"]) == THETA_FIXED_POINTS[n, a]
    assert [fp["type"] for fp in report["fixed_points"]] == ["repelling", "attracting",
                                                             "repelling"]


def test_fixed_point_outside_the_window_cannot_be_normalized():
    # g = 2x + 10 satisfies the relation with h = x + 1 and expands, but its
    # fixed point -10 lies outside [-3, 3]
    with pytest.raises(PreconditionError, match="cannot normalize the fixed point"):
        solve_conjugacy(AffineMap(2, 10), AffineMap(1, 1), 2, window=3.0)


def test_result_serialization_and_csv():
    g0, h0 = standard()
    res = solve_conjugacy(g0, h0, 2, window=2.0, grid_step=0.01)
    data = res.to_json()
    assert data["verdict"] == "converged"
    csv = res.phi_csv()
    assert csv.startswith("x,phi")
    assert len(csv.splitlines()) == len(res.xs) + 1
