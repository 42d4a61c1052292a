import math

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
                          max_iters=3, detect_on_failure=False)
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


def test_result_serialization_and_csv():
    g0, h0 = standard()
    res = solve_conjugacy(g0, h0, 2, window=2.0, grid_step=0.01)
    data = res.to_json()
    assert data["verdict"] == "converged"
    csv = res.phi_csv()
    assert csv.startswith("x,phi")
    assert len(csv.splitlines()) == len(res.xs) + 1
