"""Conjugacy solver for perturbations of the standard BS(1, n) action.

The standard action on R is generated by g0(x) = n x and h0(x) = x + 1.
Given a perturbed pair (g, h) satisfying g h g^{-1} = h^n with g uniformly
expanding, the conjugacy phi solving phi o g = g0 o phi and phi o h = h0 o phi
is the fixed point of the rigidity operator phi -> g0^{-1} o phi o g, a
contraction with ratio 1/n in the sup norm.  The solver iterates it on a
grid over [-W, W], extending phi beyond the window through the relation
phi(h(x)) = phi(x) + 1.

detect_nonstandard checks the obstruction in the other direction: an
attracting fixed point of g is a conjugacy invariant incompatible with
g0(x) = n x, whose single fixed point is repelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InconclusiveError, PreconditionError
from .maps import AffineMap, MapTree, compose, fixed_points, invert, relation_residual


def _min_slope(g: MapTree, window: float) -> float:
    xs = np.linspace(-window, window, 2001)
    ys = g.eval_array(xs)
    return float(np.min(np.diff(ys) / np.diff(xs)))


@dataclass
class ConjugacyResult:
    """Discretized conjugacy with residuals and contraction diagnostics.

    phi is sampled at xs (coordinates translated so the fixed point of g
    sits at 0); x_star records the translation.  When verdict is
    "converged", both conjugacy residuals are at most tol and phi is
    strictly increasing on the grid.
    """

    n: int
    xs: np.ndarray
    phi: np.ndarray
    x_star: float
    iterations: int
    residual_h: float
    residual_g: float
    contraction_ratios: list
    verdict: str
    tol: float
    monotone_all_iterations: bool = True
    deviations: list = field(default_factory=list)
    detect_report: Optional[dict] = None

    def phi_at(self, x: float) -> float:
        """phi in the translated coordinates, linearly interpolated."""
        return float(np.interp(x, self.xs, self.phi))

    def phi_csv(self) -> str:
        lines = ["x,phi"]
        lines += [f"{x!r},{p!r}" for x, p in zip(self.xs, self.phi)]
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {"n": self.n, "verdict": self.verdict,
                "iterations": self.iterations, "x_star": repr(self.x_star),
                "residual_h": repr(self.residual_h),
                "residual_g": repr(self.residual_g),
                "tol": repr(self.tol),
                "contraction_ratios": [repr(r) for r in self.contraction_ratios],
                "monotone_all_iterations": self.monotone_all_iterations,
                "grid_points": len(self.xs),
                "window": repr(float(self.xs[-1])),
                "detect_report": self.detect_report}


def _decompose(ts: np.ndarray, h: MapTree, window: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, k) with ts = h^k(s) and s inside the window, so that phi-values
    extend by phi(t) = phi(s) + k.  h^-1 is applied to the points above the
    window, then h to the points below it, each time only to the points still
    outside; no point may take more than 10000 steps in all.  Each point is
    moved on its own, so one call on a concatenation gives the results of one
    call per part, in fewer and larger eval_array calls."""
    ss = ts.copy()
    ks = np.zeros(len(ts), dtype=np.int64)
    steps = np.zeros(len(ts), dtype=np.int64)
    for f, dk, outside in ((invert(h), 1, lambda t: t > window), (h, -1, lambda t: t < -window)):
        todo = np.flatnonzero(outside(ss))
        while todo.size:
            ss[todo] = f.eval_array(ss[todo])
            ks[todo] += dk
            steps[todo] += 1
            if steps[todo].max() > 10000:
                raise PreconditionError("h does not translate points back into the window")
            todo = todo[outside(ss[todo])]
    return ss, ks


def solve_conjugacy(g: MapTree, h: MapTree, n: int, grid_step: float = 1e-3,
                    window: float = 10.0, tol: float = 1e-8,
                    max_iters: int = 200) -> ConjugacyResult:
    """Iterate the rigidity operator to the conjugacy with the standard action.

    Preconditions: the relation g h g^{-1} = h^n holds on samples within
    max(tol, 1e-12), and g is uniformly expanding on the window.
    Convergence requires the successive sup-change to fall below tol and both
    conjugacy residuals to reach tol.  The grid's images under g (for the
    operator) and under h (for the h-residual) are moved into the window by
    one _decompose call on their concatenation.
    """
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    residual = relation_residual(g, h, 1, n, np.linspace(-window, window, 257))
    relation_tol = max(tol, 1e-12)
    if residual > relation_tol:
        raise PreconditionError(
            f"relation residual {residual:.3g} exceeds {relation_tol:.3g}")
    slope = _min_slope(g, window)
    if slope <= 1.0:
        raise PreconditionError(
            f"not in the perturbation regime: min slope estimate {slope:.4g} <= 1")

    brackets = fixed_points(g, [-window, window])
    if not brackets:
        raise PreconditionError(
            f"g(x) - x has no sign change on [-{window}, {window}]; "
            "cannot normalize the fixed point")
    x_star = 0.5 * (brackets[0][0] + brackets[0][1])
    h_hat_tree = _shift_conjugate(h, x_star)

    npts = int(round(2 * window / grid_step)) + 1
    xs = np.linspace(-window, window, npts)
    # phi(g(x_i)) for the operator and phi(h(x_i)) for the h-residual: one
    # decomposition of both point sets
    g_of_xs = g.eval_array(xs + x_star) - x_star
    h_of_xs = h_hat_tree.eval_array(xs)
    ss, ks = _decompose(np.concatenate((g_of_xs, h_of_xs)), h_hat_tree, window)
    (s_arr, hs_arr), (k_arr, hk_arr) = np.split(ss, 2), np.split(ks, 2)

    phi = xs.copy()
    deviations = []
    ratios = []
    monotone = True
    verdict = "diverged"
    iterations = 0
    res_h = math.inf
    res_g = math.inf
    for it in range(1, max_iters + 1):
        phi_new = (np.interp(s_arr, xs, phi) + k_arr) / n
        change = float(np.max(np.abs(phi_new - phi)))
        if not np.all(np.diff(phi_new) > 0):
            monotone = False
        if deviations and deviations[-1] > 0:
            ratios.append(change / deviations[-1])
        deviations.append(change)
        phi = phi_new
        iterations = it
        if change <= tol:
            res_g = float(np.max(np.abs(n * phi - (np.interp(s_arr, xs, phi) + k_arr))))
            res_h = float(np.max(np.abs(phi + 1 - (np.interp(hs_arr, xs, phi) + hk_arr))))
            if res_g <= tol and res_h <= tol:
                verdict = "converged"
                break

    detect_report = None
    if verdict != "converged":
        try:
            detect_report = detect_nonstandard(g, h, n, window=window)
            if detect_report["classification"] == "not_conjugate_to_standard":
                verdict = "not-conjugate-detected"
        except (PreconditionError, InconclusiveError):
            pass
    return ConjugacyResult(n, xs, phi, x_star, iterations, res_h, res_g,
                           ratios, verdict, tol, monotone, deviations,
                           detect_report)


def _shift_conjugate(f: MapTree, x_star: float) -> MapTree:
    """f conjugated by the translation moving g's fixed point to 0."""
    if x_star == 0.0:
        return f
    return compose(AffineMap(1, -Fraction(x_star)), f, AffineMap(1, Fraction(x_star)))


def _orbit_classification(g: MapTree, x_star: float) -> str:
    """attracting / repelling / semi-stable by two-sided orbit convergence,
    from x_star +- 1e-4 in at most 500 steps."""
    eps = 1e-4
    outcomes = []
    for side in (1.0, -1.0):
        x = x_star + side * eps
        verdict = "stays"
        for _ in range(500):
            x = g.eval_float(x)
            if abs(x - x_star) < eps * 1e-4:
                verdict = "converges"
                break
            if abs(x - x_star) > 100 * eps:
                verdict = "escapes"
                break
        outcomes.append(verdict)
    if all(o == "converges" for o in outcomes):
        return "attracting"
    if all(o == "escapes" for o in outcomes):
        return "repelling"
    return "semi-stable"


def detect_nonstandard(g: MapTree, h: MapTree, n: int, window: float = 5.0,
                       samples: int = 4001) -> dict:
    """Classify whether g's fixed-point structure obstructs conjugacy to g0 = n x.

    Locates fixed points of g with maps.fixed_points on ``samples`` grid
    points and tests each for attraction with two-sided orbits.  Any
    attracting fixed point certifies "not conjugate to standard" with that
    witness; otherwise the action is "consistent with standard".  Raises
    InconclusiveError when no fixed point is found in the window.
    """
    residual = relation_residual(g, h, 1, n, np.linspace(-window, window, 257))
    if residual > 1e-9:
        raise PreconditionError(f"relation residual {residual:.3g} exceeds 1e-09")
    found = [0.5 * (lo + hi) for lo, hi in fixed_points(g, np.linspace(-window, window, samples))]
    if not found:
        raise InconclusiveError(
            f"no fixed point of g found in [-{window}, {window}]; "
            "cannot classify (reported, not guessed)")
    report = {"fixed_points": [], "classification": "consistent_with_standard",
              "witness": None}
    for x_star in found:
        kind = _orbit_classification(g, x_star)
        report["fixed_points"].append({"x": x_star, "type": kind})
        if kind == "attracting" and report["witness"] is None:
            report["classification"] = "not_conjugate_to_standard"
            report["witness"] = x_star
    return report
