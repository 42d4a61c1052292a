"""Lifts of circle maps, translation numbers, atomic invariant measures, audits.

A lift of a degree-j circle map is a strictly increasing F: R -> R with
F(x + 1) = F(x) + j.  Rotation-number machinery lives here for j = 1;
finitely supported invariant measures give the exact mean translation
number.  The audits check, on sampled interval maps, the fixed-set
consequences that hold for commuting C^2 diffeomorphisms and for pairs
satisfying an aba-type relation; smoothness itself is never verified and
every report carries that caveat.

A lift's degree is proved from its tree's structure (MonotoneRealMap).
Every other verdict on a lift, for exact and float trees alike, compares
the enclosures of eval_exact read exactly (Enclosure.rational_ends), with
no float tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError, RepresentationError
from .maps import AffineMap, Enclosure, MapTree, rat, rat_str

Num = Union[Fraction, int, float]

SMOOTHNESS_CAVEAT = ("finite sample data cannot certify a smoothness class; "
                     "fixed-set conclusions assume the C^2 hypotheses hold")


# ---------------------------------------------------------------------------
# lifts


class MonotoneRealMap:
    """A strictly increasing lift with integer equivariance degree.

    Wraps a map tree and takes no enclosure: each node's exact rule
    F(x + q) = F(x) + q' (MapTree.shift_image) carries the shift 1 through
    the tree, and the result must be the declared degree.  Monotonicity
    rests on the leaves' construction checks (positive slopes,
    Fritsch-Carlson cubic joins, the trig-lift derivative margin), which
    compositions, inverses and conjugates keep; the trig-lift margin is not
    yet a certificate (TrigPolyLift.monotonicity_margin, ROADMAP.md,
    Direction 5).
    """

    def __init__(self, tree: MapTree, degree: Optional[Num], label: str = ""):
        shift = tree.shift_image(1)
        if shift is None:
            raise RepresentationError("equivariance not proved: the tree's structure "
                                      "gives no constant F(x + 1) - F(x)")
        if shift != degree:
            raise RepresentationError(
                f"equivariance violated: F(x + 1) - F(x) = {rat_str(shift)}, not {degree}")
        if shift < 1 or shift.denominator != 1:
            raise RepresentationError(f"degree must be an integer >= 1, got {rat_str(shift)}")
        self.tree, self.degree, self.label = tree, int(shift), label

    def eval_float(self, x: float) -> float:
        return self.tree.eval_float(x)

    def eval_exact(self, x: Num) -> Enclosure:
        return self.tree.eval_exact(x)

    def __repr__(self):
        return f"MonotoneRealMap(degree={self.degree}, label={self.label!r})"


def rigid_rotation(angle) -> MonotoneRealMap:
    a = rat(angle)
    return MonotoneRealMap(AffineMap(1, a), 1, label=f"rotation_{rat_str(a)}")


# ---------------------------------------------------------------------------
# translation numbers


@dataclass(frozen=True)
class TranslationEstimate:
    """A translation number estimate (F^N(x0) - x0)/N and its bracket.

    error_bound is the a-priori 2/N, which holds for the exact orbit.  The
    orbit is iterated in floats and the bound has no term for the rounding
    of each step, so it is not a rigorous bracket of tau(F) around the
    reported estimate; to_json says so in error_bound_covers_rounding.
    """

    estimate: float
    error_bound: float
    iters: int
    x0: float
    richardson: Optional[float] = None

    def to_json(self) -> dict:
        out = {"estimate": repr(self.estimate), "error_bound": repr(self.error_bound),
               "error_bound_covers_rounding": False, "iters": self.iters,
               "x0": repr(self.x0)}
        if self.richardson is not None:
            out["richardson"] = repr(self.richardson)
        return out


def translation_number_estimate(F: MonotoneRealMap, x0: Num = 0, iters: int = 10**6,
                                richardson: bool = False) -> TranslationEstimate:
    """(F^N(x0) - x0)/N with the a-priori bracket 2/N around tau(F).

    Degree must be 1.  The bracket assumes exact iteration: the orbit is
    computed in floats, and error_bound does not cover the rounding of
    each of the N steps.  The optional Richardson field extrapolates from
    the half-orbit estimate; it carries no guaranteed bound.
    """
    if iters < 1:
        raise PreconditionError("need at least one iterate")
    if F.degree != 1:
        raise RepresentationError(f"translation number needs a degree-1 lift, got {F.degree}")
    tree = F.tree
    if isinstance(tree, AffineMap):  # slope is forced to 1 by degree 1
        x0f = float(x0)
        full = x0f + iters * float(tree.offset)
        half = x0f + (iters // 2) * float(tree.offset)
    else:
        x = float(x0)
        half = x
        ev = tree.eval_float
        mid_at = iters // 2
        for i in range(iters):
            x = ev(x)
            if i + 1 == mid_at:
                half = x
        full = x
    est = (full - float(x0)) / iters
    extra = None
    if richardson and iters >= 2:
        est_half = (half - float(x0)) / (iters // 2)
        extra = 2 * est - est_half
    return TranslationEstimate(est, 2.0 / iters, iters, float(x0), extra)


# ---------------------------------------------------------------------------
# atomic measures and the mean translation number


class AtomicCircleMeasure:
    """Finitely supported probability measure on the circle, exact weights."""

    def __init__(self, atoms: Sequence[tuple]):
        cleaned = []
        for pos, w in atoms:
            p, wt = rat(pos), rat(w)
            if not (0 <= p < 1):
                raise RepresentationError(f"atom position {p} outside [0, 1)")
            if wt <= 0:
                raise RepresentationError(f"atom weight {wt} must be positive")
            cleaned.append((p, wt))
        cleaned.sort()
        for (p1, _), (p2, _) in zip(cleaned, cleaned[1:]):
            if p1 == p2:
                raise RepresentationError(f"duplicate atom at {p1}")
        total = sum(w for _, w in cleaned)
        if total != 1:
            raise RepresentationError(f"weights sum to {total}, expected 1")
        self.atoms = tuple(cleaned)

    @staticmethod
    def uniform(positions: Sequence) -> "AtomicCircleMeasure":
        pts = [rat(p) for p in positions]
        w = Fraction(1, len(pts))
        return AtomicCircleMeasure([(p, w) for p in pts])

    def __repr__(self):
        return f"AtomicCircleMeasure({len(self.atoms)} atoms)"


def nu(mu: AtomicCircleMeasure, x: Num, y: Num) -> Fraction:
    """Signed mass of [x, y) under the Z-periodic lift of mu; exact and additive."""
    xq, yq = rat(x), rat(y)
    total = Fraction(0)
    for p, w in mu.atoms:
        total += w * (math.ceil(yq - p) - math.ceil(xq - p))
    return total


def mean_translation_number(F: MonotoneRealMap, mu: AtomicCircleMeasure,
                            x: Optional[Num] = None) -> Fraction:
    """nu(x, F(x)) for an F-invariant atomic measure mu; checked independent of x.

    F is enclosed once at each atom, at one non-atom and at x if given.  An
    atom's enclosure must hold exactly one lifted atom, of the atom's
    weight, which is then F there; none, or one of another weight, proves
    mu not invariant.  nu(x, .) must agree at both ends of each enclosure,
    and all values must be equal; the common value is returned.
    """
    if F.degree != 1:
        raise RepresentationError("mean translation number needs a degree-1 lift")
    weights = dict(mu.atoms)
    non_atom = Fraction(1, 2)
    while non_atom in weights:
        non_atom = (non_atom + Fraction(1, 257)) % 1
    values = set()
    for pt in [*weights, non_atom, *([] if x is None else [rat(x)])]:
        lo, hi = F.eval_exact(pt).rational_ends
        w = weights.get(pt % 1)
        if w is not None:
            # the lifted atoms in [lo, hi], up to two
            hits = list(itertools.islice((q + k for q in weights for k in range(
                math.ceil(lo - q), math.floor(hi - q) + 1)), 2))
            if len(hits) == 1 and weights[hits[0] % 1] == w:
                lo = hi = hits[0]
            elif len(hits) < 2:
                raise PreconditionError(
                    f"measure not invariant: F({rat_str(pt)}) lies in [{float(lo)!r}, "
                    f"{float(hi)!r}], which holds no atom of weight {rat_str(w)}")
        value = nu(mu, pt, lo)
        if nu(mu, pt, hi) != value:
            raise PreconditionError(
                f"image of {rat_str(pt)} is enclosed too loosely to count atoms")
        values.add(value)
    if len(values) != 1:
        raise PreconditionError(f"nu(x, F(x)) depends on x: {sorted(values)}")
    return values.pop()


def equal_on_support_check(F: MonotoneRealMap, G: MonotoneRealMap,
                           mu: AtomicCircleMeasure) -> dict:
    """Corollary check: measure-preserving lifts with equal tau_mu agree on
    supp(mu).  An atom is a mismatch where the enclosures of F and G there
    are disjoint."""
    tf, tg = mean_translation_number(F, mu), mean_translation_number(G, mu)
    finding = {"tau_mu_F": rat_str(tf), "tau_mu_G": rat_str(tg),
               "applicable": tf == tg, "mismatches": []}
    if tf != tg:
        return finding
    for p, _ in mu.atoms:
        (f_lo, f_hi), (g_lo, g_hi) = F.eval_exact(p).rational_ends, G.eval_exact(p).rational_ends
        if f_hi < g_lo or g_hi < f_lo:
            finding["mismatches"].append(rat_str(p))
    return finding


# ---------------------------------------------------------------------------
# sampled interval maps and audits


class SampledIntervalMap:
    """Monotone map of I = [0, 1] known at grid points, endpoints fixed."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float], label: str = ""):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise RepresentationError("need matching 1-d sample arrays")
        if not (np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)):
            raise RepresentationError("samples must be strictly increasing")
        if abs(xs[0]) > 1e-15 or abs(xs[-1] - 1) > 1e-15:
            raise RepresentationError("samples must cover [0, 1]")
        if abs(ys[0]) > 1e-12 or abs(ys[-1] - 1) > 1e-12:
            raise RepresentationError("map must fix the endpoints of I")
        self.xs, self.ys = xs, ys
        self.label = label

    @staticmethod
    def from_callable(fn, n: int = 2001, label: str = "") -> "SampledIntervalMap":
        xs = np.linspace(0.0, 1.0, n)
        return SampledIntervalMap(xs, [float(fn(x)) for x in xs], label)

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def inverse(self, y):
        return np.interp(y, self.ys, self.xs)

    def power(self, k: int, x):
        """k-th iterate at x (negative k uses the interpolated inverse)."""
        v = np.asarray(x, dtype=float)
        for _ in range(abs(k)):
            v = self(v) if k > 0 else self.inverse(v)
        return v

    def grid_step(self) -> float:
        return float(np.max(np.diff(self.xs)))


@dataclass
class AuditReport:
    """Findings of one lemma audit; empty violations iff verdict 'consistent'."""

    lemma: str
    tolerance: float
    verdict: str
    findings: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    caveat: str = SMOOTHNESS_CAVEAT

    def __post_init__(self):
        self._sync()

    def _sync(self):
        if self.verdict == "consistent" and self.violations:
            self.verdict = "violations"

    def to_json(self) -> dict:
        return {"lemma": self.lemma, "verdict": self.verdict,
                "tolerance": repr(self.tolerance), "findings": self.findings,
                "violations": self.violations, "warnings": self.warnings,
                "caveat": self.caveat}


def fixed_components(f: SampledIntervalMap, tol: float) -> list[tuple[float, float]]:
    """Components of {|f(x) - x| <= tol} as grid intervals (may be single points)."""
    # the runs of grid points within tol start and end where the padded mask flips
    flips = np.flatnonzero(np.diff(np.abs(f.ys - f.xs) <= tol, prepend=False, append=False))
    return [(float(f.xs[i]), float(f.xs[j - 1])) for i, j in zip(flips[::2], flips[1::2])]


def audit_commuting_fixsets(f: SampledIntervalMap, g: SampledIntervalMap,
                            tol: float = 1e-9) -> AuditReport:
    """Check the commuting-diffeomorphism fixed-set consequences on samples.

    Verifies boundary-of-fixed-set containment both ways and that each map
    preserves every component of the other's fixed set.  A failed commuting
    precheck is recorded as a warning and the audit still runs.
    """
    report = AuditReport(lemma="commuting_fixsets", tolerance=tol, verdict="consistent")
    comm = float(np.max(np.abs(f(g.ys) - g(f.ys))))
    report.findings["commuting_residual"] = comm
    comm_tol = max(tol, 10 * (f.grid_step() + g.grid_step()))
    if comm > comm_tol:
        report.warnings.append(
            f"maps do not commute within {comm_tol:.3g} (residual {comm:.3g}); "
            "audit ran anyway")
    pos_tol = tol + max(f.grid_step(), g.grid_step())

    comps_f = fixed_components(f, tol)
    comps_g = fixed_components(g, tol)
    report.findings["fix_f_components"] = comps_f
    report.findings["fix_g_components"] = comps_g

    for name, comps, other in (("f", comps_f, g), ("g", comps_g, f)):
        for b in sorted({end for component in comps for end in component}):
            if abs(float(other(b)) - b) > tol:
                report.violations.append(
                    {"check": "boundary_in_other_fix", "map": name, "location": b,
                     "displacement": float(other(b)) - b})
    for name, comps, other in (("g", comps_g, f), ("f", comps_f, g)):
        for lo, hi in comps:
            img_lo, img_hi = float(other(lo)), float(other(hi))
            if img_lo < lo - pos_tol or img_hi > hi + pos_tol:
                report.violations.append(
                    {"check": "component_preserved", "fixset_of": name,
                     "component": [lo, hi], "image": [img_lo, img_hi]})
    report._sync()
    return report


def audit_aba(a: SampledIntervalMap, b: SampledIntervalMap,
              exponents: tuple[int, int, int, int, int, int],
              interval: tuple[float, float], tol: float = 1e-9) -> AuditReport:
    """Audit the aba-relation dichotomy on an interval J of fixed points of a.

    exponents = (n1, m3, n2, m1, n3, m2) encodes the relation
    a^n1 b^m3 a^n2 = b^m1 a^n3 b^m2, which needs m1 + m2 != m3.  The verdict
    states whether J lies inside Fix(b), misses it entirely, or violates the
    dichotomy, on 64 even samples of J.
    """
    n1, m3, n2, m1, n3, m2 = exponents
    if m1 + m2 == m3:
        raise PreconditionError(f"need m1 + m2 != m3, got {m1} + {m2} == {m3}")
    lo, hi = float(interval[0]), float(interval[1])
    if not (0 <= lo < hi <= 1):
        raise PreconditionError(f"J = [{lo}, {hi}] is not a nontrivial subinterval of I")
    pts = np.linspace(lo, hi, 64)

    fixed_a = np.max(np.abs(a(pts) - pts))
    if fixed_a > tol:
        raise PreconditionError(
            f"J is not inside Fix(a) within tol: max displacement {fixed_a:.3g}")

    grid = a.xs
    lhs = a.power(n1, b.power(m3, a.power(n2, grid)))
    rhs = b.power(m1, a.power(n3, b.power(m2, grid)))
    rel_residual = float(np.max(np.abs(lhs - rhs)))
    if rel_residual > tol:
        raise PreconditionError(
            f"relation residual {rel_residual:.3g} exceeds tol {tol:.3g}")

    report = AuditReport(lemma="aba_dichotomy", tolerance=tol, verdict="consistent")
    report.findings["relation_residual"] = rel_residual
    disp = np.abs(b(pts) - pts)
    n_fixed = int(np.sum(disp <= tol))
    report.findings["fixed_fraction_of_J"] = n_fixed / len(pts)
    report.findings["max_displacement_on_J"] = float(np.max(disp))
    report.findings["min_displacement_on_J"] = float(np.min(disp))
    if n_fixed == len(pts):
        report.verdict = "J_subset_Fix_b"
    elif n_fixed == 0:
        report.verdict = "J_disjoint_Fix_b"
    else:
        report.verdict = "violation"
        moved = pts[disp > tol]
        fixed = pts[disp <= tol]
        report.violations.append(
            {"check": "aba_dichotomy", "fixed_sample": float(fixed[0]),
             "moved_sample": float(moved[0])})
    return report
