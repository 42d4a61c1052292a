"""Exact algebra of strictly monotone piecewise maps of the real line.

A map tree is built from leaves (affine maps, one-period fundamental-domain
maps of integer degree, trigonometric-polynomial lifts) and nodes
(composition, inverse, conjugation by a translation).  Trees have two plain
float evaluations, a rigorous enclosure evaluation and one exact rule:

* ``eval_float(x)`` maps one float.  It serves sequential orbits, where the
  next point needs the previous one: translation numbers, the bisection of
  ``fixed_points``, orbit classification.
* ``eval_array(xs)`` maps a 1-d float array with numpy and no per-point
  Python loop.  It serves every evaluation over a grid: the conjugacy
  solver and its slope check, the scan of ``fixed_points``, Fourier
  smoothing's samples and ``relation_residual``.  On trees with
  rational leaves it is bit-identical to ``eval_float``; through a
  trig-polynomial leaf the two differ only by the rounding of cos/sin and of
  the harmonic sums.
* ``eval_enclosure(enc)``, whose arithmetic follows the type of the
  enclosure's endpoints:

  - Fraction (or int) endpoints: rational leaves evaluate exactly; inverting
    a cubic join piece yields a rational enclosure of prescribed width by
    monotone bisection, one shared by both ends of an interval until a
    midpoint value falls between them.  ``Enclosure.exact`` reads exactness
    off the result (rational lo == hi): it holds when no cubic inverse was
    on the path.
  - float endpoints: rational leaves compute exactly from the endpoints and
    round the result outward to floats.

  A point enclosure [q, q] is mapped or inverted once at a rational leaf
  and at a trig-polynomial leaf; both ends are read off that one result.
* ``shift_image(q)``, the exact q' with F(x + q) = F(x) + q' for every x
  that the tree's structure proves for a rational shift q, or None; each
  node has one rule (see MapTree.shift_image).

Trig-polynomial leaves have float coefficients: they round any input
outward to floats and return padded float enclosures, so a path through one
continues in outward-rounded floats.  Their float inverse, Newton's method
from a per-period table in a one-period bracket, is set out in TrigPolyLift.

Two functions on trees serve the BS(m, n) lifts g with h(x) = x + 1:
``fixed_points(f, xs)`` brackets the fixed points of f on a grid (one
eval_array scan, then eval_float bisection of each sign change), and
``relation_residual(g, h, m, n, xs)`` samples g h^m = h^n g on an array.

The rational pieces, the enclosure type and the rational leaves live in
lineactions.pieces and are re-exported here; the trig-polynomial leaf, the
nodes, the constructors, Fourier smoothing and the JSON specs live here.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConstructionError, PreconditionError, RepresentationError
from .pieces import (DEFAULT_INVERSE_WIDTH, AffineMap, AffinePiece, Enclosure,
                     FundamentalDomainMap, HermitePiece, MapTree, ThetaMap, _float_down,
                     _float_up, _image, rat, rat_str)
from .pieces import decimal_down, decimal_up  # noqa: F401 (re-exported)

FLOAT_INVERSE_WIDTH = 1e-14
_EPS = 2.0 ** -52
# largest temporary, in elements, of a blocked trig-polynomial array evaluation
_BLOCK = 2 ** 16

# ---------------------------------------------------------------------------
# trig-polynomial leaf


def _fft_grid(harmonics: int) -> int:
    """The smallest power of two >= max(4096, 8*harmonics): the sample grid
    of Fourier smoothing, of monotonicity_margin and of the inverse's start
    table, at least eight points per harmonic."""
    grid = 4096
    while grid < 8 * harmonics:
        grid *= 2
    return grid


class TrigPolyLift(MapTree):
    """x -> degree*x + a0 + sum_k (cos_k cos(2 pi k x) + sin_k sin(2 pi k x)).

    Float-only leaf (coefficients are floats); used by the Fourier smoothing
    path and for sine perturbations of the identity.  Monotonicity is
    checked, not proved: monotonicity_margin, a lower estimate of F' with no
    term for float rounding, must be positive.

    The float inverse is Newton's method, safeguarded by bisection, in the
    closed one-period bracket [k, k + 1] with F(k) <= y <= F(k + 1), where
    equivariance gives F(k) = F(0) + degree*k with no evaluation of F.  It
    starts at k plus the table of the inverse on one period (_start_table,
    M + 1 entries, M = _fft_grid(harmonics)) read at M (y - F(k))/degree by
    one index and one linear interpolation.  With tol = 1e-14 max(1, |y|),
    an iterate x is accepted when |F(x) - y| <= tol, unless it is the start
    and the Newton step from it would move it, so every answer has had a
    Newton step or is a fixed point of one.  A step x -> xn that stays in
    the bracket and moves x is accepted unevaluated when
    h2 (xn - x)^2 + e0 + e1 |x| <= tol, which bounds the evaluated
    |F(xn) - y| (_set_step_bound): one evaluation per inversion on a sine
    lift, while on the Fejer-smoothed Theta_j e0 alone exceeds tol.  An
    iterate on an edge of the bracket is kept; bisection replaces it only
    when it leaves the bracket or stalls (x_next == x).  Newton also stops
    when the bracket is narrower than FLOAT_INVERSE_WIDTH max(1, |x|), or
    after 80 steps.  invert_float and invert_array follow these rules step
    for step.  Each scalar step takes F and F' from one cos/sin pass
    (_value_slope); eval_array and invert_array share one kernel (_series)
    that gives F and F' at a block of points by one matrix product.  A
    non-finite y, or one with |y| above min(max/4, degree max / (8 pi N)),
    N harmonics and max = 1.8e308, where the phases 2 pi k x or the bracket
    would come near overflow, is a PreconditionError; so, in eval_float,
    eval_array and eval_enclosure, is a non-finite x or one with |x| above
    that bound over degree.
    """

    def __init__(self, degree: int, a0: float = 0.0,
                 cos_coeffs: Sequence[float] = (), sin_coeffs: Sequence[float] = ()):
        if degree < 1:
            raise RepresentationError("degree must be >= 1")
        self.degree = degree
        self.a0 = float(a0)
        self.cos_coeffs = tuple(float(c) for c in cos_coeffs)
        self.sin_coeffs = tuple(float(c) for c in sin_coeffs)
        n = max(len(self.cos_coeffs), len(self.sin_coeffs))
        self.cos_coeffs += (0.0,) * (n - len(self.cos_coeffs))
        self.sin_coeffs += (0.0,) * (n - len(self.sin_coeffs))
        # harmonic frequencies 2 pi k and the weights of F and F' in them;
        # the scalar path switches to numpy dot products above 8 harmonics
        wk = 2 * math.pi * np.arange(1, n + 1, dtype=float)
        ac, bs = np.array(self.cos_coeffs), np.array(self.sin_coeffs)
        self._wk, self._ac, self._bs = wk, ac, bs
        self._aw, self._bw = ac * wk, bs * wk
        # columns: the weights of _periodic - a0 and of F' - degree in the
        # table [cos | sin] of _series
        self._weights = np.column_stack((np.concatenate((ac, bs)),
                                         np.concatenate((self._bw, -self._aw))))
        self._terms = list(zip(wk.tolist(), self.cos_coeffs, self.sin_coeffs))
        self._spectral = n > 8
        # error model of eval_float, for _pad, and the bound on |F''|
        self._amplitude = abs(self.a0) + float(np.sum(np.abs(ac) + np.abs(bs)))
        self._err_const = _EPS * (n + 3) * self._amplitude
        slope_amplitude = float(np.sum(np.abs(self._aw) + np.abs(self._bw)))
        self._err_per_x = 2 * _EPS * slope_amplitude
        self._m2 = sum(w ** 2 * (abs(a) + abs(b)) for w, a, b in self._terms)
        self._set_step_bound(slope_amplitude)
        # the largest |y| the inverse takes: the phases 2 pi k x, k <= n, stay
        # below max/4 at x = y/degree, and y itself below max/4, so that
        # degree*a and y - F(a) on the bracket stay finite too; F takes |x|
        # up to that bound over degree
        big = sys.float_info.max / 4
        self._y_max = min(big, degree * (big / (2 * math.pi * max(n, 1))))
        self._x_max = self._y_max / degree
        self._deriv_min = None
        wit = self.monotonicity_margin()
        if wit <= 0:
            raise ConstructionError(
                f"cannot certify monotonicity: derivative lower bound {wit:.3g} <= 0")
        self._f0 = self.eval_float(0.0)
        self._starts = self._start_table()
        # the same table for invert_float: indexing a memoryview gives floats
        self._starts_view = self._starts.data

    def monotonicity_margin(self) -> float:
        """Estimated lower bound for F' over a period (cached).

        The minimum of dense float derivative samples (an FFT on a grid with
        at least eight points per harmonic) minus the Lipschitz guard
        max|F''| * step / 2, with max|F''| bounded by a float coefficient
        sum.  It bounds F' from below in exact arithmetic only: no term
        covers the rounding of the FFT or of the sum, so it is not a
        certificate (ROADMAP.md, Direction 5).
        """
        if self._deriv_min is not None:
            return self._deriv_min
        n = len(self.cos_coeffs)
        m2 = self._m2
        grid = _fft_grid(n)
        while True:
            coeffs = np.zeros(grid // 2 + 1, dtype=complex)
            for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
                coeffs[k] = (a - 1j * b) / 2 * (2j * math.pi * k)
            deriv = np.fft.irfft(coeffs * grid, grid).real + self.degree
            margin = float(deriv.min()) - m2 / grid / 2
            # refine while the Lipschitz guard, not the sampled minimum,
            # is what blocks a positive certificate
            if margin > 0 or float(deriv.min()) <= 0 or grid >= 2 ** 21:
                break
            grid *= 4
        self._deriv_min = margin
        return self._deriv_min

    def _start_table(self) -> np.ndarray:
        """s(j/M) for j = 0..M, where s inverts (F(x) - F(0))/degree on
        [0, 1] and M = _fft_grid(harmonics), the first grid of
        monotonicity_margin: F is sampled at x = i/M by one inverse FFT and
        inverted by linear interpolation, so s(0) = 0 and s(1) = 1."""
        n = len(self._wk)
        grid = _fft_grid(n)
        spec = np.zeros(grid // 2 + 1, dtype=complex)
        spec[1:n + 1] = (self._ac - 1j * self._bs) * (grid / 2)
        per = np.fft.irfft(spec, grid)
        xs = np.arange(grid + 1) / grid
        rise = np.append(xs[:-1] + (per - per[0]) / self.degree, 1.0)
        return np.interp(xs, rise, xs)

    def _periodic(self, x: float) -> float:
        if self._spectral:
            phases = self._wk * x
            return self.a0 + float(np.dot(self._ac, np.cos(phases))
                                   + np.dot(self._bs, np.sin(phases)))
        s = self.a0
        for w, a, b in self._terms:
            s += a * math.cos(w * x) + b * math.sin(w * x)
        return s

    def eval_float(self, x):
        # one comparison rejects NaN, +-inf and a |x| whose phases overflow
        if not abs(x) <= self._x_max:
            raise PreconditionError(f"cannot evaluate a trig lift at x = {x!r}")
        return self.degree * x + self._periodic(x)

    def _value_slope(self, x: float) -> tuple:
        """(_periodic(x), F'(x) - degree) from one cos and sin per harmonic."""
        if self._spectral:
            cos, sin = np.cos(self._wk * x), np.sin(self._wk * x)
            return (self.a0 + float(np.dot(self._ac, cos) + np.dot(self._bs, sin)),
                    float(np.dot(self._bw, cos) - np.dot(self._aw, sin)))
        s, d = self.a0, 0.0
        for w, a, b in self._terms:
            c, sn = math.cos(w * x), math.sin(w * x)
            s += a * c + b * sn
            d += w * (b * c - a * sn)
        return s, d

    def _series(self, xs: np.ndarray) -> np.ndarray:
        """Rows (_periodic(x) - a0, F'(x) - degree) at each x in xs: the table
        [cos(2 pi k x) | sin(2 pi k x)] of a block of rows times _weights, one
        matrix product per block; blocks keep the table under _BLOCK elements."""
        n = len(self._wk)
        rows = max(1, _BLOCK // max(1, 2 * n))
        table = np.empty((min(rows, len(xs)), 2 * n))
        out = np.empty((len(xs), 2))
        for s in range(0, len(xs), rows):
            phases = np.multiply.outer(xs[s:s + rows], self._wk)
            block = table[:len(phases)]
            np.cos(phases, out=block[:, :n])
            np.sin(phases, out=block[:, n:])
            out[s:s + rows] = block @ self._weights
        return out.T

    def eval_array(self, xs):
        if not np.abs(xs).max(initial=0.0) <= self._x_max:
            self.eval_float(float(xs[~(np.abs(xs) <= self._x_max)][0]))  # raises
        return self.degree * xs + (self.a0 + self._series(xs)[0])

    # least pad of the enclosure, kept as the floor of the derived pad
    _PAD = 1e-12

    def _pad(self, x: float) -> float:
        """Bound on |eval_float(x) - F(x)|, at least _PAD.

        With u = 2^-53: each phase 2 pi k x is three roundings off (pi, the
        product by k, the product by x), which moves its term by at most
        3u * 2 pi k |x| (|a_k| + |b_k|); cos and sin (at most 4 ulp), the
        products by the coefficients and the 2N + 1 term sum cost at most
        u (2N + 5) times |a0| + sum |a_k| + |b_k|; the product degree * x and
        the final sum cost at most one ulp of degree |x| plus that amplitude.
        _err_per_x and _err_const hold the first two with eps = 2u.
        """
        ax = abs(x)
        err = (math.ulp(self.degree * ax + self._amplitude) + self._err_const
               + self._err_per_x * ax)
        return max(self._PAD, err)

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        lo, hi = _float_down(enc.lo), _float_up(enc.hi)
        f_lo = self.eval_float(lo)
        f_hi = f_lo if hi == lo else self.eval_float(hi)
        return Enclosure(f_lo - self._pad(lo), f_hi + self._pad(hi))

    shift_image = FundamentalDomainMap.shift_image  # degree*q for integer q

    def _set_step_bound(self, slope_amplitude: float) -> None:
        """Constants h2, e0, e1 of the test that accepts a Newton step unseen.

        Let x lie in the one-period bracket, fx and d the computed F(x) - y
        and F'(x), and xn = x - fx/d the rounded step, D = xn - x; xn in the
        bracket gives |D| <= 1.  By Taylor, |F(xn) - y| <= |F(x) - y + F'(x) D|
        + h2 D^2 with h2 = max|F''|/2 <= sum (2 pi k)^2 (|a_k| + |b_k|) / 2.
        With u = 2^-53, A1 = sum 2 pi k (|a_k| + |b_k|) and d <= degree + A1,
        F(x) - y + F'(x) D differs from fx + d D, which is 0 up to the rounding
        of the quotient and of x - fx/d (u |fx| + u d |xn|), by
        - the error of fx: _pad's terms at x plus u |fx| for subtracting y;
        - the error of d times |D| <= 1: the phase error 3u 2 pi k |x| moves
          the k-th term of F' by up to (2 pi k)^2 (|a_k| + |b_k|) times it,
          the weights, cos, sin, products and sum cost eps (N + 3) A1 as in
          _pad, and adding the degree u d;
        and |fx| <= d (|D| + u |xn|).  Adding _pad's terms at xn, |xn| <= |x| + 1,
        bounds the computed |F(xn) - y| by h2 D^2 + e0 + e1 |x|; h2 is rounded
        up and e0, e1 are doubled for the second-order terms and the rounding
        of the test.  Where that is <= tol, the next step would stop at xn.
        """
        n, deg, amp = len(self._wk), self.degree, self._amplitude
        const, per_x = self._err_const, self._err_per_x
        d = deg + slope_amplitude
        self._h2 = 0.5 * self._m2 * (1 + (n + 16) * _EPS)
        self._e0 = 2 * (2 * const + per_x
                        + _EPS * (2 * amp + deg + (n + 3) * slope_amplitude + 2 * d))
        self._e1 = 2 * (2 * per_x + _EPS * (2 * deg + 2 * self._m2 + d / 2))

    def invert_float(self, y: float) -> float:
        if not abs(y) <= self._y_max:
            raise PreconditionError(f"cannot invert a trig lift at y = {y!r}")
        # the bracket F(a) <= y <= F(a + 1): one move of a either way corrects
        # the floor where floats resolve degree*a (|y| < 2^51 degree); past
        # that, as at an edge, y may miss the closed bracket by rounding
        deg, f0 = self.degree, self._f0
        t = (y - f0) / deg
        a = t // 1.0
        if f0 + deg * a > y:
            a -= 1.0
        elif f0 + deg * (a + 1.0) < y:
            a += 1.0
        b = a + 1.0
        # the start: the table read at M (y - F(a))/degree, clamped to [0, M]
        starts = self._starts_view
        cells = len(starts) - 1
        u = (t - a) * cells
        u = 0.0 if u < 0.0 else cells if u > cells else u
        i = int(u) if u < cells else cells - 1
        x = a + (starts[i] + (u - i) * (starts[i + 1] - starts[i]))
        tol = 1e-14 * (y if y > 1.0 else -y if y < -1.0 else 1.0)
        h2, e0, e1 = self._h2, self._e0, self._e1
        for step in range(80):
            per, slope = self._value_slope(x)
            fx = deg * x + per - y
            d = deg + slope
            xn = x - fx / d if d > 0 else x
            # the start is returned only where a Newton step would not move it
            if -tol <= fx <= tol and (step or xn == x):
                return x
            # a Newton step moves toward the root, so it is inside the bracket
            # that x splits exactly when it is inside the one around x
            inside = a <= xn <= b and xn != x
            if inside and h2 * (xn - x) ** 2 + e0 + e1 * (x if x > 0.0 else -x) <= tol:
                return xn
            if fx < 0:
                a = x
            else:
                b = x
            x = xn if inside else 0.5 * (a + b)
            if b - a <= FLOAT_INVERSE_WIDTH * (x if x > 1.0 else -x if x < -1.0 else 1.0):
                break
        return x

    def invert_array(self, ys: np.ndarray) -> np.ndarray:
        """invert_float at each element: the same bracket, start, Newton step
        and stopping tests, run on arrays.  Round 0 runs on whole arrays;
        later rounds gather the elements that have not stopped."""
        if not np.abs(ys).max(initial=0.0) <= self._y_max:
            self.invert_float(float(ys[~(np.abs(ys) <= self._y_max)][0]))  # raises
        deg, f0 = self.degree, self._f0
        t = (ys - f0) / deg
        a = np.floor(t)
        a -= f0 + deg * a > ys
        a += f0 + deg * (a + 1.0) < ys
        starts = self._starts
        cells = len(starts) - 1
        u = np.clip((t - a) * cells, 0.0, cells)
        i = np.minimum(u.astype(np.intp), cells - 1)
        x = a + (starts[i] + (u - i) * (starts[i + 1] - starts[i]))
        tol = 1e-14 * np.maximum(1.0, np.abs(ys))
        x, a, b, going = self._newton_round(x, ys, a, a + 1.0, tol, True)
        todo = np.flatnonzero(going)
        for _ in range(79):
            if not todo.size:
                break
            x[todo], a[todo], b[todo], going = self._newton_round(
                x[todo], ys[todo], a[todo], b[todo], tol[todo], False)
            todo = todo[going]
        return x

    def _newton_round(self, x, y, a, b, tol, first: bool) -> tuple:
        """One step of invert_float's loop on arrays: (x, a, b, going), where
        going marks the elements that have not stopped."""
        deg = self.degree
        per, slope = self._series(x)
        fx = deg * x + (self.a0 + per) - y
        d = deg + slope
        newton = d > 0
        xn = np.where(newton, x - fx / np.where(newton, d, 1.0), x)
        stay = np.abs(fx) <= tol
        if first:
            stay &= xn == x
        # as in invert_float, the bracket around x decides inside; a step inside
        # moves x by at most 1, one outside (at huge |x|) may overflow squared
        inside = (a <= xn) & (xn <= b) & (xn != x)
        step = np.where(inside, xn - x, 0.0)
        stop = stay | inside & (self._h2 * step ** 2 + self._e0 + self._e1 * np.abs(x) <= tol)
        if stop.all():
            return np.where(stay, x, xn), a, b, ~stop
        low = fx < 0
        a, b = np.where(low, x, a), np.where(low, b, x)
        xn = np.where(inside, xn, 0.5 * (a + b))
        going = ~stop & (b - a > FLOAT_INVERSE_WIDTH * np.maximum(1.0, np.abs(xn)))
        return np.where(stay, x, xn), a, b, going

    def to_spec(self):
        return {"kind": "trigpoly", "degree": self.degree, "a0": self.a0,
                "cos": list(self.cos_coeffs), "sin": list(self.sin_coeffs)}


def sine_lift(amplitude) -> TrigPolyLift:
    """x + amplitude*sin(2 pi x); monotone for |amplitude| < 1/(2 pi)."""
    return TrigPolyLift(1, 0.0, (), (float(rat(amplitude)),))


class Compose(MapTree):
    """parts[0] o parts[1] o ... (rightmost applied first)."""

    def __init__(self, parts: Sequence[MapTree]):
        flat = [q for p in parts for q in (p.parts if isinstance(p, Compose) else (p,))]
        if not flat:
            raise RepresentationError("empty composition")
        self.parts = tuple(flat)

    def eval_float(self, x):
        for p in reversed(self.parts):
            x = p.eval_float(x)
        return x

    def eval_array(self, xs):
        for p in reversed(self.parts):
            xs = p.eval_array(xs)
        return xs

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        for p in reversed(self.parts):
            enc = p.eval_enclosure(enc, inverse_width)
        return enc

    def shift_image(self, q):
        for p in reversed(self.parts):
            q = None if q is None else p.shift_image(q)
        return q

    def to_spec(self):
        return {"kind": "compose", "of": [p.to_spec() for p in self.parts]}


class Inverse(MapTree):
    """Inverse of a leaf map (compositions and conjugations are pushed down by invert())."""

    def __init__(self, inner: MapTree):
        if not isinstance(inner, (FundamentalDomainMap, TrigPolyLift)):
            raise ConstructionError(
                f"cannot invert {inner!r} as a leaf; build inverses with invert(), "
                "which normalizes the tree")
        self.inner = inner

    def eval_float(self, x):
        return self.inner.invert_float(x)

    def eval_array(self, xs):
        return self.inner.invert_array(xs)

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        inner = self.inner
        if isinstance(inner, FundamentalDomainMap):
            if isinstance(enc.lo, float):
                inverse_width = Fraction(1, 2**52)
            return _image(enc, *inner.invert_exact(*enc.rational_ends, inverse_width))
        lo, hi = _float_down(enc.lo), _float_up(enc.hi)
        x_lo = inner.invert_float(lo)
        x_hi = x_lo if hi == lo else inner.invert_float(hi)
        return Enclosure(self._proved_end(lo, x_lo, -1.0), self._proved_end(hi, x_hi, 1.0))

    def _proved_end(self, y: float, x: float, side: float) -> float:
        """A float below (side -1) or above (side +1) the inverse of the trig
        lift at y: x, the Newton inverse at y, moved out by a pad that doubles
        until the leaf's forward enclosure there shows F <= y (or F >= y)."""
        inner, pad = self.inner, 4 * TrigPolyLift._PAD
        while True:
            end = x + side * pad
            f = inner.eval_enclosure(Enclosure.point(end))
            if (f.hi <= y) if side < 0 else (f.lo >= y):
                return end
            pad *= 2

    def shift_image(self, q):
        return Fraction(q, self.inner.degree) if q % self.inner.degree == 0 else None

    def to_spec(self):
        return {"kind": "inverse", "of": self.inner.to_spec()}


class TranslateConjugate(MapTree):
    """x -> f(x - shift) + shift."""

    def __init__(self, shift, inner: MapTree):
        self.shift = rat(shift)
        self.inner = inner
        self._shift_f = float(self.shift)

    def eval_float(self, x):
        s = self._shift_f
        return self.inner.eval_float(x - s) + s

    def eval_array(self, xs):
        s = self._shift_f
        return self.inner.eval_array(xs - s) + s

    def eval_enclosure(self, enc, inverse_width=DEFAULT_INVERSE_WIDTH):
        return self.inner.eval_enclosure(enc.shift(-self.shift), inverse_width).shift(self.shift)

    def shift_image(self, q):
        return self.inner.shift_image(q)

    def to_spec(self):
        return {"kind": "translate_conjugate", "shift": rat_str(self.shift),
                "of": self.inner.to_spec()}


# ---------------------------------------------------------------------------
# constructors


def identity() -> AffineMap:
    return AffineMap(1, 0)


def build_theta(j: int, a=Fraction(1, 10)) -> ThetaMap:
    """Degree-j covering lift with parameter a (default 1/10)."""
    return ThetaMap(j, rat(a))


def compose(*maps: MapTree) -> MapTree:
    """compose(f, g)(x) = f(g(x)); accepts any number of factors."""
    if len(maps) == 1:
        return maps[0]
    return Compose(list(maps))


def invert(f: MapTree) -> MapTree:
    """Inverse map; compositions and conjugations are rewritten so inverses sit on leaves."""
    if isinstance(f, AffineMap):
        return AffineMap(1 / f.slope, -f.offset / f.slope)
    if isinstance(f, Compose):
        return Compose([invert(p) for p in reversed(f.parts)])
    if isinstance(f, Inverse):
        return f.inner
    if isinstance(f, TranslateConjugate):
        return TranslateConjugate(f.shift, invert(f.inner))
    return Inverse(f)


def leaves(f: MapTree) -> list:
    """The leaves of a map tree, left to right."""
    if isinstance(f, Compose):
        return [leaf for p in f.parts for leaf in leaves(p)]
    if isinstance(f, (Inverse, TranslateConjugate)):
        return leaves(f.inner)
    return [f]


def iterate(f: MapTree, n: int) -> MapTree:
    if n == 0:
        return identity()
    g = invert(f) if n < 0 else f
    return compose(*([g] * abs(n)))


def fixed_points(f: MapTree, xs) -> list:
    """Brackets (lo, hi) of the fixed points of f seen on the increasing grid
    xs, left to right.

    f(x) - x is scanned once with eval_array.  A grid point where it is 0
    gives (x, x).  A cell where it changes sign is bisected with eval_float
    until f(mid) = mid, which gives (mid, mid), until the midpoint is no
    longer strictly inside, or for at most 100 halvings.
    """
    xs = np.asarray(xs, dtype=float)
    signs = np.sign(f.eval_array(xs) - xs)
    hits = signs == 0
    hits[:-1] |= signs[:-1] * signs[1:] < 0
    out = []
    for i in np.flatnonzero(hits):
        lo = hi = float(xs[i])
        if signs[i] != 0:
            hi = float(xs[i + 1])
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
                d = f.eval_float(mid) - mid
                if d == 0:
                    lo = hi = mid
                    break
                if (d > 0) == (signs[i] > 0):
                    lo = mid
                else:
                    hi = mid
        out.append((lo, hi))
    return out


def relation_residual(g: MapTree, h: MapTree, m: int, n: int, xs) -> float:
    """max |g(h^m(x)) - h^n(g(x))| over the points xs, with eval_array."""
    lhs = g.eval_array(iterate(h, m).eval_array(xs))
    rhs = iterate(h, n).eval_array(g.eval_array(xs))
    return float(np.max(np.abs(lhs - rhs)))


def from_knots(knots: Sequence[tuple], degree: int, label: str = "") -> FundamentalDomainMap:
    """Piecewise-affine one-period map through (x, y) knots.

    Knots must span exactly one period in x; the closing piece wraps to
    (x0 + 1, y0 + degree) automatically if not supplied.
    """
    pts = [(rat(x), rat(y)) for x, y in knots]
    pts.sort()
    x0, y0 = pts[0]
    if pts[-1][0] - x0 < 1:
        pts.append((x0 + 1, y0 + degree))
    if pts[-1][0] - x0 != 1 or pts[-1][1] - y0 != degree:
        raise RepresentationError("knots must span one period and respect the degree")
    pieces = []
    for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
        if yb <= ya:
            raise RepresentationError(f"knots not strictly increasing at x={xa}")
        pieces.append(AffinePiece(xa, xb, ya, (yb - ya) / (xb - xa)))
    return FundamentalDomainMap(pieces, degree, label)


def from_grid(xs: Sequence[float], ys: Sequence[float], degree: int) -> FundamentalDomainMap:
    """Sampled lift over one period, linearly interpolated (floats kept exactly).

    Float sampling rarely closes the period identically, so the final sample
    is snapped onto (x0 + 1, y0 + degree) when it is within 1e-9.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise RepresentationError("grid needs matching xs/ys with at least two samples")
    pts = [(rat(x), rat(y)) for x, y in zip(xs, ys)]
    pts.sort()
    x0, y0 = pts[0]
    xe, ye = pts[-1]
    if abs(float(xe - x0 - 1)) > 1e-9 or abs(float(ye - y0 - degree)) > 1e-9:
        raise RepresentationError(
            "grid must cover one period: endpoints off by more than 1e-9")
    pts[-1] = (x0 + 1, y0 + degree)
    return from_knots(pts, degree, "grid")


# ---------------------------------------------------------------------------
# Fourier smoothing (opt-in)


def fourier_smooth(f: MapTree, degree_hint: int, harmonics: int) -> TrigPolyLift:
    """Approximate the periodic part f(x) - degree*x by a trig polynomial.

    The partial Fourier sum is damped by the Fejer weights (1 - k/(K+1)):
    convolution with a nonnegative kernel, so monotonicity survives smoothing
    at every degree.  The result must be re-verified against whatever
    inclusions the caller relies on.
    """
    if harmonics < 1:
        raise PreconditionError("need harmonics >= 1")
    samples = _fft_grid(harmonics)
    xs = np.arange(samples) / samples
    per = f.eval_array(xs) - degree_hint * xs
    spec = np.fft.rfft(per) / samples
    weights = 1.0 - np.arange(harmonics + 1) / (harmonics + 1)
    a0 = float(spec[0].real)
    cos_c = [2 * float(spec[k].real) * weights[k] for k in range(1, harmonics + 1)]
    sin_c = [-2 * float(spec[k].imag) * weights[k] for k in range(1, harmonics + 1)]
    return TrigPolyLift(degree_hint, a0, cos_c, sin_c)


# ---------------------------------------------------------------------------
# JSON map specs


_REQUIRED = object()


def read_field(data: dict, key: str, parse, default=_REQUIRED):
    """parse(data[key]), or parse(default) when the key is absent; a missing
    or unreadable field raises PreconditionError naming it."""
    if not isinstance(data, dict):
        raise PreconditionError(f"expected a JSON object with field {key!r}, got {data!r:.60}")
    value = data.get(key, default)
    if value is _REQUIRED:
        raise PreconditionError(f"missing field {key!r}")
    try:
        return parse(value)
    except (LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"bad field {key!r}: {value!r:.60} ({exc})") from None


def _rats(values) -> list:
    return [rat(v) for v in values]


def _floats(values) -> list:
    return [float(v) for v in values]


def _piece(p: dict):
    if read_field(p, "kind", str) == "affine":
        return AffinePiece(*(read_field(p, k, rat) for k in ("lo", "hi", "value_lo", "slope")))
    return HermitePiece(*(read_field(p, k, rat) for k in
                          ("lo", "hi", "value_lo", "value_hi", "slope_lo", "slope_hi")))


def from_spec(spec: dict) -> MapTree:
    """The map tree a JSON spec describes (the inverse of to_spec); a missing
    or malformed field raises PreconditionError naming it."""
    kind = read_field(spec, "kind", str)
    if kind == "affine":
        return AffineMap(read_field(spec, "slope", rat), read_field(spec, "offset", rat, 0))
    if kind == "theta":
        return build_theta(read_field(spec, "j", int), read_field(spec, "a", rat, "1/10"))
    if kind == "compose":
        return Compose(read_field(spec, "of", lambda of: [from_spec(s) for s in of]))
    if kind == "inverse":
        return invert(read_field(spec, "of", from_spec))
    if kind == "translate_conjugate":
        return TranslateConjugate(read_field(spec, "shift", rat), read_field(spec, "of", from_spec))
    if kind == "trigpoly":
        return TrigPolyLift(read_field(spec, "degree", int), read_field(spec, "a0", float, 0.0),
                            read_field(spec, "cos", _floats, ()),
                            read_field(spec, "sin", _floats, ()))
    if kind == "sine_lift":
        return sine_lift(read_field(spec, "amplitude", rat))
    if kind == "knots":
        return from_knots(read_field(spec, "points", lambda ps: [(rat(x), rat(y)) for x, y in ps]),
                          read_field(spec, "degree", int), read_field(spec, "label", str, ""))
    if kind == "grid":
        return from_grid(read_field(spec, "xs", _rats), read_field(spec, "ys", _rats),
                         read_field(spec, "degree", int))
    if kind == "fundamental":
        return FundamentalDomainMap(read_field(spec, "pieces", lambda ps: [_piece(p) for p in ps]),
                                    read_field(spec, "degree", int),
                                    read_field(spec, "label", str, ""))
    raise PreconditionError(f"unknown map kind {kind!r}")
